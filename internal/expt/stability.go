package expt

import (
	"fmt"
	"math"

	"aqt/internal/adversary"
	"aqt/internal/baselines"
	"aqt/internal/core"
	"aqt/internal/gadget"
	"aqt/internal/graph"
	"aqt/internal/obs"
	"aqt/internal/packet"
	"aqt/internal/policy"
	"aqt/internal/rational"
	"aqt/internal/sim"
	"aqt/internal/stability"
)

// E6Lemma33 validates the rerouting machinery: a full bootstrap+pump
// run under the Rerouter (new-edge checks) and the rate validator,
// counting reroutes per packet (the theorem allows at most M per
// packet).
func E6Lemma33(q Quick) *Table {
	t := &Table{
		ID:      "E6",
		Title:   "On-line rerouting under a historic policy (Lemma 3.3)",
		Columns: []string{"phase", "reroutedPkts", "maxReroutesPerPkt", "rateCheck", "ok"},
		OK:      true,
	}
	eps := rational.New(1, 5)
	p := core.Solve(eps)
	s := 2 * p.S0
	c := gadget.NewChain(p.N, 3, false)
	e := sim.New(c.G, policy.FIFO{}, nil)
	rr := adversary.NewRerouter(p.R)
	rv := adversary.NewRateValidator(p.R)
	e.AddObserver(rr)
	e.AddObserver(rv)
	e.SeedN(int(2*s), packet.Injection{Route: []graph.EdgeID{c.Ingress(1)}})

	var boot core.BootstrapReport
	pumps := make([]core.PumpReport, 2)
	seq := adversary.NewSequence(
		core.BootstrapPhase(p, c, 1, rr, &boot),
		core.PumpPhase(p, c, 1, rr, &pumps[0]),
		core.PumpPhase(p, c, 2, rr, &pumps[1]),
	)
	e.SetAdversary(seq)
	e.RunUntil(func(*sim.Engine) bool { return seq.Finished() }, 64*s)

	maxReroutes := 0
	e.ForEachQueued(func(_ graph.EdgeID, pk *packet.Packet) {
		if pk.Reroutes > maxReroutes {
			maxReroutes = pk.Reroutes
		}
	})
	// The rate validator confirms the emitted execution (including the
	// reroute-charged edges) remains a rate-r adversary.
	rateErr := rv.CheckBudget(600, 4*s)
	phases := []struct {
		name string
		n    int
	}{
		{"bootstrap", int(boot.QIn)},
		{"pump g1->g2", pumps[0].Extended},
		{"pump g2->g3", pumps[1].Extended},
	}
	for _, ph := range phases {
		ok := ph.n > 0
		if !ok {
			t.OK = false
		}
		t.AddRow(ph.name, ph.n, maxReroutes, rateErr == nil, ok)
	}
	if rateErr != nil {
		t.OK = false
		t.AddNote("rate validation failed: %v", rateErr)
	}
	if maxReroutes > 3 {
		t.OK = false
		t.AddNote("a packet was rerouted %d times; bound is one per traversed gadget", maxReroutes)
	}
	t.AddNote("every extension passed the Definition 3.2 new-edge check and the shared-edge precondition")
	return t
}

// E7Theorem41 checks the greedy stability bound: every policy, random
// (w,r) traffic at r = 1/(d+1), residence <= floor(wr).
func E7Theorem41(q Quick) *Table {
	t := &Table{
		ID:      "E7",
		Title:   "Greedy stability at r <= 1/(d+1) (Theorem 4.1)",
		Columns: []string{"policy", "d", "w", "r", "bound", "measured", "injected", "ok"},
		OK:      true,
	}
	steps := int64(6000)
	ds := []int{2, 3, 5}
	if q {
		steps = 2500
		ds = []int{2, 3}
	}
	for _, d := range ds {
		w := int64(20 * (d + 1))
		rate := stability.GreedyRateBound(d)
		for _, pol := range policy.All() {
			g := graph.Complete(d + 2)
			adv := adversary.NewRandomWR(g, w, rate, d, int64(17*d)+3)
			res := stability.CheckResidence(g, pol, adv, w, rate, d, steps)
			if !res.OK() || res.Injected == 0 {
				t.OK = false
			}
			t.AddRow(pol.Name(), d, w, rate, res.Bound, res.Measured, res.Injected, res.OK())
		}
	}
	// The extremal bursty adversary: full per-window allowance in
	// single-step bursts (Definition 2.1 permits this; smooth pacing
	// never exercises it). FIFO and NTG as representatives.
	for _, d := range ds {
		w := int64(20 * (d + 1))
		rate := stability.GreedyRateBound(d)
		for _, pol := range []policy.Policy{policy.FIFO{}, policy.NTG{}} {
			g := graph.Complete(d + 2)
			adv := adversary.MaxWindowBurst(g, w, rate, d)
			res := stability.CheckResidence(g, pol, adv, w, rate, d, steps)
			if !res.OK() || res.Injected == 0 {
				t.OK = false
			}
			t.AddRow(pol.Name()+"+burst", d, w, rate, res.Bound, res.Measured, res.Injected, res.OK())
		}
	}
	t.AddNote("bound floor(w*r) is independent of network size (paper section 1); '+burst' rows use single-step full-allowance bursts")
	return t
}

// E8Theorem43 checks the time-priority bound at the higher rate 1/d.
func E8Theorem43(q Quick) *Table {
	t := &Table{
		ID:      "E8",
		Title:   "Time-priority stability at r <= 1/d (Theorem 4.3)",
		Columns: []string{"policy", "d", "w", "r", "bound", "measured", "injected", "ok"},
		OK:      true,
	}
	steps := int64(6000)
	ds := []int{2, 3, 5}
	if q {
		steps = 2500
		ds = []int{2, 3}
	}
	for _, d := range ds {
		w := int64(20 * d)
		rate := stability.TimePriorityRateBound(d)
		for _, pol := range []policy.Policy{policy.FIFO{}, policy.LIS{}} {
			g := graph.Complete(d + 2)
			adv := adversary.NewRandomWR(g, w, rate, d, int64(29*d)+7)
			res := stability.CheckResidence(g, pol, adv, w, rate, d, steps)
			if !res.OK() || res.Injected == 0 {
				t.OK = false
			}
			t.AddRow(pol.Name(), d, w, rate, res.Bound, res.Measured, res.Injected, res.OK())
		}
	}
	return t
}

// E9Observation44 transforms initial-configuration adversaries into
// empty-start (w*, r*) adversaries and validates the window bound.
func E9Observation44(q Quick) *Table {
	t := &Table{
		ID:      "E9",
		Title:   "Initial configurations reduce to (w*, r*) adversaries (Observation 4.4)",
		Columns: []string{"S", "w", "r", "r*", "w*", "windowCheck", "residBound(Cor4.5)", "measured", "ok"},
		OK:      true,
	}
	d := 3
	g := graph.Complete(d + 2)
	sizes := []int64{8, 32, 128}
	if q {
		sizes = sizes[:2]
	}
	for _, s := range sizes {
		w := int64(24)
		r := rational.New(1, 8) // below 1/(d+1) = 1/4
		rStar := rational.New(3, 16)

		// Seeds: S packets all requiring edge 0, half continuing one
		// more hop (to a node other than edge 0's tail, keeping the
		// route simple).
		var second graph.EdgeID = graph.NoEdge
		for _, cand := range g.Out(g.Edge(0).To) {
			if g.Edge(cand).To != g.Edge(0).From {
				second = cand
				break
			}
		}
		seedRoute := []graph.EdgeID{0, second}
		seeds := make([]packet.Injection, s)
		for i := range seeds {
			seeds[i] = packet.Injection{Route: seedRoute[:1+int(i)%2]}
		}
		streams := []adversary.Stream{{
			Start: 1, Rate: r, Budget: 20 * s,
			Route: []graph.EdgeID{1},
		}}
		wStar := adversary.WStar(adversary.MaxEdgeRequirement(seeds), w, r, rStar)
		transformed := adversary.Observation44(streams, seeds)
		wv := adversary.NewWindowValidator(wStar, rStar)
		e := sim.New(g, policy.FIFO{}, transformed)
		e.AddObserver(wv)
		// The validator only listens to injection/reroute events, which
		// RunQuiet still delivers; skip the no-op OnStep dispatch.
		e.RunQuiet(40 * s)
		winErr := wv.Check()

		// Corollary 4.5: residence bound for greedy schedules started
		// from an S-initial-configuration at rate r < 1/(d+1).
		bound := stability.InitialConfigResidenceBound(s, w, r, stability.GreedyRateBound(d))
		measured := e.MaxResidence(true)
		ok := winErr == nil && measured <= bound
		if !ok {
			t.OK = false
		}
		t.AddRow(s, w, r, rStar, wStar, winErr == nil, bound, measured, ok)
	}
	t.AddNote("w* = ceil((S+w+1)/(r*-r)); the burst-at-step-1 execution passes the (w*, r*) window validator")
	return t
}

// E11Asymptotics reproduces the appendix's parameter table:
// n = Theta(log 1/eps), S0 = Theta((1/eps) log(1/eps)).
func E11Asymptotics(q Quick) *Table {
	t := &Table{
		ID:      "E11",
		Title:   "Parameter asymptotics (Appendix)",
		Columns: []string{"eps", "n", "log2(1/eps)", "n/log2(1/eps)", "S0", "(1/eps)log2(1/eps)", "S0/((1/eps)log2(1/eps))"},
		OK:      true,
	}
	epsList := []float64{0.25, 0.1, 0.05, 0.02, 0.01, 0.005}
	if q {
		epsList = epsList[:4]
	}
	for _, eps := range epsList {
		p := core.Solve(rational.FromFloat(eps, 100000))
		l := log2(1 / eps)
		scale := l / eps
		nRatio := float64(p.N) / l
		sRatio := float64(p.S0) / scale
		// Theta: ratios must stay within fixed constants in the
		// asymptotic regime (the appendix proves the classes for
		// eps -> 0+; moderate eps rows are informational).
		if eps <= 0.1 && (nRatio < 0.5 || nRatio > 3 || sRatio < 2 || sRatio > 80) {
			t.OK = false
		}
		t.AddRow(fmt.Sprintf("%.3f", eps), p.N, fmt.Sprintf("%.2f", l),
			fmt.Sprintf("%.2f", nRatio), p.S0, fmt.Sprintf("%.0f", scale),
			fmt.Sprintf("%.2f", sRatio))
	}
	t.AddNote("ratios bounded across the sweep confirm the Theta() classes; constants drift for moderate eps as the appendix notes (valid as eps -> 0+)")
	return t
}

// F1Figure31 reproduces Figure 3.1: the structure of F^2_n.
func F1Figure31(q Quick) *Table {
	t := &Table{
		ID:      "F1",
		Title:   "Gadget F^2_n structure (Figure 3.1)",
		Columns: []string{"n", "nodes", "edges", "acyclic", "egress(F)=ingress(F')", "routesSimple", "ok"},
		OK:      true,
	}
	for _, n := range []int{2, 4, 9} {
		c := gadget.NewChain(n, 2, false)
		shared := c.Egress(1) == c.Ingress(2)
		simple := c.G.IsSimplePath(c.LongRoute(1)) && c.G.IsSimplePath(c.LongRoute(2)) &&
			c.G.IsSimplePath(c.EgressRouteOfE(1, 1))
		ok := shared && simple && !c.G.HasCycle()
		if !ok {
			t.OK = false
		}
		t.AddRow(n, c.G.NumNodes(), c.G.NumEdges(), !c.G.HasCycle(), shared, simple, ok)
	}
	t.AddNote("DOT renderings available via aqt gadgetviz")
	return t
}

// F2Figure32 reproduces Figure 3.2: G_eps = F^M_n closed by e0.
func F2Figure32(q Quick) *Table {
	t := &Table{
		ID:      "F2",
		Title:   "G_eps = F^M_n + stitch edge e0 (Figure 3.2)",
		Columns: []string{"eps", "n", "M", "nodes", "edges", "hasCycle", "recycleRouteSimple", "ok"},
		OK:      true,
	}
	for _, eps := range []rational.Rat{rational.New(1, 4), rational.New(1, 5), rational.New(1, 10)} {
		p := core.Solve(eps)
		m := p.MinMEmpirical(rational.FromInt(2))
		c := gadget.NewChain(p.N, m, true)
		recycle := []graph.EdgeID{c.Egress(m), c.Stitch(), c.Ingress(1)}
		ok := c.G.HasCycle() && c.G.IsSimplePath(recycle)
		if !ok {
			t.OK = false
		}
		t.AddRow(eps, p.N, m, c.G.NumNodes(), c.G.NumEdges(), c.G.HasCycle(),
			c.G.IsSimplePath(recycle), ok)
	}
	return t
}

// B1DepthThresholds tabulates the depth-limited instability thresholds
// r*(n) (prior constructions = shallow pipelines) and verifies pump
// behaviour on both sides of the threshold.
func B1DepthThresholds(q Quick) *Table {
	t := &Table{
		ID:      "B1",
		Title:   "Instability threshold vs pipeline depth (prior work = constant depth)",
		Columns: []string{"n", "r*(n)", "probe r", "expected", "S", "S'", "pumped", "ok"},
		OK:      true,
	}
	cases := []struct {
		n int
		r rational.Rat
	}{
		{3, rational.New(55, 100)}, // below r*(3)=0.618: shrink
		{3, rational.New(7, 10)},   // above: pump
		{4, rational.New(6, 10)},   // above r*(4)~0.5437? below?
		{9, rational.New(7, 10)},   // the paper's regime
		{9, rational.New(52, 100)},
	}
	sCap := int64(4000)
	if q {
		cases = cases[:3]
		sCap = 1500
	}
	for _, cse := range cases {
		res := baselines.RunDepthPump(cse.r, cse.n, sCap)
		ok := res.Pumped() == res.ShouldPump
		if !ok {
			t.OK = false
		}
		thr := baselines.DepthThreshold(cse.n, 20)
		t.AddRow(cse.n, fmt.Sprintf("%.4f", thr.Float()), cse.r, res.ShouldPump,
			res.S, res.Measured, res.Pumped(), ok)
	}
	// Recover r*(n) by pure simulation: bisect the rate with the pump
	// as the probe and compare against the exact root of r^n = 2r-1.
	// The parallel search speculatively pre-probes future bisection
	// midpoints (each probe owns its engine) and returns bit-identical
	// thresholds to the sequential search.
	bisectDepths := []int{3, 6}
	if q {
		bisectDepths = bisectDepths[:1]
	}
	for _, n := range bisectDepths {
		probe := func(rate rational.Rat) stability.Verdict {
			if baselines.RunDepthPump(rate, n, sCap/2).Pumped() {
				return stability.Diverging
			}
			return stability.Stable
		}
		emp := stability.ParallelThresholdSearch(probe, rational.New(1, 2), rational.New(9, 10), 8, 0)
		exact := baselines.DepthThreshold(n, 20)
		diff := emp.Float() - exact.Float()
		ok := diff >= -0.02 && diff <= 0.02
		if !ok {
			t.OK = false
		}
		t.AddRow(n, fmt.Sprintf("%.4f", exact.Float()),
			fmt.Sprintf("bisected: %.4f", emp.Float()), "-", "-", "-", "-", ok)
	}
	t.AddNote("r*(n) solves r^n = 2r-1 (pump condition R_n < 1/2); r*(3)=0.618, r*(n) -> 1/2: unbounded depth is what buys the paper its 1/2+eps bound over the 0.85/0.8357/0.749 constants of constant-size prior constructions")
	t.AddNote("'bisected' rows recover the threshold by pure simulation (rate bisection with the pump as probe) and match the algebraic root to grid resolution")
	return t
}

// B2NTGStarvation measures the NTG starvation mechanism behind the
// low-rate instability results of Borodin et al.
func B2NTGStarvation(q Quick) *Table {
	t := &Table{
		ID:      "B2",
		Title:   "NTG starves aged long-route traffic (mechanism of Borodin et al.)",
		Columns: []string{"policy", "crossRate", "K", "L", "drainSteps", "K/(1-r)", "ok"},
		OK:      true,
	}
	k := 200
	steps := int64(30000)
	if q {
		k = 100
		steps = 15000
	}
	rates := []rational.Rat{rational.New(2, 5), rational.New(3, 5), rational.New(4, 5)}
	if q {
		rates = rates[:2]
	}
	// Every (rate, policy) ladder run builds its own graph and engine,
	// so the whole grid fans out across a worker pool; rows keep the
	// sequential rate-major, policy-minor order (the FIFO verdict reads
	// NTG's drain time for the same rate out of the collected results).
	pols := []policy.Policy{policy.NTG{}, policy.FTG{}, policy.LIS{}, policy.FIFO{}}
	type b2Run struct {
		rate rational.Rat
		pol  policy.Policy
	}
	var grid []b2Run
	for _, r := range rates {
		for _, pol := range pols {
			grid = append(grid, b2Run{r, pol})
		}
	}
	results := stability.SweepGrid(grid, func(run b2Run) baselines.LadderResult {
		sc := baselines.LadderScenario{L: 6, K: k, CrossRate: run.rate, Steps: steps}
		return sc.Run(run.pol)
	}, 0)
	for ri, r := range rates {
		sc := baselines.LadderScenario{L: 6, K: k, CrossRate: r, Steps: steps}
		ideal := float64(k) / (1 - r.Float())
		var ntgDrain int64
		for pi, pol := range pols {
			gr := results[ri*len(pols)+pi]
			if gr.Panic != "" {
				t.OK = false
				t.AddNote("%s at r=%v panicked: %s", pol.Name(), r, gr.Panic)
				continue
			}
			res := gr.Value
			ok := res.Drained()
			switch pol.Name() {
			case "NTG":
				// NTG's drain must track the starvation rate K/(1-r).
				ok = ok && float64(res.DrainTime) > 0.8*ideal
				ntgDrain = res.DrainTime
			case "FTG", "LIS":
				// Policies that favour the aged convoy (by distance or
				// by injection age) drain well below the starvation time.
				ok = ok && float64(res.DrainTime) < 0.9*ideal
			case "FIFO":
				// FIFO protects only per-buffer arrival order; crossers
				// reach downstream buffers first, so FIFO lands between
				// LIS and NTG.
				ok = ok && res.DrainTime <= ntgDrain
			}
			if !ok {
				t.OK = false
			}
			t.AddRow(pol.Name(), r, k, sc.L, res.DrainTime, fmt.Sprintf("%.0f", ideal), ok)
		}
	}
	t.AddNote("recursive amplification of this mechanism with routes of length Theta(1/r) yields the arbitrarily-low-rate instability cited in section 5")
	return t
}

// B3PolicyZoo classifies every policy on the pump workload: FIFO
// diverges by construction; the universally stable policies stay
// bounded on the same graph under the same injections.
func B3PolicyZoo(q Quick) *Table {
	t := &Table{
		ID:      "B3",
		Title:   "Policy zoo on the gadget-chain workload",
		Columns: []string{"policy", "historic", "timePriority", "universallyStable", "verdict", "peakQueue", "ok"},
		OK:      true,
	}
	// A cheap pumping parameter point: r = 3/4 at depth n = 6 gives
	// S0 = 192, so the zoo's 8 policies x 2-3 cycles stay affordable
	// even for policies whose Select scans the whole buffer.
	p := core.ParamsFor(rational.New(3, 4), 6)
	s := 4 * p.S0
	for _, pol := range policy.All() {
		verdict, peak := zooRun(p, pol, s)
		tr := pol.Traits()
		// Expectations: FIFO must diverge (that is E1's construction);
		// universally stable policies must not.
		ok := true
		if pol.Name() == "FIFO" && verdict != stability.Diverging {
			ok = false
		}
		if tr.UniversallyStable && verdict == stability.Diverging {
			ok = false
		}
		if !ok {
			t.OK = false
		}
		t.AddRow(pol.Name(), tr.Historic, tr.TimePriority, tr.UniversallyStable, verdict, peak, ok)
	}
	t.AddNote("same G_eps graph, same per-cycle adversary shape; non-FIFO policies break the pump's FIFO mixing so the backlog stops compounding")
	return t
}

// zooRun drives the instability adversary shape against an arbitrary
// policy and classifies the backlog series over several cycles.
func zooRun(p core.Params, pol policy.Policy, s int64) (stability.Verdict, int64) {
	m := p.MinMEmpirical(rational.New(3, 2))
	c := gadget.NewChain(p.N, m, true)
	e := sim.New(c.G, pol, nil)
	e.SeedN(int(s), packet.Injection{Route: []graph.EdgeID{c.Ingress(1)}})
	sam := obs.NewSampler(obs.SamplerConfig{Every: 256, MaxSamples: 1 << 14})
	sam.Attach(e)

	peaks := []int64{}
	for cycle := 0; cycle < 3; cycle++ {
		var boot core.BootstrapReport
		var drain core.DrainReport
		var stitch core.StitchReport
		phases := []adversary.Phase{core.BootstrapPhase(p, c, 1, nil, &boot)}
		pumps := make([]core.PumpReport, m-1)
		for k := 1; k < m; k++ {
			phases = append(phases, core.PumpPhase(p, c, k, nil, &pumps[k-1]))
		}
		phases = append(phases, core.DrainPhase(p, c, &drain), core.StitchPhase(p, c, &stitch))
		seq := adversary.NewSequence(phases...)
		e.SetAdversary(seq)
		if !e.RunUntil(func(*sim.Engine) bool { return seq.Finished() }, 64*s*int64(m)) {
			break
		}
		e.SetAdversary(nil)
		peaks = append(peaks, e.TotalQueued())
		if e.TotalQueued() == 0 {
			break
		}
	}
	// Diverging iff the end-of-cycle backlog kept growing.
	verdict := stability.Stable
	if len(peaks) >= 2 && peaks[len(peaks)-1] > peaks[0]*5/4 {
		verdict = stability.Diverging
	}
	return verdict, sam.PeakTotal()
}

// B4FIFOBelowOneOverD verifies that FIFO stays stable on G_eps when
// the injection rate is below 1/d (Theorem 4.3 applied to the same
// graph the instability uses).
func B4FIFOBelowOneOverD(q Quick) *Table {
	t := &Table{
		ID:      "B4",
		Title:   "FIFO on G_eps below 1/d stays bounded (Theorem 4.3 on the instability graph)",
		Columns: []string{"d", "w", "r", "bound", "measured", "verdict", "ok"},
		OK:      true,
	}
	p := core.Solve(rational.New(1, 5))
	c := gadget.NewChain(p.N, 4, true)
	ds := []int{3, 6}
	steps := int64(8000)
	if q {
		ds = ds[:1]
		steps = 3000
	}
	for _, d := range ds {
		w := int64(20 * d)
		rate := stability.TimePriorityRateBound(d)
		adv := adversary.NewRandomWR(c.G, w, rate, d, 31)
		e := sim.New(c.G, policy.FIFO{}, adv)
		sam := obs.NewSampler(obs.SamplerConfig{Every: 32, MaxSamples: 1 << 14})
		sam.Attach(e)
		e.Run(steps)
		measured := e.MaxResidence(true)
		bound := stability.ResidenceBound(w, rate)
		verdict := stability.Classify(sam.Backlog(), 1.25)
		ok := measured <= bound && verdict == stability.Stable && e.Injected() > 0
		if !ok {
			t.OK = false
		}
		t.AddRow(d, w, rate, bound, measured, verdict, ok)
	}
	t.AddNote("same graph family as E1; only the rate/route-length regime differs — matching the paper's 1/2+eps vs 1/d gap for FIFO")
	return t
}

func log2(x float64) float64 { return math.Log2(x) }

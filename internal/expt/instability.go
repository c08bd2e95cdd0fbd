package expt

import (
	"fmt"

	"aqt/internal/adversary"
	"aqt/internal/core"
	"aqt/internal/gadget"
	"aqt/internal/graph"
	"aqt/internal/packet"
	"aqt/internal/policy"
	"aqt/internal/rational"
	"aqt/internal/sim"
	"aqt/internal/stability"
)

// E1Theorem317 reproduces the headline result: FIFO on G_ε at rate
// 1/2 + ε grows its backlog by a constant factor every adversary
// cycle, for several ε.
func E1Theorem317(q Quick) *Table {
	t := &Table{
		ID:      "E1",
		Title:   "FIFO instability at r = 1/2 + eps on G_eps (Theorem 3.17)",
		Columns: []string{"eps", "r", "n", "M", "cycle", "S1", "S2", "S3", "S4", "growth", "steps"},
		OK:      true,
	}
	epsList := []rational.Rat{rational.New(1, 5), rational.New(1, 4)}
	cycles := 3
	if q {
		epsList = []rational.Rat{rational.New(1, 4)}
		cycles = 2
	}
	// Each ε owns a full G_ε construction (its own chain, engine and
	// controllers), so the ε runs fan out across a worker pool; rows
	// are assembled in epsList order, keeping the table byte-identical
	// to a sequential run.
	type e1Run struct {
		ins  *core.Instability
		done int
	}
	runs := stability.SweepGrid(epsList, func(eps rational.Rat) e1Run {
		ins := core.NewInstability(eps, InstabilityOpts(q))
		return e1Run{ins: ins, done: ins.RunCycles(cycles)}
	}, 0)
	for i, gr := range runs {
		eps := epsList[i]
		if gr.Panic != "" {
			t.OK = false
			t.AddNote("eps=%v: run panicked: %s", eps, gr.Panic)
			continue
		}
		ins := gr.Value.ins
		if gr.Value.done != cycles {
			t.OK = false
			t.AddNote("eps=%v: only %d/%d cycles completed", eps, gr.Value.done, cycles)
		}
		for _, rec := range ins.Cycles {
			t.AddRow(eps, ins.P.R, ins.P.N, ins.M, rec.Cycle,
				rec.S1, rec.S2, rec.S3, rec.S4, rec.Growth(), rec.Steps)
			if rec.S4 <= rec.S1 {
				t.OK = false
			}
		}
	}
	t.AddNote("instability = S4 > S1 in every cycle; growth compounds without bound")
	return t
}

// InstabilityOpts returns the Theorem 3.17 options used by E1 and the
// benches (exported so callers size runs consistently).
func InstabilityOpts(q Quick) core.InstabilityOptions {
	opt := core.InstabilityOptions{Validate: true}
	if q {
		opt.MarginM = rational.New(3, 2)
	}
	return opt
}

// E2Lemma36 verifies the gadget pump across queue sizes: the measured
// S' must match the exact prediction floor(2S(1−R_n)) and exceed
// S(1+ε).
func E2Lemma36(q Quick) *Table {
	t := &Table{
		ID:      "E2",
		Title:   "Gadget pump S -> S' >= S(1+eps) (Lemma 3.6)",
		Columns: []string{"eps", "S", "S'_pred", "S'_meas", "growth", "1+eps", "srcEmpty", "ok"},
		OK:      true,
	}
	eps := rational.New(1, 5)
	p := core.Solve(eps)
	sizes := []int64{p.S0, 2 * p.S0, 4 * p.S0, 8 * p.S0}
	if q {
		sizes = []int64{p.S0, 2 * p.S0}
	}
	for _, s := range sizes {
		c := gadget.NewChain(p.N, 2, false)
		e := sim.New(c.G, policy.FIFO{}, nil)
		c.SeedInvariant(e, 1, int(s))
		var rep core.PumpReport
		rr := adversary.NewRerouter(p.R)
		e.AddObserver(rr)
		seq := adversary.NewSequence(core.PumpPhase(p, c, 1, rr, &rep))
		e.SetAdversary(seq)
		e.RunUntil(func(*sim.Engine) bool { return seq.Finished() }, 8*s)
		onePlusEps := 1 + eps.Float()
		ok := rep.SMeasured >= rep.SPredicted*98/100 &&
			rep.GrowthFactor() >= onePlusEps && rep.LeftInSource == 0
		if !ok {
			t.OK = false
		}
		t.AddRow(eps, s, rep.SPredicted, rep.SMeasured, rep.GrowthFactor(),
			onePlusEps, rep.LeftInSource == 0, ok)
	}
	t.AddNote("prediction S' = floor(2S(1-R_n)); growth guarantee holds for S >= S0 = %d", p.S0)
	return t
}

// E3Lemma315 verifies the bootstrap: 2S single-edge packets at the
// ingress become C(S', F) with S' >= S(1+ε).
func E3Lemma315(q Quick) *Table {
	t := &Table{
		ID:      "E3",
		Title:   "Bootstrap from a single buffer (Lemma 3.15)",
		Columns: []string{"eps", "2S", "S'_pred", "S'_meas", "growth", "1+eps", "ok"},
		OK:      true,
	}
	eps := rational.New(1, 5)
	p := core.Solve(eps)
	sizes := []int64{2 * p.S0, 4 * p.S0, 8 * p.S0}
	if q {
		sizes = sizes[:2]
	}
	for _, q2s := range sizes {
		c := gadget.NewChain(p.N, 1, false)
		e := sim.New(c.G, policy.FIFO{}, nil)
		e.SeedN(int(q2s), packet.Injection{Route: []graph.EdgeID{c.Ingress(1)}})
		var rep core.BootstrapReport
		seq := adversary.NewSequence(core.BootstrapPhase(p, c, 1, nil, &rep))
		e.SetAdversary(seq)
		e.RunUntil(func(*sim.Engine) bool { return seq.Finished() }, 8*q2s)
		onePlusEps := 1 + eps.Float()
		ok := rep.SMeasured >= rep.SPredicted*98/100 && rep.GrowthFactor() >= onePlusEps
		if !ok {
			t.OK = false
		}
		t.AddRow(eps, q2s, rep.SPredicted, rep.SMeasured, rep.GrowthFactor(), onePlusEps, ok)
	}
	return t
}

// E4Lemma316 verifies the stitch: S old packets at a0 are replaced by
// floor(r^3 S) fresh packets at a2.
func E4Lemma316(q Quick) *Table {
	t := &Table{
		ID:      "E4",
		Title:   "Stitch: S old -> r^3 S fresh (Lemma 3.16)",
		Columns: []string{"r", "S", "fresh_pred", "fresh_meas", "stale", "elsewhere", "ok"},
		OK:      true,
	}
	eps := rational.New(1, 5)
	p := core.Solve(eps)
	sizes := []int64{1000, 4000, 16000}
	if q {
		sizes = []int64{1000, 4000}
	}
	for _, s := range sizes {
		c := gadget.NewChain(p.N, 2, true)
		e := sim.New(c.G, policy.FIFO{}, nil)
		e.SeedN(int(s), packet.Injection{Route: []graph.EdgeID{c.Egress(2)}})
		var rep core.StitchReport
		seq := adversary.NewSequence(core.StitchPhase(p, c, &rep))
		e.SetAdversary(seq)
		e.RunUntil(func(*sim.Engine) bool { return seq.Finished() }, 8*s)
		pred := core.StitchPrediction(p.R, s)
		total := rep.Fresh + rep.Stale
		ok := total >= pred*95/100 && total <= pred+pred/100+4 && rep.Elsewhere == 0
		if !ok {
			t.OK = false
		}
		t.AddRow(p.R, s, pred, rep.Fresh, rep.Stale, rep.Elsewhere, ok)
	}
	t.AddNote("stale counts packets injected before tau+S still queued (paper predicts 0; +-O(1) pipeline boundary effects appear in discrete runs)")
	return t
}

// E5Lemma313 verifies the chain pump: C(S, F(1)) propagates through M
// gadgets, multiplying S by about (2(1-R_n))^(M-1), and the final
// drain leaves more than S(1+eps)^(M-1)/2 packets at the chain egress.
func E5Lemma313(q Quick) *Table {
	t := &Table{
		ID:      "E5",
		Title:   "Chain pump through M gadgets (Lemma 3.13)",
		Columns: []string{"M", "S_in", "egress_meas", "paper_bound", "perPumpGrowth", "ok"},
		OK:      true,
	}
	eps := rational.New(1, 5)
	p := core.Solve(eps)
	ms := []int{2, 4, 6}
	if q {
		ms = []int{2, 3}
	}
	for _, m := range ms {
		c := gadget.NewChain(p.N, m, false)
		e := sim.New(c.G, policy.FIFO{}, nil)
		s := 2 * p.S0
		c.SeedInvariant(e, 1, int(s))
		reps := make([]core.PumpReport, m-1)
		phases := make([]adversary.Phase, 0, m)
		for k := 1; k < m; k++ {
			phases = append(phases, core.PumpPhase(p, c, k, nil, &reps[k-1]))
		}
		var drain core.DrainReport
		phases = append(phases, core.DrainPhase(p, c, &drain))
		seq := adversary.NewSequence(phases...)
		e.SetAdversary(seq)
		e.RunUntil(func(*sim.Engine) bool { return seq.Finished() }, 512*s)

		// Paper bound: S(1+eps)^(M-1) / 2 packets at the egress.
		bound := float64(s) / 2
		for i := 0; i < m-1; i++ {
			bound *= 1 + eps.Float()
		}
		mean := 1.0
		if len(reps) > 0 {
			prod := 1.0
			for _, r := range reps {
				prod *= r.GrowthFactor()
			}
			mean = prod
		}
		// Pump stragglers (O(n) per pump, see E2) compound along the
		// chain and may still be a few hops from the egress when the
		// S+n drain window closes; they stay a small fraction of the
		// egress queue.
		ok := float64(drain.QEgress) >= bound &&
			drain.Elsewhere <= drain.QEgress/20+int64(2*p.N*m)
		if !ok {
			t.OK = false
		}
		t.AddRow(m, s, drain.QEgress, fmt.Sprintf("%.0f", bound), mean, ok)
	}
	t.AddNote("paper_bound = S(1+eps)^(M-1)/2; perPumpGrowth is the product of measured pump factors")
	return t
}

// E10Claims probes the internals of one pump run at the exact times
// Claims 3.7-3.12 speak about.
func E10Claims(q Quick) *Table {
	t := &Table{
		ID:      "E10",
		Title:   "Pump internals (Claims 3.7-3.12)",
		Columns: []string{"claim", "statement", "predicted", "measured", "ok"},
		OK:      true,
	}
	eps := rational.New(1, 5)
	p := core.Solve(eps)
	s := 2 * p.S0
	if !q {
		s = 4 * p.S0
	}
	c := gadget.NewChain(p.N, 2, false)
	e := sim.New(c.G, policy.FIFO{}, nil)
	c.SeedInvariant(e, 1, int(s))
	var rep core.PumpReport
	seq := adversary.NewSequence(core.PumpPhase(p, c, 1, nil, &rep))
	e.SetAdversary(seq)

	n := p.N
	// Claim 3.7: 0 < X <= rS.
	x := p.X(s)
	okX := x > 0 && x <= p.R.FloorMulInt(s)+1
	t.AddRow("3.7", "0 < X <= rS", fmt.Sprintf("X in (0,%d]", p.R.FloorMulInt(s)), x, okX)
	if !okX {
		t.OK = false
	}

	// Claim 3.8: one old packet crosses a' per step while the 2S old
	// packets stream through (engine steps [2, 2S+1] — the model's
	// substep timing shifts the paper's [1, 2S] by one). Crossed(t) =
	// 2S − (old still in gadget 1) − (old queued at a').
	egress := c.Egress(1)
	oldCrossedEgress := func() int64 {
		var inG1OrAtEgress int64
		count := func(eid graph.EdgeID) {
			e.Queue(eid).Each(func(pk *packet.Packet) bool {
				if pk.Tag() == core.TagOld {
					inG1OrAtEgress++
				}
				return true
			})
		}
		for _, eid := range c.GadgetEdges(1) {
			count(eid)
		}
		count(egress)
		return 2*s - inG1OrAtEgress
	}
	claim38ok := true
	prevCrossed := int64(0)
	var shortsAt map[int]int // claim 3.9(3): shorts left in e'_i at i+2S+1
	shortsAt = make(map[int]int)
	qiMeasured := make(map[int]int) // claim 3.11: occupancy of e'_i at 2S+i
	for e.Now() < 2*s+int64(n) {
		e.Step()
		now := e.Now()
		if now >= 2 && now <= 2*s+1 {
			cur := oldCrossedEgress()
			if cur-prevCrossed != 1 {
				claim38ok = false
			}
			prevCrossed = cur
		}
		for i := 1; i <= n; i++ {
			if now == int64(i)+2*s+1 {
				cnt := 0
				e.Queue(c.EPath(2)[i-1]).Each(func(pk *packet.Packet) bool {
					if pk.Tag() == core.TagShort {
						cnt++
					}
					return true
				})
				shortsAt[i] = cnt
			}
			if now == 2*s+int64(i) {
				qiMeasured[i] = e.QueueLen(c.EPath(2)[i-1])
			}
		}
	}
	t.AddRow("3.8", "1 old packet arrives at a' per step in [1,2S]", "exact", claim38ok, claim38ok)
	if !claim38ok {
		t.OK = false
	}

	// Claim 3.9(3): no short packets left in e'_i at time i+2S+1.
	maxShorts := 0
	for _, v := range shortsAt {
		if v > maxShorts {
			maxShorts = v
		}
	}
	ok39 := maxShorts <= 2
	t.AddRow("3.9(3)", "no shorts in e'_i at i+2S+1", 0, maxShorts, ok39)
	if !ok39 {
		t.OK = false
	}

	// Claim 3.11: Q_i = (2S - t_i) R_i packets in e'_i at time 2S+i,
	// and Q_n >= n. Check i = 1, n/2, n within 10%.
	for _, i := range []int{1, (n + 1) / 2, n} {
		ri := p.Ri(i)
		rif, _ := ri.Float64()
		pred := (float64(2*s) - float64(p.Ti(s, i))) * rif
		meas := float64(qiMeasured[i])
		ok := meas >= pred*0.9 && meas <= pred*1.1+4
		if !ok {
			t.OK = false
		}
		t.AddRow("3.11", fmt.Sprintf("Q_%d at 2S+%d", i, i), fmt.Sprintf("%.0f", pred), qiMeasured[i], ok)
	}

	// Claim 3.12 / 3.10: at 2S+n the a' queue and the e'-buffer total
	// both equal S'.
	sPrime := p.SPrime(s)
	aQueue := int64(e.QueueLen(egress))
	var eTotal int64
	for _, eid := range c.EPath(2) {
		eTotal += int64(e.QueueLen(eid))
	}
	ok312 := aQueue >= sPrime*98/100 && aQueue <= sPrime*102/100+4
	ok310 := eTotal >= sPrime*98/100 && eTotal <= sPrime*102/100+int64(n)+4
	t.AddRow("3.12", "a' queue at 2S+n = S'", sPrime, aQueue, ok312)
	t.AddRow("3.10", "e'-buffer total at 2S+n = S'", sPrime, eTotal, ok310)
	if !ok312 || !ok310 {
		t.OK = false
	}
	t.AddNote("eps=%v, S=%d, n=%d; tolerances 2-10%% absorb floors/ceilings (see DESIGN.md)", eps, s, n)
	return t
}

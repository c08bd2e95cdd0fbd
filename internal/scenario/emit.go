package scenario

import (
	"fmt"
	"sort"

	"aqt/internal/adversary"
	"aqt/internal/baselines"
	"aqt/internal/core"
	"aqt/internal/expt"
	"aqt/internal/gadget"
	"aqt/internal/graph"
	"aqt/internal/packet"
	"aqt/internal/policy"
	"aqt/internal/rational"
	"aqt/internal/sim"
	"aqt/internal/stability"
)

// Emitted pairs a generated spec with the hand-wired engine it
// serializes, already run to Spec.Run.Steps. The differential tests
// build the spec, run it under each mode, and hold the result
// bit-identical (adversary.SameExecution) to Hand.
type Emitted struct {
	ID   string
	Spec *Spec
	// Hand is the original hand-wired construction after its run (the
	// reference execution). Adaptive constructions are recorded and
	// serialized as replay specs per Remark 1 of the paper; Hand is
	// then the recorded adaptive run itself.
	Hand *sim.Engine
}

// EmitIDs lists the scenario IDs Emit understands, in emission order.
func EmitIDs() []string {
	return []string{"e1", "e2", "e3", "e4", "e5", "e7", "e8", "e13", "e14", "b2", "h1", "u1", "quickstart"}
}

// Emit reconstructs one hand-wired experiment (quick sizing), runs it,
// and serializes it into a spec. It panics on unknown IDs and on
// constructions that fail to complete — emission is developer tooling,
// not input validation.
func Emit(id string) Emitted {
	var em Emitted
	switch id {
	case "e1":
		em = emitE1()
	case "e2":
		em = emitE2()
	case "e3":
		em = emitE3()
	case "e4":
		em = emitE4()
	case "e5":
		em = emitE5()
	case "e7":
		em = emitE7()
	case "e8":
		em = emitE8()
	case "e13":
		em = emitE13()
	case "e14":
		em = emitE14()
	case "b2":
		em = emitB2()
	case "h1":
		em = emitH1()
	case "u1":
		em = emitU1()
	case "quickstart":
		em = emitQuickstart()
	default:
		panic(fmt.Sprintf("scenario: unknown emit id %q (have %v)", id, EmitIDs()))
	}
	em.ID = id
	if err := em.Spec.Validate(); err != nil {
		panic(fmt.Sprintf("scenario: emitted spec %q does not validate: %v", id, err))
	}
	return em
}

// EmitAll emits every known scenario, fanning the independent
// constructions across a worker pool (each emitter owns its graph and
// engine). Results keep EmitIDs order.
func EmitAll() []Emitted {
	res := stability.SweepGrid(EmitIDs(), Emit, 0)
	out := make([]Emitted, len(res))
	for i, gr := range res {
		if gr.Panic != "" {
			panic(fmt.Sprintf("scenario: emit %q panicked: %s", gr.Point, gr.Panic))
		}
		out[i] = gr.Value
	}
	return out
}

// edgeNamer maps edge IDs back to spec refs: the registered name when
// the builder named the edge, "#<id>" otherwise. EdgeName cannot be
// used here — it synthesizes "e<id>" fallbacks that can collide with
// real names; only the registry round-trips.
func edgeNamer(g *graph.Graph) func(graph.EdgeID) string {
	byID := make(map[graph.EdgeID]string)
	for _, name := range g.NamedEdges() {
		byID[g.EdgeByName(name)] = name
	}
	return func(eid graph.EdgeID) string {
		if n, ok := byID[eid]; ok {
			return n
		}
		return fmt.Sprintf("#%d", eid)
	}
}

func routeRefs(name func(graph.EdgeID) string, route []graph.EdgeID) []string {
	refs := make([]string, len(route))
	for i, eid := range route {
		refs[i] = name(eid)
	}
	return refs
}

func routeKey(refs []string) string { return fmt.Sprint(refs) }

// seedsFromRecording converts a recording's step-0 entries (the
// initial configuration, final routes included) into seed specs,
// merging only consecutive identical (route, tag) entries: seed order
// is admission order and fixes packet IDs.
func seedsFromRecording(name func(graph.EdgeID) string, rec []adversary.RecordedInjection) []SeedSpec {
	var seeds []SeedSpec
	for _, ri := range rec {
		if ri.Step != 0 {
			continue
		}
		refs := routeRefs(name, ri.Route)
		if n := len(seeds); n > 0 && seeds[n-1].Tag == ri.Tag &&
			routeKey(seeds[n-1].Route) == routeKey(refs) {
			seeds[n-1].N++
			continue
		}
		seeds = append(seeds, SeedSpec{Route: refs, N: 1, Tag: ri.Tag})
	}
	return seeds
}

// seedsFromEngine serializes an unrun engine's initial configuration:
// every queued packet, in admission (ID) order, with its current —
// possibly already extended — route.
func seedsFromEngine(name func(graph.EdgeID) string, e *sim.Engine) []SeedSpec {
	var pkts []*packet.Packet
	e.ForEachQueued(func(_ graph.EdgeID, p *packet.Packet) { pkts = append(pkts, p) })
	sort.Slice(pkts, func(i, j int) bool { return pkts[i].ID < pkts[j].ID })
	rec := make([]adversary.RecordedInjection, len(pkts))
	for i, p := range pkts {
		rec[i] = adversary.RecordedInjection{Step: 0, Route: p.Route(), Tag: p.Tag()}
	}
	return seedsFromRecording(name, rec)
}

// replayFromRecording converts a recording's injected packets (steps
// >= 1, final routes) into the dictionary-compressed replay block.
// Groups merge only consecutive identical (step, route, tag) packets,
// preserving within-step enqueue order.
func replayFromRecording(name func(graph.EdgeID) string, rec []adversary.RecordedInjection) *ReplaySpec {
	rs := &ReplaySpec{}
	routeIdx := map[string]int{}
	tagIdx := map[string]int{} // 1-based; 0 = untagged
	for _, ri := range rec {
		if ri.Step == 0 {
			continue
		}
		refs := routeRefs(name, ri.Route)
		key := routeKey(refs)
		rid, ok := routeIdx[key]
		if !ok {
			rid = len(rs.Routes)
			routeIdx[key] = rid
			rs.Routes = append(rs.Routes, refs)
		}
		tid := 0
		if ri.Tag != "" {
			tid, ok = tagIdx[ri.Tag]
			if !ok {
				tid = len(rs.Tags) + 1
				tagIdx[ri.Tag] = tid
				rs.Tags = append(rs.Tags, ri.Tag)
			}
		}
		if n := len(rs.Injections); n > 0 {
			last := &rs.Injections[n-1]
			if last.T == ri.Step && last.Route == rid && last.Tag == tid {
				last.N++
				continue
			}
		}
		rs.Injections = append(rs.Injections, InjGroup{T: ri.Step, Route: rid, N: 1, Tag: tid})
	}
	return rs
}

// recordedReplaySpec assembles the spec shared by all replay-emitted
// constructions.
func recordedReplaySpec(name, experiment, comment string, topo TopologySpec,
	namer func(graph.EdgeID) string, rec []adversary.RecordedInjection, steps int64, mode string) *Spec {
	return &Spec{
		Version:    Version,
		Name:       name,
		Experiment: experiment,
		Comment:    comment,
		Topology:   topo,
		Policy:     PolicySpec{Default: "FIFO"},
		Adversary:  AdversarySpec{Kind: "replay", Replay: replayFromRecording(namer, rec)},
		Seeds:      seedsFromRecording(namer, rec),
		Run:        RunSpec{Steps: steps, Mode: mode},
		Checks:     &ChecksSpec{Conservation: true, MinInjected: 1},
	}
}

// e1Params is the cheap Theorem 3.17 point used by the emitted cycle
// (B3's zoo point): r = 3/4 at depth 6 gives S0 = 192, so one full
// cycle stays affordable in tests and smoke runs.
func e1Params() core.Params { return core.ParamsFor(rational.New(3, 4), 6) }

// emitE1 records one full Theorem 3.17 adversary cycle (bootstrap →
// pumps → drain → stitch) on G_eps and serializes it as an oblivious
// replay (Remark 1).
func emitE1() Emitted {
	rec := adversary.NewScheduleRecorder()
	p := e1Params()
	ins := core.NewInstability(rational.Rat{}, core.InstabilityOptions{
		MarginM:   rational.New(3, 2),
		Params:    &p,
		Observers: []sim.Observer{rec},
	})
	if _, ok := ins.RunCycle(); !ok {
		panic("scenario: emit e1: cycle did not complete within its step cap")
	}
	namer := edgeNamer(ins.Chain.G)
	spec := recordedReplaySpec("e1-theorem317-cycle", "E1",
		"One Theorem 3.17 adversary cycle on G_eps (r = 3/4, n = 6), recorded and replayed obliviously with final routes (Remark 1).",
		TopologySpec{Kind: "chain", N: p.N, M: ins.M, Stitch: true},
		namer, rec.Finish(), ins.Engine.Now(), ModeLeap)
	return Emitted{Spec: spec, Hand: ins.Engine}
}

// emitE2 records the Lemma 3.6 pump at S = S0 (E2's quick sizing),
// including the Lemma 3.3 rerouting, and serializes the final-route
// schedule.
func emitE2() Emitted {
	p := e1Params()
	s := p.S0
	c := gadget.NewChain(p.N, 2, false)
	e := sim.New(c.G, policy.FIFO{}, nil)
	rec := adversary.NewScheduleRecorder()
	e.AddObserver(rec)
	rr := adversary.NewRerouter(p.R)
	e.AddObserver(rr)
	c.SeedInvariant(e, 1, int(s))
	var rep core.PumpReport
	seq := adversary.NewSequence(core.PumpPhase(p, c, 1, rr, &rep))
	e.SetAdversary(seq)
	if !e.RunUntil(func(*sim.Engine) bool { return seq.Finished() }, 8*s) {
		panic("scenario: emit e2: pump did not finish")
	}
	spec := recordedReplaySpec("e2-lemma36-pump", "E2",
		"The Lemma 3.6 gadget pump C(S,F) -> C(S',F') at S = S0 (r = 3/4, n = 6), recorded under the Rerouter and replayed with final routes.",
		TopologySpec{Kind: "chain", N: p.N, M: 2},
		edgeNamer(c.G), rec.Finish(), e.Now(), ModeQuiet)
	return Emitted{Spec: spec, Hand: e}
}

// emitE3 records the Lemma 3.15 bootstrap from a single buffer.
func emitE3() Emitted {
	p := e1Params()
	q2s := 2 * p.S0
	c := gadget.NewChain(p.N, 1, false)
	e := sim.New(c.G, policy.FIFO{}, nil)
	rec := adversary.NewScheduleRecorder()
	e.AddObserver(rec)
	e.SeedN(int(q2s), packet.Injection{Route: []graph.EdgeID{c.Ingress(1)}})
	var rep core.BootstrapReport
	seq := adversary.NewSequence(core.BootstrapPhase(p, c, 1, nil, &rep))
	e.SetAdversary(seq)
	if !e.RunUntil(func(*sim.Engine) bool { return seq.Finished() }, 8*q2s) {
		panic("scenario: emit e3: bootstrap did not finish")
	}
	spec := recordedReplaySpec("e3-lemma315-bootstrap", "E3",
		"The Lemma 3.15 bootstrap: 2S single-edge packets at the ingress become C(S',F), S' >= S(1+eps).",
		TopologySpec{Kind: "chain", N: p.N, M: 1},
		edgeNamer(c.G), rec.Finish(), e.Now(), ModeQuiet)
	return Emitted{Spec: spec, Hand: e}
}

// emitE4 records the Lemma 3.16 stitch at S = 1000.
func emitE4() Emitted {
	p := core.Solve(rational.New(1, 5))
	s := int64(1000)
	c := gadget.NewChain(p.N, 2, true)
	e := sim.New(c.G, policy.FIFO{}, nil)
	rec := adversary.NewScheduleRecorder()
	e.AddObserver(rec)
	e.SeedN(int(s), packet.Injection{Route: []graph.EdgeID{c.Egress(2)}})
	var rep core.StitchReport
	seq := adversary.NewSequence(core.StitchPhase(p, c, &rep))
	e.SetAdversary(seq)
	if !e.RunUntil(func(*sim.Engine) bool { return seq.Finished() }, 8*s) {
		panic("scenario: emit e4: stitch did not finish")
	}
	spec := recordedReplaySpec("e4-lemma316-stitch", "E4",
		"The Lemma 3.16 stitch: S old packets at the chain egress are replaced by r^3*S fresh packets at the next ingress via the stitch edge e0.",
		TopologySpec{Kind: "chain", N: p.N, M: 2, Stitch: true},
		edgeNamer(c.G), rec.Finish(), e.Now(), ModeQuiet)
	return Emitted{Spec: spec, Hand: e}
}

// emitE5 records the M = 2 chain pump with its final drain
// (Lemma 3.13's shortest instance).
func emitE5() Emitted {
	p := e1Params()
	s := 2 * p.S0
	c := gadget.NewChain(p.N, 2, false)
	e := sim.New(c.G, policy.FIFO{}, nil)
	rec := adversary.NewScheduleRecorder()
	e.AddObserver(rec)
	c.SeedInvariant(e, 1, int(s))
	var rep core.PumpReport
	var drain core.DrainReport
	seq := adversary.NewSequence(
		core.PumpPhase(p, c, 1, nil, &rep),
		core.DrainPhase(p, c, &drain),
	)
	e.SetAdversary(seq)
	if !e.RunUntil(func(*sim.Engine) bool { return seq.Finished() }, 512*s) {
		panic("scenario: emit e5: chain pump did not finish")
	}
	spec := recordedReplaySpec("e5-lemma313-chainpump", "E5",
		"The Lemma 3.13 chain pump through M = 2 gadgets followed by the drain to the chain egress.",
		TopologySpec{Kind: "chain", N: p.N, M: 2},
		edgeNamer(c.G), rec.Finish(), e.Now(), ModeQuiet)
	return Emitted{Spec: spec, Hand: e}
}

// emitE7 serializes one cell of the Theorem 4.1 greedy-stability grid
// parametrically (the adversary is a seeded generator, so the spec
// stays tiny and regenerates the identical traffic).
func emitE7() Emitted {
	const d = 2
	w := int64(20 * (d + 1))
	rate := stability.GreedyRateBound(d)
	g := graph.Complete(d + 2)
	adv := adversary.NewRandomWR(g, w, rate, d, int64(17*d)+3)
	e := sim.New(g, policy.FIFO{}, adv)
	steps := int64(2500)
	e.RunQuiet(steps)
	spec := &Spec{
		Version:    Version,
		Name:       "e7-theorem41-greedy",
		Experiment: "E7",
		Comment:    "Theorem 4.1 greedy stability: FIFO on K_4 under random (w, 1/(d+1)) traffic; residence bounded by floor(w*r), window-validated.",
		Topology:   TopologySpec{Kind: "complete", N: d + 2},
		Policy:     PolicySpec{Default: "FIFO"},
		Adversary: AdversarySpec{Kind: "random", Random: &RandomSpec{
			W: w, Rate: rate.String(), MaxLen: d, Seed: int64(17*d) + 3}},
		Run: RunSpec{Steps: steps, Mode: ModeQuiet,
			Observers: []string{ObsWindow},
			Window:    &WindowSpec{W: w, Rate: rate.String()}},
		Checks: &ChecksSpec{
			MinInjected:     1,
			MaxResidence:    stability.ResidenceBound(w, rate),
			WindowCompliant: true,
		},
	}
	return Emitted{Spec: spec, Hand: e}
}

// emitE8 serializes one cell of the Theorem 4.3 time-priority grid:
// LIS at the higher rate 1/d.
func emitE8() Emitted {
	const d = 2
	w := int64(20 * d)
	rate := stability.TimePriorityRateBound(d)
	g := graph.Complete(d + 2)
	adv := adversary.NewRandomWR(g, w, rate, d, int64(29*d)+7)
	e := sim.New(g, policy.LIS{}, adv)
	steps := int64(2500)
	e.RunQuiet(steps)
	spec := &Spec{
		Version:    Version,
		Name:       "e8-theorem43-timepriority",
		Experiment: "E8",
		Comment:    "Theorem 4.3 time-priority stability: LIS on K_4 at the higher rate r = 1/d with residence bounded by floor(w*r).",
		Topology:   TopologySpec{Kind: "complete", N: d + 2},
		Policy:     PolicySpec{Default: "LIS"},
		Adversary: AdversarySpec{Kind: "random", Random: &RandomSpec{
			W: w, Rate: rate.String(), MaxLen: d, Seed: int64(29*d) + 7}},
		Run: RunSpec{Steps: steps, Mode: ModeQuiet},
		Checks: &ChecksSpec{
			MinInjected:  1,
			MaxResidence: stability.ResidenceBound(w, rate),
		},
	}
	return Emitted{Spec: spec, Hand: e}
}

// emitE13 records one near-half pump (E13's eps = 1/4 row) and replays
// it under leap mode.
func emitE13() Emitted {
	p := e1Params()
	s := 4 * p.S0
	c := gadget.NewChain(p.N, 2, false)
	e := sim.New(c.G, policy.FIFO{}, nil)
	rec := adversary.NewScheduleRecorder()
	e.AddObserver(rec)
	c.SeedInvariant(e, 1, int(s))
	var rep core.PumpReport
	seq := adversary.NewSequence(core.PumpPhase(p, c, 1, nil, &rep))
	e.SetAdversary(seq)
	if !e.RunLeapUntil(func(*sim.Engine) bool { return seq.Finished() }, 8*s+64) {
		panic("scenario: emit e13: pump did not finish")
	}
	spec := recordedReplaySpec("e13-nearhalf-pump", "E13",
		"One Lemma 3.6 pump at r = 1/2 + 1/4 and S = 4*S0 (E13's sizing at the affordable depth-6 point): growth persists above one half.",
		TopologySpec{Kind: "chain", N: p.N, M: 2},
		edgeNamer(c.G), rec.Finish(), e.Now(), ModeLeap)
	return Emitted{Spec: spec, Hand: e}
}

// emitE14 serializes one bounded-buffer goodput cell (E14's drop-tail
// point): periodic bursts of b = 6 packets into cap-3 drop-tail
// buffers on a line. Only the first buffer ever overflows — downstream
// edges receive at most one packet per step — so exactly b - cap = 3
// packets drop per burst, the Miller–Patt-Shamir–Rosenbaum loss
// pattern E14 sweeps across capacities.
func emitE14() Emitted {
	g := graph.Line(4)
	const cap, burst, nBursts = 3, int64(6), int64(10)
	bs := adversary.BurstStream{
		Name: "burst", Start: 1, Period: 12, Burst: burst, Budget: nBursts * burst,
		Route: []graph.EdgeID{g.MustEdge("e1"), g.MustEdge("e2"), g.MustEdge("e3")},
	}
	e := sim.NewWithConfig(g, policy.FIFO{}, adversary.NewBurstScript(bs),
		sim.Config{BufferCap: cap, Drop: sim.DropTail{}})
	steps := int64(240)
	e.Run(steps)
	spec := &Spec{
		Version:    Version,
		Name:       "e14-bounded-droptail",
		Experiment: "E14",
		Comment:    "Bounded buffers (Miller, Patt-Shamir, Rosenbaum 2019): periodic 6-packet bursts into cap-3 drop-tail buffers on a line drop exactly burst - cap = 3 packets per burst, all at the first edge.",
		Topology:   TopologySpec{Kind: "line", N: 4},
		Policy:     PolicySpec{Default: "FIFO"},
		Adversary: AdversarySpec{Kind: "burst", Bursts: []BurstSpec{{
			Name: "burst", Start: 1, Period: 12, Burst: burst, Budget: nBursts * burst,
			Route: []string{"e1", "e2", "e3"}}}},
		Buffer: &BufferSpec{Cap: cap, Drop: "tail"},
		Run:    RunSpec{Steps: steps, Mode: ModeStep},
		Checks: &ChecksSpec{Conservation: true, MinInjected: 1, Drained: true,
			MaxDropped: nBursts * (burst - cap)},
	}
	return Emitted{Spec: spec, Hand: e}
}

// emitB2 serializes the NTG starvation ladder (B2's r = 3/5 NTG cell)
// declaratively: cross-traffic script plus the aged convoy as seeds.
func emitB2() Emitted {
	const l, k = 6, 100
	rate := rational.New(3, 5)
	steps := int64(1000)
	sc := baselines.LadderScenario{L: l, K: k, CrossRate: rate, Steps: steps}
	e := sc.Build(policy.NTG{})
	e.Run(steps)

	streams := make([]StreamSpec, l)
	railRoute := make([]string, l)
	for i := 1; i <= l; i++ {
		railRoute[i-1] = fmt.Sprintf("rail%d", i)
		streams[i-1] = StreamSpec{
			Name:  fmt.Sprintf("cross%d", i),
			Start: 1, Rate: rate.String(), Budget: -1,
			Route: []string{fmt.Sprintf("cross%d", i), fmt.Sprintf("rail%d", i)},
			Tag:   "cross",
		}
	}
	spec := &Spec{
		Version:    Version,
		Name:       "b2-ntg-starvation",
		Experiment: "B2",
		Comment:    "The NTG starvation ladder (mechanism of Borodin et al.): continuous crossing traffic at r = 3/5 starves an aged convoy of 100 long-route packets.",
		Topology:   TopologySpec{Kind: "ladder", N: l},
		Policy:     PolicySpec{Default: "NTG"},
		Adversary:  AdversarySpec{Kind: "script", Streams: streams},
		Seeds:      []SeedSpec{{Route: railRoute, N: k, Tag: "convoy"}},
		Run:        RunSpec{Steps: steps, Mode: ModeStep},
		Checks:     &ChecksSpec{Conservation: true, MinInjected: 1},
	}
	return Emitted{Spec: spec, Hand: e}
}

// emitH1 serializes the heterogeneous pump (H1's defused row)
// declaratively: the frozen Lemma 3.6 script plus a per-edge policy
// map switching the target gadget's e'-path to LIS.
func emitH1() Emitted {
	p := e1Params()
	s := p.S0
	c, e := expt.HeteroPumpEngine(p, s, true)
	namer := edgeNamer(c.G)
	seeds := seedsFromEngine(namer, e)
	steps := 2*s + int64(p.N)
	e.RunQuiet(steps)

	edges := make(map[string]string, p.N)
	for _, eid := range c.EPath(2) {
		edges[namer(eid)] = "LIS"
	}
	streams := make([]StreamSpec, 0, p.N+2)
	for i := 1; i <= p.N; i++ {
		streams = append(streams, StreamSpec{
			Name:  fmt.Sprintf("short%d", i),
			Start: int64(i), Rate: p.R.String(),
			Budget: p.R.FloorMulInt(p.Ti(s, i) + 1),
			Route:  []string{namer(c.EPath(2)[i-1])},
		})
	}
	long := append(append([]graph.EdgeID{}, c.LongRoute(1)...), c.FPath(2)...)
	long = append(long, c.Egress(2))
	streams = append(streams, StreamSpec{
		Name: "long", Start: 1, Rate: p.R.String(),
		Budget: p.R.FloorMulInt(s), Route: routeRefs(namer, long),
	})
	tail := append([]graph.EdgeID{c.Ingress(2)}, c.FPath(2)...)
	tail = append(tail, c.Egress(2))
	streams = append(streams, StreamSpec{
		Name: "tail", Start: s + int64(p.N) + 1, Rate: p.R.String(),
		Budget: p.X(s), Route: routeRefs(namer, tail),
	})
	spec := &Spec{
		Version:    Version,
		Name:       "h1-hetero-defused",
		Experiment: "H1",
		Comment:    "The frozen Lemma 3.6 pump with the target gadget's e'-path switched to LIS: a single heterogeneous pipeline defuses the FIFO instability ([15] direction).",
		Topology:   TopologySpec{Kind: "chain", N: p.N, M: 2},
		Policy:     PolicySpec{Default: "FIFO", Edges: edges},
		Adversary:  AdversarySpec{Kind: "script", Streams: streams},
		Seeds:      seeds,
		Run:        RunSpec{Steps: steps, Mode: ModeQuiet},
		Checks:     &ChecksSpec{Conservation: true, MinInjected: 1},
	}
	return Emitted{Spec: spec, Hand: e}
}

// emitU1 serializes one universal-stability cell: LIS on ring(8) under
// heavy random (w, 9/10) traffic, run under leap mode.
func emitU1() Emitted {
	g := graph.Ring(8)
	w := int64(40)
	rate := rational.New(9, 10)
	adv := adversary.NewRandomWR(g, w, rate, 3, 97)
	e := sim.New(g, policy.LIS{}, adv)
	steps := int64(5000)
	e.RunLeap(steps)
	spec := &Spec{
		Version:    Version,
		Name:       "u1-universal-lis",
		Experiment: "U1",
		Comment:    "Universal stability smoke: LIS on ring(8) stays bounded under random (w, 9/10) traffic — far above the 1/2 + eps at which FIFO diverges on G_eps.",
		Topology:   TopologySpec{Kind: "ring", N: 8},
		Policy:     PolicySpec{Default: "LIS"},
		Adversary: AdversarySpec{Kind: "random", Random: &RandomSpec{
			W: w, Rate: rate.String(), MaxLen: 3, Seed: 97}},
		Run: RunSpec{Steps: steps, Mode: ModeLeap,
			Observers: []string{ObsRecorder}},
		Checks: &ChecksSpec{Conservation: true, MinInjected: 1},
	}
	return Emitted{Spec: spec, Hand: e}
}

// emitQuickstart is the hand-authored tour spec: a two-phase sequence
// (periodic bursts, then paced streams) on a ring, exercising the
// sequence compiler end to end. The hand engine mirrors exactly what
// the compiler builds.
func emitQuickstart() Emitted {
	g := graph.Ring(6)
	burst := adversary.BurstStream{
		Name: "warmup", Start: 5, Period: 20, Burst: 3, Budget: 30,
		Route: []graph.EdgeID{g.MustEdge("e1"), g.MustEdge("e2"), g.MustEdge("e3")},
		Tag:   "burst",
	}
	stream := adversary.Stream{
		Name: "paced", Start: 201, Rate: rational.New(2, 5), Budget: 120,
		Route: []graph.EdgeID{g.MustEdge("e4"), g.MustEdge("e5"), g.MustEdge("e6")},
		Tag:   "paced",
	}
	h1, h2 := int64(199), int64(599)
	seq := adversary.NewSequence(
		adversary.Phase{
			Name:  "warmup",
			Enter: func(*sim.Engine) sim.Adversary { return adversary.NewBurstScript(burst) },
			Done:  func(e *sim.Engine) bool { return e.Now() >= 200 },
			Until: &h1,
		},
		adversary.Phase{
			Name:  "paced",
			Enter: func(*sim.Engine) sim.Adversary { return adversary.NewScript(stream) },
			Done:  func(e *sim.Engine) bool { return e.Now() >= 600 },
			Until: &h2,
		},
	)
	e := sim.New(g, policy.FIFO{}, seq)
	steps := int64(600)
	e.RunLeap(steps)
	spec := &Spec{
		Version:  Version,
		Name:     "quickstart-two-phase",
		Comment:  "Hand-authored tour of the spec format: a two-phase sequence (periodic bursts, then a paced stream) on ring(6), leap mode, recorder and latency observers.",
		Topology: TopologySpec{Kind: "ring", N: 6},
		Policy:   PolicySpec{Default: "FIFO"},
		Adversary: AdversarySpec{Kind: "sequence", Phases: []PhaseSpec{
			{Name: "warmup", Until: 200, Adversary: AdversarySpec{Kind: "burst", Bursts: []BurstSpec{{
				Name: "warmup", Start: 5, Period: 20, Burst: 3, Budget: 30,
				Route: []string{"e1", "e2", "e3"}, Tag: "burst"}}}},
			{Name: "paced", Until: 600, Adversary: AdversarySpec{Kind: "script", Streams: []StreamSpec{{
				Name: "paced", Start: 201, Rate: "2/5", Budget: 120,
				Route: []string{"e4", "e5", "e6"}, Tag: "paced"}}}},
		}},
		Run: RunSpec{Steps: steps, Mode: ModeLeap,
			Observers: []string{ObsRecorder, ObsLatency}},
		Checks: &ChecksSpec{Conservation: true, MinInjected: 1},
	}
	return Emitted{Spec: spec, Hand: e}
}

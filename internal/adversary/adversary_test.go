package adversary

import (
	"errors"
	"testing"
	"testing/quick"

	"aqt/internal/graph"
	"aqt/internal/obs"
	"aqt/internal/packet"
	"aqt/internal/rational"
	"aqt/internal/sim"
)

func rt(g *graph.Graph, names ...string) []graph.EdgeID {
	r := make([]graph.EdgeID, len(names))
	for i, n := range names {
		r[i] = g.MustEdge(n)
	}
	return r
}

func TestStreamPacing(t *testing.T) {
	g := graph.Line(1)
	s := NewScript(Stream{
		Name:   "s",
		Start:  1,
		Rate:   rational.New(1, 2),
		Budget: 5,
		Route:  rt(g, "e1"),
	})
	e := sim.New(g, fifo(), s)
	e.Run(20)
	if e.Injected() != 5 {
		t.Errorf("injected %d, want 5", e.Injected())
	}
	if !s.Idle() {
		t.Error("script should be idle after budget exhausted")
	}
}

func TestStreamStartDelay(t *testing.T) {
	g := graph.Line(1)
	s := NewScript(Stream{
		Start:  5,
		Rate:   rational.FromInt(1),
		Budget: 3,
		Route:  rt(g, "e1"),
	})
	e := sim.New(g, fifo(), s)
	e.Run(4)
	if e.Injected() != 0 {
		t.Fatal("stream injected before its start")
	}
	e.Run(3)
	if e.Injected() != 3 {
		t.Errorf("injected %d, want 3", e.Injected())
	}
}

func TestStreamRouteFn(t *testing.T) {
	g := graph.Line(2)
	short := rt(g, "e1")
	long := rt(g, "e1", "e2")
	s := NewScript(Stream{
		Start:  1,
		Rate:   rational.FromInt(1),
		Budget: 4,
		RouteFn: func(k int64) []graph.EdgeID {
			if k < 2 {
				return short
			}
			return long
		},
	})
	var routes []int
	e := sim.New(g, fifo(), s)
	fr := obs.NewFlightRecorder(64)
	e.AddEventObserver(fr)
	e.Run(6)
	for _, ev := range fr.Events() {
		if ev.Kind == obs.EvInject {
			routes = append(routes, ev.Hops)
		}
	}
	want := []int{1, 1, 2, 2}
	if len(routes) != 4 {
		t.Fatalf("routes = %v", routes)
	}
	for i := range want {
		if routes[i] != want[i] {
			t.Errorf("packet %d route length %d, want %d", i, routes[i], want[i])
		}
	}
}

func TestStreamValidation(t *testing.T) {
	g := graph.Line(1)
	for name, st := range map[string]Stream{
		"both route specs": {Rate: rational.FromInt(1), Route: rt(g, "e1"),
			RouteFn: func(int64) []graph.EdgeID { return nil }},
		"no route":  {Rate: rational.FromInt(1)},
		"zero rate": {Rate: rational.FromInt(0), Route: rt(g, "e1")},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			NewScript(st)
		}()
	}
}

func TestUnboundedBudget(t *testing.T) {
	g := graph.Line(1)
	s := NewScript(Stream{Start: 1, Rate: rational.New(1, 3), Budget: -1, Route: rt(g, "e1")})
	e := sim.New(g, fifo(), s)
	e.Run(99)
	if e.Injected() != 33 {
		t.Errorf("injected %d, want 33", e.Injected())
	}
	if s.Idle() {
		t.Error("unbounded stream must not go idle")
	}
	if s.PendingBudget() <= 0 {
		t.Error("pending budget should be large")
	}
}

func TestSequencePhases(t *testing.T) {
	g := graph.Line(1)
	mk := func(budget int64) func(e *sim.Engine) sim.Adversary {
		return func(e *sim.Engine) sim.Adversary {
			return NewScript(Stream{
				Start: e.Now(), Rate: rational.FromInt(1), Budget: budget, Route: rt(g, "e1"),
			})
		}
	}
	var entered []int
	seq := NewSequence(
		Phase{Name: "p0", Enter: mk(2), Done: func(e *sim.Engine) bool { return e.Injected() >= 2 }},
		Phase{Name: "p1", Enter: mk(3), Done: func(e *sim.Engine) bool { return e.Injected() >= 5 }},
	)
	seq.OnPhaseChange(func(idx int, e *sim.Engine) { entered = append(entered, idx) })
	e := sim.New(g, fifo(), seq)
	e.Run(10)
	if !seq.Finished() {
		t.Fatalf("sequence not finished: %s", seq)
	}
	if e.Injected() != 5 {
		t.Errorf("injected %d, want 5", e.Injected())
	}
	if len(entered) != 2 || entered[0] != 0 || entered[1] != 1 {
		t.Errorf("entered = %v", entered)
	}
	if seq.PhaseName() != "done" {
		t.Errorf("PhaseName = %q", seq.PhaseName())
	}
}

func TestRateValidatorCompliantStream(t *testing.T) {
	g := graph.Line(1)
	rate := rational.New(3, 5)
	s := NewScript(Stream{Start: 1, Rate: rate, Budget: 200, Route: rt(g, "e1")})
	rv := NewRateValidator(rate)
	e := sim.New(g, fifo(), s)
	e.AddObserver(rv)
	e.Run(400)
	if err := rv.Check(); err != nil {
		t.Errorf("compliant stream flagged: %v", err)
	}
	if got := len(rv.EdgeInjections(g.MustEdge("e1"))); got != 200 {
		t.Errorf("recorded %d injections", got)
	}
}

func TestRateValidatorCatchesBurst(t *testing.T) {
	g := graph.Line(1)
	// Two packets in one step at rate 1/2: ceil(0.5*1) = 1 < 2.
	s := NewScript(Stream{Start: 1, Rate: rational.FromInt(2), Budget: 2, Route: rt(g, "e1")})
	rv := NewRateValidator(rational.New(1, 2))
	e := sim.New(g, fifo(), s)
	e.AddObserver(rv)
	e.Run(3)
	if err := rv.Check(); err == nil {
		t.Error("burst not flagged")
	} else if _, ok := err.(Violation); !ok {
		t.Errorf("error type %T", err)
	}
}

func TestRateValidatorIgnoresSeeds(t *testing.T) {
	g := graph.Line(1)
	rv := NewRateValidator(rational.New(1, 2))
	e := sim.New(g, fifo(), nil)
	e.AddObserver(rv)
	e.SeedN(100, packet.Inj(rt(g, "e1")...))
	e.Run(5)
	if err := rv.Check(); err != nil {
		t.Errorf("seeds must not count: %v", err)
	}
}

func TestRateValidatorChargesReroutes(t *testing.T) {
	// Edges added by a reroute are charged at the packet's injection
	// time. Saturate e2 at exactly rate 1, then reroute a packet
	// injected mid-interval onto e2: interval [1,10] now holds 11
	// packets against a bound of 10.
	g := graph.Line(2)
	e1, e2 := g.MustEdge("e1"), g.MustEdge("e2")
	rv := NewRateValidator(rational.FromInt(1))
	for tm := int64(1); tm <= 10; tm++ {
		rv.OnInject(tm, routedPkt([]graph.EdgeID{e2}, 0, tm))
	}
	if err := rv.Check(); err != nil {
		t.Fatalf("precondition: %v", err)
	}
	p := routedPkt([]graph.EdgeID{e1, e2}, 0, 5)
	rv.OnReroute(8, p, []graph.EdgeID{e1})
	if err := rv.Check(); err == nil {
		t.Error("reroute overload not flagged")
	} else if v := err.(Violation); v.Edge != e2 || v.Count != v.Bound+1 {
		t.Errorf("violation = %+v", v)
	}
}

func TestWindowValidator(t *testing.T) {
	g := graph.Line(1)
	rate := rational.New(1, 2)
	s := NewScript(Stream{Start: 1, Rate: rate, Budget: 50, Route: rt(g, "e1")})
	wv := NewWindowValidator(10, rate)
	e := sim.New(g, fifo(), s)
	e.AddObserver(wv)
	e.Run(120)
	if wv.Bound() != 5 {
		t.Errorf("Bound = %d, want 5", wv.Bound())
	}
	if err := wv.Check(); err != nil {
		t.Errorf("compliant stream flagged: %v", err)
	}
}

func TestWindowValidatorCatchesViolation(t *testing.T) {
	g := graph.Line(1)
	s := NewScript(Stream{Start: 1, Rate: rational.FromInt(1), Budget: 6, Route: rt(g, "e1")})
	wv := NewWindowValidator(10, rational.New(1, 2))
	e := sim.New(g, fifo(), s)
	e.AddObserver(wv)
	e.Run(10)
	if err := wv.Check(); err == nil {
		t.Error("violation not flagged")
	}
}

func TestWindowValidatorPanicsOnBadW(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("w=0 did not panic")
		}
	}()
	NewWindowValidator(0, rational.New(1, 2))
}

func TestCheckBudgetMatchesCheckOnSmallRuns(t *testing.T) {
	g := graph.Line(1)
	rate := rational.New(2, 5)
	s := NewScript(Stream{Start: 1, Rate: rate, Budget: 60, Route: rt(g, "e1")})
	rv := NewRateValidator(rate)
	e := sim.New(g, fifo(), s)
	e.AddObserver(rv)
	e.Run(200)
	errA := rv.Check()
	errB := rv.CheckBudget(10, 50) // force the anchored path
	if (errA == nil) != (errB == nil) {
		t.Errorf("Check = %v, CheckBudget = %v", errA, errB)
	}
}

func TestSharedEdge(t *testing.T) {
	g := graph.Line(3)
	p1 := routedPkt(rt(g, "e1", "e2", "e3"), 0, 0)
	p2 := routedPkt(rt(g, "e2", "e3"), 0, 0)
	e, ok := SharedEdge([]*packet.Packet{p1, p2})
	if !ok || e != g.MustEdge("e2") {
		t.Errorf("SharedEdge = (%d,%v)", e, ok)
	}
	p3 := routedPkt(rt(g, "e1"), 0, 0)
	p4 := routedPkt(rt(g, "e3"), 0, 0)
	if _, ok := SharedEdge([]*packet.Packet{p3, p4}); ok {
		t.Error("disjoint routes reported a shared edge")
	}
	if _, ok := SharedEdge(nil); ok {
		t.Error("empty set reported a shared edge")
	}
}

func TestRerouterNewEdges(t *testing.T) {
	g := graph.Line(3)
	rate := rational.New(3, 5)
	rr := NewRerouter(rate)
	s := NewScript(Stream{Start: 1, Rate: rate, Budget: 4, Route: rt(g, "e1")})
	e := sim.New(g, fifo(), s)
	e.AddObserver(rr)
	// Seeds keep e1 backlogged so the population is nonempty (IsNew is
	// relative to the packets currently in the network).
	e.SeedN(10, packet.Inj(rt(g, "e1")...))
	e.Run(6)
	// e2, e3 untouched by injections: new. e1 is used recently: not new.
	if !rr.IsNew(e, g.MustEdge("e2")) || !rr.IsNew(e, g.MustEdge("e3")) {
		t.Error("unused edges should be new")
	}
	if rr.IsNew(e, g.MustEdge("e1")) {
		t.Error("recently used edge must not be new")
	}
}

func TestExtendBatch(t *testing.T) {
	g := graph.Line(3)
	rate := rational.New(3, 5)
	rr := NewRerouter(rate)
	s := NewScript(Stream{Start: 1, Rate: rate, Budget: 3, Route: rt(g, "e1")})
	e := sim.New(g, fifo(), s)
	e.AddObserver(rr)
	e.Run(2)
	var pkts []*packet.Packet
	e.ForEachQueued(func(_ graph.EdgeID, p *packet.Packet) { pkts = append(pkts, p) })
	if len(pkts) == 0 {
		t.Fatal("no queued packets")
	}
	err := rr.ExtendBatch(e, pkts, func(p *packet.Packet) []graph.EdgeID {
		return rt(g, "e2", "e3")
	})
	if err != nil {
		t.Fatalf("ExtendBatch: %v", err)
	}
	for _, p := range pkts {
		if p.RemainingHops() != 3 {
			t.Errorf("packet not extended: %v", p)
		}
	}
	// A second extension back onto e2 must fail (e2 now not new).
	err = rr.ExtendBatch(e, pkts, func(p *packet.Packet) []graph.EdgeID {
		return rt(g, "e2")
	})
	if err == nil {
		t.Error("extension onto non-new edge should fail")
	}
}

func TestExtendBatchRejectsNonHistoric(t *testing.T) {
	g := graph.Line(2)
	rr := NewRerouter(rational.New(1, 2))
	e := sim.New(g, ftg(), nil)
	e.AddObserver(rr)
	p := e.Seed(packet.Inj(g.MustEdge("e1")))
	err := rr.ExtendBatch(e, []*packet.Packet{p}, func(*packet.Packet) []graph.EdgeID {
		return rt(g, "e2")
	})
	if err == nil {
		t.Error("FTG is not historic; ExtendBatch must refuse")
	}
}

func TestWStar(t *testing.T) {
	// S=10, w=5, r=1/4, r*=1/2: w* = ceil(16/(1/4)) = 64.
	got := WStar(10, 5, rational.New(1, 4), rational.New(1, 2))
	if got != 64 {
		t.Errorf("WStar = %d, want 64", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("WStar with r* <= r did not panic")
		}
	}()
	WStar(10, 5, rational.New(1, 2), rational.New(1, 2))
}

func TestMaxEdgeRequirement(t *testing.T) {
	g := graph.Line(3)
	seeds := []packet.Injection{
		packet.Inj(rt(g, "e1", "e2")...),
		packet.Inj(rt(g, "e2", "e3")...),
		packet.Inj(rt(g, "e2")...),
	}
	if got := MaxEdgeRequirement(seeds); got != 3 {
		t.Errorf("MaxEdgeRequirement = %d, want 3", got)
	}
	if MaxEdgeRequirement(nil) != 0 {
		t.Error("empty seeds should give 0")
	}
}

func TestObservation44Equivalence(t *testing.T) {
	// The transformed adversary must reproduce the same multiset of
	// routes, one step later, plus the seeds at step 1.
	g := graph.Line(2)
	streams := []Stream{{Start: 1, Rate: rational.New(1, 2), Budget: 4, Route: rt(g, "e1", "e2")}}
	seeds := []packet.Injection{packet.Inj(rt(g, "e2")...), packet.Inj(rt(g, "e2")...)}

	transformed := Observation44(streams, seeds)
	e := sim.New(g, fifo(), transformed)
	fr := obs.NewFlightRecorder(256)
	e.AddEventObserver(fr)
	e.Run(15)
	if e.Injected() != 6 {
		t.Fatalf("injected %d, want 6", e.Injected())
	}
	var evs []obs.Event
	for _, ev := range fr.Events() {
		if ev.Kind == obs.EvInject {
			evs = append(evs, ev)
		}
	}
	seedCount := 0
	for _, ev := range evs {
		if ev.T == 1 && ev.Hops == 1 {
			seedCount++
		}
	}
	if seedCount != 2 {
		t.Errorf("seed burst at t=1: %d, want 2", seedCount)
	}
	// Original stream injects at steps where floor(t/2) increments:
	// 2,4,6,8. Shifted: 3,5,7,9.
	var streamTimes []int64
	for _, ev := range evs {
		if ev.Hops == 2 {
			streamTimes = append(streamTimes, ev.T)
		}
	}
	want := []int64{3, 5, 7, 9}
	if len(streamTimes) != 4 {
		t.Fatalf("stream times = %v", streamTimes)
	}
	for i := range want {
		if streamTimes[i] != want[i] {
			t.Errorf("stream time[%d] = %d, want %d", i, streamTimes[i], want[i])
		}
	}
}

func TestObservation44WindowCompliance(t *testing.T) {
	// The transformed execution must pass a (w*, r*) window check.
	g := graph.Line(2)
	r := rational.New(1, 4)
	w := int64(8)
	streams := []Stream{{Start: 1, Rate: r, Budget: 30, Route: rt(g, "e1", "e2")}}
	seeds := []packet.Injection{packet.Inj(rt(g, "e1")...), packet.Inj(rt(g, "e1")...)}

	rStar := rational.New(1, 2)
	wStar := WStar(MaxEdgeRequirement(seeds), w, r, rStar)
	wv := NewWindowValidator(wStar, rStar)

	transformed := Observation44(streams, seeds)
	e := sim.New(g, fifo(), transformed)
	e.AddObserver(wv)
	e.Run(200)
	if err := wv.Check(); err != nil {
		t.Errorf("(w*,r*) compliance failed: %v", err)
	}
}

func TestRandomWRCompliance(t *testing.T) {
	g := graph.Complete(4)
	w := int64(12)
	rate := rational.New(1, 3)
	gen := NewRandomWR(g, w, rate, 3, 7)
	wv := NewWindowValidator(w, rate)
	e := sim.New(g, fifo(), gen)
	e.AddObserver(wv)
	e.Run(500)
	if e.Injected() == 0 {
		t.Fatal("generator injected nothing")
	}
	if err := wv.Check(); err != nil {
		t.Errorf("RandomWR violated its own constraint: %v", err)
	}
}

// injLog records every injection's time and route for an independent
// recount of the rate constraints.
type injLog struct{ times [][]int64 } // by edge ID

func (l *injLog) OnStep(*sim.Engine) {}

func (l *injLog) OnInject(t int64, p *packet.Packet) {
	for _, e := range p.Route() {
		for int(e) >= len(l.times) {
			l.times = append(l.times, nil)
		}
		l.times[e] = append(l.times[e], t)
	}
}

// TestValidatorVerdictDeterministic: a RandomWR run validated at half
// its rate breaks the constraint on several edges; every check reports
// the same violation on every call, on the lowest violating edge.
func TestValidatorVerdictDeterministic(t *testing.T) {
	g := graph.Complete(4)
	w, half := int64(12), rational.New(1, 4)
	e := sim.New(g, fifo(), NewRandomWR(g, w, rational.New(1, 2), 3, 7))
	wv, rv, log := NewWindowValidator(w, half), NewRateValidator(half), &injLog{}
	e.AddObserver(wv)
	e.AddObserver(rv)
	e.AddObserver(log)
	e.Run(300)
	// Lowest edge with w consecutive steps holding more than
	// floor(r·w) of its packets, and with any interval holding more
	// than ceil(r·|I|), by brute force over the logged times.
	winEdge, rateEdge, winEdges := -1, -1, 0
	for id, ts := range log.times {
		winBad, rateBad := false, false
		for i := range ts {
			for j := i; j < len(ts); j++ {
				n := int64(j - i + 1)
				winBad = winBad || ts[j]-ts[i] < w && n > half.FloorMulInt(w)
				rateBad = rateBad || n > half.CeilMulInt(ts[j]-ts[i]+1)
			}
		}
		if winBad {
			winEdges++
		}
		if winBad && winEdge < 0 {
			winEdge = id
		}
		if rateBad && rateEdge < 0 {
			rateEdge = id
		}
	}
	if winEdges < 2 {
		t.Fatalf("%d edges violate the window bound, want >= 2 for the test to bite", winEdges)
	}
	for _, c := range []struct {
		name  string
		check func() error
		edge  int
	}{
		{"WindowValidator.Check", wv.Check, winEdge},
		{"RateValidator.Check", rv.Check, rateEdge},
		{"RateValidator.CheckBudget", func() error { return rv.CheckBudget(8, 64) }, rateEdge},
	} {
		first := c.check()
		var v Violation
		if !errors.As(first, &v) || int(v.Edge) != c.edge {
			t.Fatalf("%s = %v, want a violation on edge %d", c.name, first, c.edge)
		}
		for i := 0; i < 50; i++ {
			if err := c.check(); err.Error() != first.Error() {
				t.Fatalf("%s: call %d reports %q, first call %q", c.name, i, err, first)
			}
		}
	}
}

func TestRandomWRDeterminism(t *testing.T) {
	g := graph.Complete(3)
	run := func() int64 {
		gen := NewRandomWR(g, 10, rational.New(1, 2), 2, 99)
		e := sim.New(g, fifo(), gen)
		e.Run(200)
		return e.Injected()
	}
	if run() != run() {
		t.Error("same seed produced different executions")
	}
}

func TestRandomWRZeroBound(t *testing.T) {
	g := graph.Complete(3)
	// floor(r*w) = floor(0.05*10) = 0: nothing may be injected.
	gen := NewRandomWR(g, 10, rational.New(1, 20), 2, 1)
	e := sim.New(g, fifo(), gen)
	e.Run(100)
	if e.Injected() != 0 {
		t.Errorf("injected %d with zero window bound", e.Injected())
	}
}

// Property: RandomWR with arbitrary parameters always passes its own
// window validator.
func TestQuickRandomWRAlwaysCompliant(t *testing.T) {
	f := func(seed int64, wRaw, num, den uint8, maxLen uint8) bool {
		w := int64(wRaw%20) + 1
		n := int64(num%10) + 1
		d := n + int64(den%10) // rate <= 1
		rate := rational.New(n, d)
		g := graph.Complete(4)
		gen := NewRandomWR(g, w, rate, int(maxLen%3)+1, seed)
		wv := NewWindowValidator(w, rate)
		e := sim.New(g, fifo(), gen)
		e.AddObserver(wv)
		e.Run(150)
		return wv.Check() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

package sim

import (
	"strings"
	"testing"
	"testing/quick"

	"aqt/internal/graph"
	"aqt/internal/packet"
	"aqt/internal/policy"
)

// onceInjector injects the given injections at a specific step.
type onceInjector struct {
	at   int64
	injs []packet.Injection
}

func (o *onceInjector) PreStep(*Engine) {}

func (o *onceInjector) Inject(e *Engine) []packet.Injection {
	if e.Now() == o.at {
		return o.injs
	}
	return nil
}

func route(g *graph.Graph, names ...string) []graph.EdgeID {
	r := make([]graph.EdgeID, len(names))
	for i, n := range names {
		r[i] = g.MustEdge(n)
	}
	return r
}

func TestSinglePacketTraversesLine(t *testing.T) {
	g := graph.Line(3)
	e := New(g, policy.FIFO{}, nil)
	e.Seed(packet.Inj(route(g, "e1", "e2", "e3")...))
	if e.TotalQueued() != 1 {
		t.Fatal("seed not queued")
	}
	// Packet seeded at time 0 crosses e1 at step 1, e2 at 2, e3 at 3.
	e.Step()
	if e.QueueLen(g.MustEdge("e1")) != 0 || e.QueueLen(g.MustEdge("e2")) != 1 {
		t.Fatal("packet did not advance to e2 after step 1")
	}
	e.Step()
	if e.QueueLen(g.MustEdge("e3")) != 1 {
		t.Fatal("packet did not advance to e3 after step 2")
	}
	e.Step()
	if e.TotalQueued() != 0 || e.Absorbed() != 1 {
		t.Fatalf("packet not absorbed: %s", e.Snap())
	}
	e.CheckConservation()
}

func TestOnePacketPerEdgePerStep(t *testing.T) {
	g := graph.Line(1)
	e := New(g, policy.FIFO{}, nil)
	e.SeedN(5, packet.Inj(route(g, "e1")...))
	for i := 1; i <= 5; i++ {
		e.Step()
		if got := e.Absorbed(); got != int64(i) {
			t.Fatalf("after %d steps absorbed %d", i, got)
		}
	}
}

func TestInjectionTiming(t *testing.T) {
	// A packet injected in the second substep of step 3 must not move
	// during step 3; it crosses its first edge at step 4.
	g := graph.Line(2)
	e := New(g, policy.FIFO{}, &onceInjector{at: 3, injs: []packet.Injection{
		packet.Inj(route(g, "e1", "e2")...),
	}})
	e.Run(3)
	if e.QueueLen(g.MustEdge("e1")) != 1 {
		t.Fatal("packet should sit at e1 at end of step 3")
	}
	e.Step() // step 4
	if e.QueueLen(g.MustEdge("e2")) != 1 {
		t.Fatal("packet should be at e2 after step 4")
	}
}

func TestFIFOOrderPreserved(t *testing.T) {
	g := graph.Line(2)
	e := New(g, policy.FIFO{}, nil)
	for i := 0; i < 4; i++ {
		e.Seed(packet.TaggedInj(string(rune('a'+i)), route(g, "e1", "e2")...))
	}
	var order []string
	for e.TotalQueued() > 0 {
		e.Step()
		q := e.Queue(g.MustEdge("e2"))
		if q.Len() > 0 {
			order = append(order, q.Back().Tag())
		}
	}
	if strings.Join(order, "") != "abcd" {
		t.Errorf("FIFO emission order = %v", order)
	}
}

func TestArrivalTieBreakTransitBeforeInjection(t *testing.T) {
	// Two packets arrive at edge "m" in the same step: one in transit
	// from upstream, one injected. The transit packet must enqueue
	// first (documented order), so FIFO sends it first.
	g := graph.New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	g.AddEdge(a, b, "up")
	g.AddEdge(b, c, "m")
	adv := &onceInjector{at: 1, injs: []packet.Injection{
		packet.TaggedInj("injected", g.MustEdge("m")),
	}}
	e := New(g, policy.FIFO{}, adv)
	e.Seed(packet.TaggedInj("transit", route(g, "up", "m")...))
	e.Step() // transit crosses "up" and arrives at m; injection also lands at m
	q := e.Queue(g.MustEdge("m"))
	if q.Len() != 2 {
		t.Fatalf("queue at m = %d", q.Len())
	}
	if q.At(0).Tag() != "transit" || q.At(1).Tag() != "injected" {
		t.Errorf("tie-break order = [%s %s], want [transit injected]", q.At(0).Tag(), q.At(1).Tag())
	}
}

func TestTransitTieBreakByUpstreamEdgeID(t *testing.T) {
	// Two upstream edges feed one downstream edge; simultaneous
	// arrivals enqueue in increasing upstream edge ID order.
	g := graph.New()
	s1 := g.AddNode("s1")
	s2 := g.AddNode("s2")
	m := g.AddNode("m")
	d := g.AddNode("d")
	up1 := g.AddEdge(s1, m, "up1") // lower edge ID
	up2 := g.AddEdge(s2, m, "up2")
	g.AddEdge(m, d, "down")
	_ = up1
	_ = up2
	e := New(g, policy.FIFO{}, nil)
	// Seed up2's packet first: even so, up1's packet must enqueue first.
	e.Seed(packet.TaggedInj("fromUp2", route(g, "up2", "down")...))
	e.Seed(packet.TaggedInj("fromUp1", route(g, "up1", "down")...))
	e.Step()
	q := e.Queue(g.MustEdge("down"))
	if q.Len() != 2 {
		t.Fatalf("queue at down = %d", q.Len())
	}
	if q.At(0).Tag() != "fromUp1" || q.At(1).Tag() != "fromUp2" {
		t.Errorf("order = [%s %s], want [fromUp1 fromUp2]", q.At(0).Tag(), q.At(1).Tag())
	}
}

func TestSeedAfterStartPanics(t *testing.T) {
	g := graph.Line(1)
	e := New(g, policy.FIFO{}, nil)
	e.Step()
	defer func() {
		if recover() == nil {
			t.Error("Seed after Step did not panic")
		}
	}()
	e.Seed(packet.Inj(route(g, "e1")...))
}

func TestNonSimpleRoutePanics(t *testing.T) {
	g := graph.Ring(3)
	e := New(g, policy.FIFO{}, nil)
	defer func() {
		if recover() == nil {
			t.Error("cyclic route did not panic")
		}
	}()
	e.Seed(packet.Inj(route(g, "e1", "e2", "e3")...)) // revisits v0
}

func TestSkipRouteCheckAllowsWalks(t *testing.T) {
	g := graph.Ring(3)
	e := NewWithConfig(g, policy.FIFO{}, nil, Config{SkipRouteCheck: true})
	e.Seed(packet.Inj(route(g, "e1", "e2", "e3")...))
	e.Run(3)
	if e.Absorbed() != 1 {
		t.Error("walk route should complete under SkipRouteCheck")
	}
}

func TestExtendRoute(t *testing.T) {
	g := graph.Line(4)
	e := New(g, policy.FIFO{}, nil)
	p := e.Seed(packet.Inj(route(g, "e1", "e2")...))
	e.ExtendRoute(p, route(g, "e3", "e4"))
	if p.RemainingHops() != 4 {
		t.Fatalf("RemainingHops = %d after extension", p.RemainingHops())
	}
	if p.Reroutes != 1 {
		t.Error("Reroutes not counted")
	}
	e.Run(4)
	if e.Absorbed() != 1 {
		t.Error("extended packet not absorbed at new destination")
	}
}

func TestReplaceRouteSuffix(t *testing.T) {
	g := graph.TwoParallelPaths(2, 2) // p1_1,p1_2 and p2_1,p2_2
	e := New(g, policy.FIFO{}, nil)
	p := e.Seed(packet.Inj(route(g, "p1_1", "p1_2")...))
	e.Step() // crosses p1_1, now sits at p1_2... wait, p1_1 leads to t via p1_2
	// After step 1, p is at buffer of p1_2 (Pos=1). Replace nothing
	// after current edge (suffix empty): destination stays the head of
	// p1_2.
	e.ReplaceRouteSuffix(p, nil)
	if p.RemainingHops() != 1 {
		t.Fatalf("RemainingHops = %d", p.RemainingHops())
	}
	e.Step()
	if e.Absorbed() != 1 {
		t.Error("packet not absorbed after suffix truncation")
	}
}

func TestReplaceRouteSuffixContiguityPanics(t *testing.T) {
	g := graph.TwoParallelPaths(2, 2)
	e := New(g, policy.FIFO{}, nil)
	p := e.Seed(packet.Inj(route(g, "p1_1", "p1_2")...))
	defer func() {
		if recover() == nil {
			t.Error("discontiguous reroute did not panic")
		}
	}()
	// p2_2 does not start where p1_1 ends.
	e.ReplaceRouteSuffix(p, route(g, "p2_2"))
}

func TestMaxResidence(t *testing.T) {
	g := graph.Line(1)
	e := New(g, policy.FIFO{}, nil)
	e.SeedN(3, packet.Inj(route(g, "e1")...))
	e.Run(2)
	// Third packet has waited 2 steps and is still queued.
	if got := e.MaxResidence(false); got != 2 {
		t.Errorf("completed MaxResidence = %d, want 2", got)
	}
	if got := e.MaxResidence(true); got != 2 {
		t.Errorf("waiting-inclusive MaxResidence = %d, want 2", got)
	}
	e.Run(1)
	if got := e.MaxResidence(false); got != 3 {
		t.Errorf("after drain MaxResidence = %d, want 3", got)
	}
}

func TestMaxQueueLenAndSnapshot(t *testing.T) {
	g := graph.Line(2)
	e := New(g, policy.FIFO{}, nil)
	eid, l := e.MaxQueueLen()
	if eid != graph.NoEdge || l != 0 {
		t.Error("empty network MaxQueueLen wrong")
	}
	e.SeedN(4, packet.Inj(route(g, "e1", "e2")...))
	eid, l = e.MaxQueueLen()
	if eid != g.MustEdge("e1") || l != 4 {
		t.Errorf("MaxQueueLen = (%d,%d)", eid, l)
	}
	snap := e.Snap()
	if snap.TotalQueued != 4 || snap.MaxQueueLen != 4 {
		t.Errorf("snapshot %+v", snap)
	}
	if !strings.Contains(snap.String(), "queued=4") {
		t.Errorf("snapshot string %q", snap.String())
	}
}

func TestRunUntil(t *testing.T) {
	g := graph.Line(1)
	e := New(g, policy.FIFO{}, nil)
	e.SeedN(10, packet.Inj(route(g, "e1")...))
	ok := e.RunUntil(func(e *Engine) bool { return e.TotalQueued() == 0 }, 100)
	if !ok || e.Now() != 10 {
		t.Errorf("RunUntil fired=%v at t=%d, want t=10", ok, e.Now())
	}
	ok = e.RunUntil(func(e *Engine) bool { return false }, 5)
	if ok {
		t.Error("RunUntil should report false on timeout")
	}
}

func TestGreedyInvariant(t *testing.T) {
	// As long as any buffer is nonempty, every step must move at least
	// one packet (greediness). Use LIFO on a contended line.
	g := graph.Line(3)
	e := New(g, policy.LIFO{}, nil)
	for i := 0; i < 6; i++ {
		e.Seed(packet.Inj(route(g, "e1", "e2", "e3")...))
	}
	prevProgress := e.Absorbed()
	for e.TotalQueued() > 0 {
		before := e.Snap()
		e.Step()
		after := e.Snap()
		moved := after.Absorbed > before.Absorbed ||
			after.TotalQueued < before.TotalQueued ||
			after.Injected > before.Injected
		_ = moved
		// Progress in a drain scenario: absorbed strictly grows at
		// least every 3 steps (pipeline depth).
		if e.Now()%3 == 0 {
			if e.Absorbed() == prevProgress && e.TotalQueued() > 0 {
				t.Fatalf("no progress by step %d", e.Now())
			}
			prevProgress = e.Absorbed()
		}
		if e.Now() > 100 {
			t.Fatal("drain did not terminate")
		}
	}
}

func TestSetAdversaryMidRun(t *testing.T) {
	g := graph.Line(1)
	e := New(g, policy.FIFO{}, nil)
	e.Run(2)
	e.SetAdversary(&onceInjector{at: 3, injs: []packet.Injection{packet.Inj(route(g, "e1")...)}})
	e.Step()
	if e.Injected() != 1 {
		t.Error("swapped adversary did not inject")
	}
	e.SetAdversary(nil)
	e.Step() // must not panic with nil → Nop
}

// Property: under any of the deterministic policies and random seed
// batches on a line, conservation holds and all packets are eventually
// absorbed.
func TestQuickConservationAndDrain(t *testing.T) {
	f := func(nPkts, lineLen, polIdx uint8) bool {
		n := int(nPkts%20) + 1
		l := int(lineLen%5) + 1
		pols := policy.All()
		pol := pols[int(polIdx)%len(pols)]
		g := graph.Line(l)
		e := New(g, pol, nil)
		full := make([]graph.EdgeID, l)
		for i := range full {
			full[i] = graph.EdgeID(i)
		}
		for i := 0; i < n; i++ {
			e.Seed(packet.Inj(full...))
		}
		e.Run(int64(n*l + l + 1))
		e.CheckConservation()
		return e.Absorbed() == int64(n) && e.TotalQueued() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: total throughput of one edge is at most one packet per step.
func TestQuickUnitCapacity(t *testing.T) {
	f := func(nPkts uint8, steps uint8) bool {
		n := int(nPkts%50) + 1
		g := graph.Line(1)
		e := New(g, policy.FIFO{}, nil)
		e.SeedN(n, packet.Inj(graph.EdgeID(0)))
		s := int64(steps%60) + 1
		e.Run(s)
		want := int64(n)
		if s < want {
			want = s
		}
		return e.Absorbed() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEngineAccessors(t *testing.T) {
	g := graph.Line(1)
	adv := NopAdversary{}
	e := New(g, policy.FIFO{}, adv)
	if e.Graph() != g {
		t.Error("Graph accessor")
	}
	if e.Policy().Name() != "FIFO" {
		t.Error("Policy accessor")
	}
	if e.Adversary() != Adversary(adv) {
		t.Error("Adversary accessor")
	}
}

func TestForEachQueuedOrder(t *testing.T) {
	g := graph.Line(2)
	e := New(g, policy.FIFO{}, nil)
	a := e.Seed(packet.InjNamed(g, "e1"))
	b := e.Seed(packet.InjNamed(g, "e2"))
	c := e.Seed(packet.InjNamed(g, "e1"))
	var order []packet.ID
	e.ForEachQueued(func(eid graph.EdgeID, p *packet.Packet) {
		order = append(order, p.ID)
	})
	// Edge ID order, then enqueue order within an edge.
	want := []packet.ID{a.ID, c.ID, b.ID}
	if len(order) != 3 {
		t.Fatalf("visited %d", len(order))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Errorf("order[%d] = %d, want %d", i, order[i], want[i])
		}
	}
}

func TestNilGraphOrPolicyPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"nil graph":  func() { New(nil, policy.FIFO{}, nil) },
		"nil policy": func() { New(graph.Line(1), nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestInjectFuncAdapter(t *testing.T) {
	g := graph.Line(1)
	count := 0
	adv := InjectFunc(func(e *Engine) []packet.Injection {
		count++
		if e.Now() == 1 {
			return []packet.Injection{packet.InjNamed(g, "e1")}
		}
		return nil
	})
	adv.PreStep(nil) // no-op must not panic
	e := New(g, policy.FIFO{}, adv)
	e.Run(3)
	if count != 3 || e.Injected() != 1 {
		t.Errorf("count=%d injected=%d", count, e.Injected())
	}
}

// Allocation regression gates for the engine hot path. These assert
// the steady-state regimes the benchmarks track — the pure seeded FIFO
// drain, sustained random (w,r) load, injection on long routes and
// Lemma 3.3 route extension — run at 0 allocs/op, so later changes cannot
// silently reintroduce per-step allocations.
// AllocsPerRun divides total allocations by runs (integer division),
// so the amortized arena/ring chunk allocations measure as 0.
package sim_test

import (
	"testing"

	"aqt/internal/adversary"
	"aqt/internal/gadget"
	"aqt/internal/graph"
	"aqt/internal/obs"
	"aqt/internal/packet"
	"aqt/internal/policy"
	"aqt/internal/rational"
	"aqt/internal/sim"
)

func TestStepAllocsSeededFIFODrain(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	g := graph.Line(8)
	route := []graph.EdgeID{g.MustEdge("e1"), g.MustEdge("e2"), g.MustEdge("e3")}
	e := sim.New(g, policy.FIFO{}, nil)
	e.SeedN(1<<12, packet.Inj(route...))
	e.RunQuiet(64)
	if avg := testing.AllocsPerRun(256, func() { e.Step() }); avg != 0 {
		t.Errorf("seeded FIFO drain: %v allocs per Step, want 0", avg)
	}
}

func TestStepAllocsRandomWR(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	g := graph.Line(32)
	adv := adversary.NewRandomWR(g, 24, rational.New(1, 3), 4, 7)
	e := sim.New(g, policy.FIFO{}, adv)
	// Warm up into steady state: arenas, rings and the active set reach
	// their recycled capacities.
	e.RunQuiet(512)
	if avg := testing.AllocsPerRun(512, func() { e.Step() }); avg != 0 {
		t.Errorf("random (w,r) load: %v allocs per Step, want 0", avg)
	}
}

// TestStepAllocsRecorded pins the observation path itself: a stride-32
// obs.Sampler on random (w,r) load must not add per-step allocations
// (series appends amortize below one alloc per step).
func TestStepAllocsRecorded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	g := graph.Line(32)
	adv := adversary.NewRandomWR(g, 24, rational.New(1, 3), 4, 7)
	e := sim.New(g, policy.FIFO{}, adv)
	obs.NewSampler(obs.SamplerConfig{Every: 32}).Attach(e)
	e.Run(512)
	if avg := testing.AllocsPerRun(512, func() { e.Step() }); avg != 0 {
		t.Errorf("recorded random (w,r) load: %v allocs per Step, want 0", avg)
	}
}

// longChain is the depth-10 G_ε gadget chain the Theorem 3.17 pumps
// run on. Its LongRoute(1) has 12 edges: long enough that a route
// check keeping a per-call node set would spill it to the heap, which
// the short routes of the gates above never do.
func longChain() (*gadget.Chain, []graph.EdgeID) {
	c := gadget.NewChain(10, 2, false)
	return c, c.LongRoute(1)
}

// TestStepAllocsLongRoute gates injection on long routes: a rate-1
// script injecting on the 12-edge LongRoute every step must admit each
// packet (route check plus arena copy) without allocating.
func TestStepAllocsLongRoute(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	c, route := longChain()
	adv := adversary.NewScript(adversary.Stream{
		Name: "long", Start: 1, Rate: rational.FromInt(1), Budget: -1, Route: route,
	})
	e := sim.New(c.G, policy.FIFO{}, adv)
	e.RunQuiet(512)
	if avg := testing.AllocsPerRun(512, func() { e.Step() }); avg != 0 {
		t.Errorf("12-edge injection: %v allocs per Step, want 0", avg)
	}
}

// TestExtendRouteAllocs gates the Lemma 3.3 reroute primitive: cutting
// a queued packet back to its current edge and extending it again
// builds each new route once, in the route arena.
func TestExtendRouteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	c, route := longChain()
	e := sim.New(c.G, policy.FIFO{}, nil)
	p := e.Seed(packet.Inj(route...))
	if avg := testing.AllocsPerRun(512, func() {
		e.ReplaceRouteSuffix(p, nil)
		e.ExtendRoute(p, route[1:])
	}); avg != 0 {
		t.Errorf("ExtendRoute on a 12-edge route: %v allocs per reroute pair, want 0", avg)
	}
}

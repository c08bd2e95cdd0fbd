// Allocation regression gates for the engine hot path. These assert
// the steady-state regimes the benchmarks track — the pure seeded FIFO
// drain, sustained random (w,r) load, injection on long routes and
// Lemma 3.3 route extension — run at 0 allocs/op, so later changes cannot
// silently reintroduce per-step allocations.
// AllocsPerRun divides total allocations by runs (integer division),
// so the amortized arena/ring chunk allocations measure as 0.
package sim_test

import (
	"runtime"
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

// TestBalancedRunAllocatesZeroBytes gates bytes, not just the rounded
// allocs/op: on a balanced Line/FIFO run (every edge loaded at rate 1,
// so the backlog stays constant) absorbed packets' slots and the
// interned injection routes are reused, and 10⁵ steps after warm-up
// allocate nothing at all. The byte count is process-wide, and the
// runtime now and then allocates into it on its own, as memory
// profiles of failing windows show: starting an OS thread for an idle
// P when ReadMemStats or a GC cycle restarts the world (runtime.allocm,
// 5.5 KB), or the unique package's cleanup after a GC cycle (16 to 48
// bytes). So a window that reads bytes is followed by another, up to
// three, and the least counts: an engine that allocates as it steps
// fails every one.
func TestBalancedRunAllocatesZeroBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	g := graph.Line(8)
	injs := []packet.Injection{
		packet.InjNamed(g, "e1", "e2", "e3"),
		packet.InjNamed(g, "e4", "e5", "e6", "e7", "e8"),
	}
	e := sim.New(g, policy.FIFO{}, sim.InjectFunc(func(*sim.Engine) []packet.Injection { return injs }))
	e.RunQuiet(1000)
	bytes := uint64(1 << 63)
	for w := 0; w < 3 && bytes != 0; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e.RunQuiet(100_000)
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	if bytes != 0 {
		t.Errorf("balanced Line/FIFO run: %d bytes allocated over 10⁵ steps, want 0", bytes)
	}
	if e.TotalQueued() > 8 {
		t.Errorf("backlog %d: the run is not balanced", e.TotalQueued())
	}
}

// TestNewEngineAllocs pins what constructing an engine costs: the
// short-lived per-probe engines of stability searches and sweeps pay
// it once each. An unbounded Line(30)/FIFO engine takes 4 allocations
// and 2464 bytes; leap-observer and bounded-mode state must not add to
// that when unused. Bytes are the minimum over a few batches, since a
// runtime background allocation can land inside one.
func TestNewEngineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	const wantAllocs, wantBytes = 4, 2464
	g := graph.Line(30)
	build := func() { sim.New(g, policy.FIFO{}, nil) }
	if avg := testing.AllocsPerRun(100, build); avg != wantAllocs {
		t.Errorf("sim.New: %v allocs, want %d", avg, wantAllocs)
	}
	const runs = 1000
	bytes := uint64(1 << 63)
	for trial := 0; trial < 5; trial++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			build()
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/runs)
	}
	if bytes != wantBytes {
		t.Errorf("sim.New: %d bytes, want %d", bytes, wantBytes)
	}
}

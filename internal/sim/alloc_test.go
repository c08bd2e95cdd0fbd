// Allocation regression gates for the engine hot path. These assert
// the two steady-state regimes the benchmarks track — the pure seeded
// FIFO drain and sustained random (w,r) load — run at 0 allocs/op, so
// future PRs cannot silently reintroduce per-step allocations.
// AllocsPerRun divides total allocations by runs (integer division),
// so the amortized arena/ring chunk allocations measure as 0.
package sim_test

import (
	"testing"

	"aqt/internal/adversary"
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

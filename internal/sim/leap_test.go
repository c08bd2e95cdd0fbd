// Differential tests for leap mode: RunLeap must be the same execution
// as Run — bit-identical Snapshot (modulo Stats.Nanos), identical
// per-edge queues, residence and Sampler output — while actually
// leaping on the workloads it exists for. This file is the equivalence
// gate named in the leap.go package doc.
package sim_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"aqt/internal/adversary"
	"aqt/internal/graph"
	"aqt/internal/obs"
	"aqt/internal/packet"
	"aqt/internal/policy"
	"aqt/internal/rational"
	"aqt/internal/sim"
)

// leapScenario is one workload of the equivalence matrix. build must
// return a fresh engine with a fresh adversary on every call (leap and
// step runs must not share pacing state). minWindows pins that the
// leap run actually leaps (a regression to pure stepping would still
// pass equivalence).
type leapScenario struct {
	name       string
	steps      int64
	minWindows int64
	build      func(pol policy.Policy) *sim.Engine
}

func leapScenarios() []leapScenario {
	return []leapScenario{
		{
			// Seeded single-edge packets, no adversary: the pure drain
			// regime — nonFinal == 0 from step one, then an idle tail.
			name: "seeded-final-drain", steps: 400, minWindows: 2,
			build: func(pol policy.Policy) *sim.Engine {
				g := graph.Line(8)
				e := sim.New(g, pol, nil)
				e.SeedN(100, packet.Inj(g.MustEdge("e1")))
				return e
			},
		},
		{
			// Seeded transit packets: the engine must step while packets
			// traverse e1..e3 (nonFinal > 0), then leap the drain and the
			// idle tail.
			name: "seeded-transit", steps: 400, minWindows: 1,
			build: func(pol policy.Policy) *sim.Engine {
				g := graph.Line(8)
				e := sim.New(g, pol, nil)
				e.SeedN(60, packet.Inj(g.MustEdge("e1"), g.MustEdge("e2"), g.MustEdge("e3")))
				return e
			},
		},
		{
			// Periodic single-edge bursts: each period is one stepped
			// burst step, a leaped drain window and a leaped idle window.
			name: "burst-final", steps: 1000, minWindows: 10,
			build: func(pol policy.Policy) *sim.Engine {
				g := graph.Line(8)
				adv := adversary.NewBurstScript(adversary.BurstStream{
					Name: "burst", Start: 1, Period: 64, Burst: 24, Budget: -1,
					Route: []graph.EdgeID{g.MustEdge("e1")},
				})
				return sim.New(g, pol, adv)
			},
		},
		{
			// Two staggered multi-edge burst streams with finite budgets:
			// transit stretches (stepped), drains, and a Forever idle tail
			// once both budgets exhaust.
			name: "burst-multi", steps: 1200, minWindows: 3,
			build: func(pol policy.Policy) *sim.Engine {
				g := graph.Line(12)
				adv := adversary.NewBurstScript(
					adversary.BurstStream{
						Name: "a", Start: 5, Period: 96, Burst: 30, Budget: 120,
						Route: []graph.EdgeID{g.MustEdge("e2"), g.MustEdge("e3"), g.MustEdge("e4")},
					},
					adversary.BurstStream{
						Name: "b", Start: 41, Period: 112, Burst: 20, Budget: 80,
						Route: []graph.EdgeID{g.MustEdge("e7"), g.MustEdge("e8")},
					},
				)
				return sim.New(g, pol, adv)
			},
		},
		{
			// A paced Script stream with a late start: idle leap up to
			// Start-1, stepped while the pacer is live (a started stream
			// pins the horizon into the past), leaped again after its
			// budget exhausts.
			name: "script-delayed", steps: 700, minWindows: 2,
			build: func(pol policy.Policy) *sim.Engine {
				g := graph.Line(8)
				adv := adversary.NewScript(adversary.Stream{
					Name: "late", Start: 300, Rate: rational.New(1, 2), Budget: 40,
					Route: []graph.EdgeID{g.MustEdge("e1"), g.MustEdge("e2")},
				})
				return sim.New(g, pol, adv)
			},
		},
	}
}

// requireSameExecution compares every piece of externally observable
// engine state the equivalence contract covers.
func requireSameExecution(t *testing.T, leap, step *sim.Engine) {
	t.Helper()
	// adversary.SameExecution is the shared equivalence gate (snapshot
	// modulo Nanos, residence, per-edge queues packet by packet); the
	// scenario differential matrix reuses the same comparator.
	if err := adversary.SameExecution(leap, step); err != nil {
		t.Errorf("RunLeap vs Run: %v", err)
	}
	le, ll := leap.MaxQueueLen()
	se, sm := step.MaxQueueLen()
	if le != se || ll != sm {
		t.Errorf("MaxQueueLen: RunLeap (%d,%d) != Run (%d,%d)", le, ll, se, sm)
	}
}

// TestLeapEquivalence runs every scenario three ways — RunLeap, Run,
// and a manual Step loop — for FIFO, LIS and NTG, requiring identical
// executions and a minimum number of actually-leaped windows.
func TestLeapEquivalence(t *testing.T) {
	for _, sc := range leapScenarios() {
		for _, pol := range []policy.Policy{policy.FIFO{}, policy.LIS{}, policy.NTG{}} {
			t.Run(sc.name+"/"+pol.Name(), func(t *testing.T) {
				leap, step, manual := sc.build(pol), sc.build(pol), sc.build(pol)
				leap.RunLeap(sc.steps)
				step.Run(sc.steps)
				for i := int64(0); i < sc.steps; i++ {
					manual.Step()
				}
				requireSameExecution(t, leap, step)
				requireSameExecution(t, manual, step)
				ls := leap.Leaps()
				if ls.Windows < sc.minWindows {
					t.Errorf("leaped %d windows, want >= %d (steps covered: %d)",
						ls.Windows, sc.minWindows, ls.Steps)
				}
				if ls.Steps == 0 {
					t.Error("RunLeap never leaped on a workload built to leap")
				}
				if ls.Idle+ls.Drain != ls.Windows {
					t.Errorf("leap kind counters %+v do not sum to Windows", ls)
				}
				if step.Leaps() != (sim.LeapStats{}) {
					t.Errorf("Run accumulated leap stats %+v", step.Leaps())
				}
			})
		}
	}
}

// TestLeapRandomDifferential is the randomized harness: random line and
// ring topologies, random burst scripts (random starts, periods, burst
// sizes, budgets and route lengths) crossed with all three policy
// families, leaped vs stepped. Runs under -race via `make race`.
func TestLeapRandomDifferential(t *testing.T) {
	pols := []policy.Policy{policy.FIFO{}, policy.LIS{}, policy.NTG{}}
	for seed := int64(1); seed <= 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			var g *graph.Graph
			n := 4 + rng.Intn(12)
			if rng.Intn(2) == 0 {
				g = graph.Line(n)
			} else {
				g = graph.Ring(n)
			}
			// Draw the stream specs once; each engine gets its own
			// BurstScript over the same specs (pacing state is per
			// instance, so the two runs see the same schedule).
			streams := make([]adversary.BurstStream, 1+rng.Intn(3))
			for i := range streams {
				first := rng.Intn(g.NumEdges())
				routeLen := 1 + rng.Intn(3)
				route := []graph.EdgeID{graph.EdgeID(first)}
				for len(route) < routeLen {
					outs := g.Out(g.Edge(route[len(route)-1]).To)
					if len(outs) == 0 {
						break
					}
					route = append(route, outs[rng.Intn(len(outs))])
				}
				streams[i] = adversary.BurstStream{
					Name:   fmt.Sprintf("s%d", i),
					Start:  1 + int64(rng.Intn(200)),
					Period: 16 + int64(rng.Intn(240)),
					Burst:  1 + int64(rng.Intn(40)),
					Budget: []int64{-1, 20 + int64(rng.Intn(200))}[rng.Intn(2)],
					Route:  route,
				}
			}
			pol := pols[rng.Intn(len(pols))]
			steps := int64(500 + rng.Intn(1500))
			leap := sim.New(g, pol, adversary.NewBurstScript(streams...))
			step := sim.New(g, pol, adversary.NewBurstScript(streams...))
			leap.RunLeap(steps)
			step.Run(steps)
			requireSameExecution(t, leap, step)
		})
	}
}

// TestLeapRecorderEquivalence attaches an obs.Sampler (the leap-aware
// time-series recorder) to both runs: the sampled series, the exact
// peak and the effective stride must be identical whether the windows
// were stepped or reconstructed in closed form by Sampler.OnLeap.
// MaxSamples 64 forces downsampling inside leaped stretches too.
func TestLeapRecorderEquivalence(t *testing.T) {
	for _, stride := range []int64{1, 7} {
		for _, sc := range leapScenarios() {
			t.Run(fmt.Sprintf("%s/stride=%d", sc.name, stride), func(t *testing.T) {
				leap, step := sc.build(policy.FIFO{}), sc.build(policy.FIFO{})
				cfg := obs.SamplerConfig{Every: stride, MaxSamples: 64}
				ls, ss := obs.NewSampler(cfg), obs.NewSampler(cfg)
				ls.Attach(leap)
				ss.Attach(step)
				leap.RunLeap(sc.steps)
				step.Run(sc.steps)
				requireSameExecution(t, leap, step)
				if leap.Leaps().Windows == 0 {
					t.Error("Sampler acceptance should not prevent leaping")
				}
				if ls.PeakTotal() != ss.PeakTotal() {
					t.Errorf("PeakTotal: leap %d != step %d", ls.PeakTotal(), ss.PeakTotal())
				}
				if lst, sst := ls.CheckpointState(), ss.CheckpointState(); !reflect.DeepEqual(lst, sst) {
					t.Fatalf("sampler state: leap %+v != step %+v", lst, sst)
				}
			})
		}
	}
}

// leapLogger accepts every window and records the OnLeap callbacks,
// checking the documented pre-mutation contract: at OnLeap time the
// engine clock still reads info.From.
type leapLogger struct {
	t     *testing.T
	infos []sim.LeapInfo
}

func (l *leapLogger) OnStep(*sim.Engine)           {}
func (l *leapLogger) AcceptLeap(sim.LeapKind) bool { return true }
func (l *leapLogger) OnLeap(e *sim.Engine, info sim.LeapInfo) {
	if e.Now() != info.From {
		l.t.Errorf("OnLeap fired post-mutation: Now()=%d, info.From=%d", e.Now(), info.From)
	}
	if info.To <= info.From {
		l.t.Errorf("empty leap window %+v", info)
	}
	l.infos = append(l.infos, info)
}

// TestLeapObserverCallbacks pins the OnLeap contract: one call per
// window, fired before mutation, windows and stepped OnStep dispatches
// jointly covering the whole horizon exactly once.
func TestLeapObserverCallbacks(t *testing.T) {
	sc := leapScenarios()[2]
	e := sc.build(policy.FIFO{})
	lg := &leapLogger{t: t}
	e.AddObserver(lg)
	e.RunLeap(sc.steps)
	ls := e.Leaps()
	if int64(len(lg.infos)) != ls.Windows {
		t.Fatalf("OnLeap fired %d times for %d windows", len(lg.infos), ls.Windows)
	}
	var covered int64
	for i, info := range lg.infos {
		covered += info.Steps()
		if i > 0 && info.From < lg.infos[i-1].To {
			t.Errorf("windows overlap: %+v then %+v", lg.infos[i-1], info)
		}
	}
	if covered != ls.Steps {
		t.Errorf("windows cover %d steps, LeapStats says %d", covered, ls.Steps)
	}
	if covered+(e.Now()-covered) != sc.steps {
		t.Errorf("coverage accounting broken: covered %d, now %d, horizon %d",
			covered, e.Now(), sc.steps)
	}
}

// TestLeapVetoedByPlainObserver: an OnStep observer that does not
// implement LeapObserver must force a fully stepped execution.
func TestLeapVetoedByPlainObserver(t *testing.T) {
	sc := leapScenarios()[0]
	e := sc.build(policy.FIFO{})
	rec := &stepRecorder{}
	e.AddObserver(rec)
	e.RunLeap(sc.steps)
	if ls := e.Leaps(); ls.Windows != 0 {
		t.Errorf("leaped %d windows past a non-leap observer", ls.Windows)
	}
	if int64(len(rec.times)) != sc.steps {
		t.Errorf("observer saw %d steps, want %d", len(rec.times), sc.steps)
	}
}

// TestRunLeapUntilEquivalence checks RunLeapUntil against RunUntil for
// the two leap-safe predicate families: emptiness (drain windows are
// clamped to end exactly at TotalQueued() == 0) and absorption
// thresholds reached at window boundaries.
func TestRunLeapUntilEquivalence(t *testing.T) {
	mk := func() *sim.Engine {
		g := graph.Line(8)
		adv := adversary.NewBurstScript(adversary.BurstStream{
			Name: "burst", Start: 1, Period: 64, Burst: 24, Budget: 96,
			Route: []graph.EdgeID{g.MustEdge("e1")},
		})
		return sim.New(g, policy.FIFO{}, adv)
	}
	pred := func(e *sim.Engine) bool { return e.Injected() == 96 && e.TotalQueued() == 0 }
	leap, step := mk(), mk()
	lf := leap.RunLeapUntil(pred, 4000)
	sf := step.RunUntil(pred, 4000)
	if lf != sf {
		t.Fatalf("fired: leap %v, step %v", lf, sf)
	}
	if leap.Now() != step.Now() {
		t.Fatalf("stop time: leap %d != step %d", leap.Now(), step.Now())
	}
	requireSameExecution(t, leap, step)
	if leap.Leaps().Windows == 0 {
		t.Error("RunLeapUntil never leaped")
	}

	// Entry semantics: an already-true predicate costs zero steps.
	e := mk()
	if !e.RunLeapUntil(func(*sim.Engine) bool { return true }, 100) {
		t.Error("RunLeapUntil did not fire on an entry-true predicate")
	}
	if e.Now() != 0 {
		t.Errorf("entry-true predicate consumed %d steps", e.Now())
	}

	// Budget exhaustion mirrors RunUntil.
	e2 := mk()
	if e2.RunLeapUntil(func(*sim.Engine) bool { return false }, 123) {
		t.Error("RunLeapUntil fired with an always-false predicate")
	}
	if e2.Now() != 123 {
		t.Errorf("RunLeapUntil took %d steps, want 123", e2.Now())
	}
}

// TestRunUntilEntryPredicate is the boundary-semantics regression test:
// RunUntil with a predicate that is already true at entry must return
// true without executing a step — with and without observers.
func TestRunUntilEntryPredicate(t *testing.T) {
	g := graph.Line(4)
	mk := func() *sim.Engine {
		return sim.New(g, policy.FIFO{}, adversary.NewRandomWR(g, 8, rational.New(1, 2), 3, 3))
	}
	for _, observed := range []bool{false, true} {
		t.Run(fmt.Sprintf("observed=%v", observed), func(t *testing.T) {
			e := mk()
			if observed {
				e.AddObserver(&stepRecorder{})
			}
			if !e.RunUntil(func(*sim.Engine) bool { return true }, 50) {
				t.Error("RunUntil did not fire on an entry-true predicate")
			}
			if e.Now() != 0 {
				t.Errorf("entry-true predicate consumed %d steps", e.Now())
			}
			// A predicate over state reached mid-run still stops as before.
			e2 := mk()
			fired := e2.RunUntil(func(e *sim.Engine) bool { return e.Now() >= 7 }, 50)
			if !fired || e2.Now() != 7 {
				t.Errorf("mid-run predicate: fired=%v at t=%d, want true at 7", fired, e2.Now())
			}
			// Re-invoking with the now-true predicate is free.
			if !e2.RunUntil(func(e *sim.Engine) bool { return e.Now() >= 7 }, 50) || e2.Now() != 7 {
				t.Errorf("re-invoked RunUntil moved the clock to %d", e2.Now())
			}
		})
	}
}

// TestRunLeapZeroAndNegative pins the degenerate horizons.
func TestRunLeapZeroAndNegative(t *testing.T) {
	g := graph.Line(4)
	e := sim.New(g, policy.FIFO{}, nil)
	e.RunLeap(0)
	e.RunLeap(-5)
	if e.Now() != 0 {
		t.Errorf("degenerate RunLeap moved the clock to %d", e.Now())
	}
}

// TestRunLeapE13Coverage pins the long-horizon regime RunLeap exists
// for (the BenchmarkRunLeapE13 shape): after one depth-12 pump, the
// drain-out and idle tail of a 2^25-step horizon are leaped, so at
// most 0.1% of the horizon is stepped one step at a time. A leap
// window that stops being accepted shows here as lost coverage, on
// any host.
func TestRunLeapE13Coverage(t *testing.T) {
	e := newE13Pump()
	e.RunLeap(e13Horizon)
	if got := e.Now(); got != e13Horizon {
		t.Fatalf("clock %d after RunLeap(%d)", got, e13Horizon)
	}
	lp := e.Leaps()
	if lp.Steps*1000 < e13Horizon*999 {
		t.Errorf("leaped %d of %d steps (%.4f), want >= 99.9%% (windows %+v)",
			lp.Steps, e13Horizon, float64(lp.Steps)/e13Horizon, lp)
	}
}

// Engine microbenchmarks. BenchmarkStep crosses the three policy
// shapes the engine special-cases (FIFO = ring-deque pop-front, LIS =
// keyed heap fast path, NTG = keyed on remaining hops) with the three
// topology regimes of the paper (Line, Ring, G_ε), all under sustained
// random (w,r) traffic; the other Step* benchmarks vary one knob of
// that workload (an observer, rerouting, a seeded drain, a buffer cap,
// leap mode). RunLeapE13 and the Checkpoint pair measure whole runs
// and segment boundaries rather than single steps. Run with
//
//	go test -run '^$' -bench . -benchmem ./internal/sim
//
// and compare two revisions on one host with `make bench-diff
// BASE=<rev>` (tools/ab.sh, workload micro).
package sim_test

import (
	"fmt"
	"testing"

	"aqt/internal/adversary"
	"aqt/internal/core"
	"aqt/internal/gadget"
	"aqt/internal/graph"
	"aqt/internal/obs"
	"aqt/internal/packet"
	"aqt/internal/policy"
	"aqt/internal/rational"
	"aqt/internal/sim"
)

// benchTopo names a topology generator; G_ε is the cyclic instability
// graph of Theorem 3.17 (three gadgets of path length 3, stitched).
type benchTopo struct {
	name   string
	build  func() *graph.Graph
	maxLen int
}

func benchTopos() []benchTopo {
	return []benchTopo{
		{"Line32", func() *graph.Graph { return graph.Line(32) }, 4},
		{"Ring16", func() *graph.Graph { return graph.Ring(16) }, 4},
		{"Geps", func() *graph.Graph { return gadget.NewChain(3, 3, true).G }, 5},
	}
}

func benchPolicies() []policy.Policy {
	return []policy.Policy{policy.FIFO{}, policy.LIS{}, policy.NTG{}}
}

// BenchmarkStep measures ns and allocations per engine step under
// steady random (w,r) load, per (topology, policy) pair.
func BenchmarkStep(b *testing.B) {
	for _, tp := range benchTopos() {
		for _, pol := range benchPolicies() {
			b.Run(fmt.Sprintf("%s/%s", tp.name, pol.Name()), func(b *testing.B) {
				g := tp.build()
				adv := adversary.NewRandomWR(g, 24, rational.New(1, 3), tp.maxLen, 7)
				e := sim.New(g, pol, adv)
				// Warm up so steady-state buffers exist before timing.
				e.Run(256)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.Step()
				}
				b.ReportMetric(float64(e.TotalQueued()), "backlog")
			})
		}
	}
}

// BenchmarkStepRecorded measures the observation path the stability
// experiments and threshold searches drive: Step with a stride-1
// obs.Sampler attached (peak tracking every step), against the same
// engine unobserved. Before the incremental max-queue counter the
// recorded variant scaled per-step cost with edge count (an O(E)
// MaxQueueLen scan each step); the Line256 pair pins that the
// recorded/quiet gap no longer grows with E.
func BenchmarkStepRecorded(b *testing.B) {
	for _, n := range []int{32, 256} {
		for _, recorded := range []bool{false, true} {
			mode := "quiet"
			if recorded {
				mode = "stride1"
			}
			b.Run(fmt.Sprintf("Line%d/FIFO/%s", n, mode), func(b *testing.B) {
				g := graph.Line(n)
				adv := adversary.NewRandomWR(g, 24, rational.New(1, 3), 4, 7)
				e := sim.New(g, policy.FIFO{}, adv)
				if recorded {
					obs.NewSampler(obs.SamplerConfig{Every: 1}).Attach(e)
				}
				e.Run(256)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.Step()
				}
			})
		}
	}
}

// rerouteChurn is a Lemma 3.3-shaped adversary: every step it reroutes
// `touch` packets of the gadget's ingress buffer, alternating between
// truncating the route after the current edge and restoring the full
// long route. Each key-changing reroute used to force an O(S) heap
// rebuild; under the tombstone scheme it is an O(log S) push.
type rerouteChurn struct {
	full  []graph.EdgeID
	tick  int
	touch int
}

func (c *rerouteChurn) PreStep(e *sim.Engine) {
	q := e.Queue(c.full[0])
	n := q.Len()
	if n == 0 {
		return
	}
	for i := 0; i < c.touch; i++ {
		c.tick++
		p := q.At(c.tick * 37 % n)
		if c.tick%2 == 0 {
			e.ReplaceRouteSuffix(p, nil)
		} else {
			e.ReplaceRouteSuffix(p, c.full[1:])
		}
	}
}

func (*rerouteChurn) Inject(*sim.Engine) []packet.Injection { return nil }

// BenchmarkStepReroute measures Step under sustained Lemma 3.3
// rerouting: S long-route packets at a gadget-chain ingress under a
// to-go policy, with 8 route replacements per step. This is the
// workload where the eager per-reroute heap rebuild cost O(S) per
// touch; the tombstone scheme pays O(log S).
func BenchmarkStepReroute(b *testing.B) {
	for _, pol := range []policy.Policy{policy.NTG{}, policy.FTG{}} {
		for _, s := range []int{1 << 10, 1 << 13} {
			b.Run(fmt.Sprintf("Geps/%s/S=%d", pol.Name(), s), func(b *testing.B) {
				c := gadget.NewChain(3, 2, false)
				full := c.LongRoute(1)
				mk := func() *sim.Engine {
					e := sim.New(c.G, pol, &rerouteChurn{full: full, touch: 8})
					e.SeedN(s, packet.Inj(full...))
					return e
				}
				e := mk()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if e.Queue(full[0]).Len() < s/2 {
						b.StopTimer()
						e = mk()
						b.StartTimer()
					}
					e.Step()
				}
				if st := e.Stats(); st.Steps > 0 {
					b.ReportMetric(float64(st.HeapCompactions)/float64(st.Steps), "compactions/step")
				}
			})
		}
	}
}

// BenchmarkStepSeededFIFO measures the paper's pump regime: one huge
// FIFO buffer draining along a line, no adversary — the pure
// send/receive path.
func BenchmarkStepSeededFIFO(b *testing.B) {
	for _, s := range []int{1 << 10, 1 << 14} {
		b.Run(fmt.Sprintf("S=%d", s), func(b *testing.B) {
			g := graph.Line(8)
			route := []graph.EdgeID{g.MustEdge("e1"), g.MustEdge("e2"), g.MustEdge("e3")}
			e := sim.New(g, policy.FIFO{}, nil)
			e.SeedN(s, packet.Inj(route...))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if e.TotalQueued() == 0 {
					b.StopTimer()
					e = sim.New(g, policy.FIFO{}, nil)
					e.SeedN(s, packet.Inj(route...))
					b.StartTimer()
				}
				e.Step()
			}
		})
	}
}

// BenchmarkStepBounded runs the Step/Line32/FIFO traffic through
// NewWithConfig, once with cap 0 (the unbounded control, which must
// match Step/Line32/FIFO: the bounded branch costs nothing when off)
// and once with a cap-8 drop-tail buffer (the capacity check plus drop
// accounting on every enqueue). Both stay allocation-free.
func BenchmarkStepBounded(b *testing.B) {
	for _, cfg := range []struct {
		name string
		cap  int
		drop sim.DropPolicy
	}{{"fifo", 0, nil}, {"droptail", 8, sim.DropTail{}}} {
		b.Run("Line32/"+cfg.name, func(b *testing.B) {
			g := graph.Line(32)
			adv := adversary.NewRandomWR(g, 24, rational.New(1, 3), 4, 7)
			e := sim.NewWithConfig(g, policy.FIFO{}, adv, sim.Config{BufferCap: cfg.cap, Drop: cfg.drop})
			e.Run(256)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}

// BenchmarkStepLeap runs a single-edge burst adversary (a 64-packet
// burst every 32768 steps, all packets final on injection) over a
// 2^17-step horizon, stepped and leaped. One op is the whole run, so
// the ns/op ratio is the leap speedup on this workload. The per-packet
// drain work is the same on both sides, so the burst stays small
// relative to the idle gap for the skipped steps to dominate.
func BenchmarkStepLeap(b *testing.B) {
	const horizon = 1 << 17
	g := graph.Line(8)
	route := []graph.EdgeID{g.MustEdge("e1")}
	for _, mode := range []string{"step", "leap"} {
		b.Run("Burst/"+mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				adv := adversary.NewBurstScript(adversary.BurstStream{
					Name: "burst", Start: 1, Period: 32768, Burst: 64,
					Budget: -1, Route: route,
				})
				e := sim.New(g, policy.FIFO{}, adv)
				b.StartTimer()
				if mode == "leap" {
					e.RunLeap(horizon)
				} else {
					e.Run(horizon)
				}
			}
		})
	}
}

// e13Horizon is the fixed horizon of the RunLeapE13 shape: one
// Lemma 3.6 pump, its drain-out, and a long provably idle tail.
const e13Horizon = 1 << 25

// newE13Pump builds the long-horizon regime RunLeap exists for: one
// depth-12 Lemma 3.6 pump at r = 1/2 on a seeded FIFO gadget chain,
// the shape internal/stability and the E13/B1 runners drive through
// RunLeap. The seed is the nearhalf scale (1000) rather than 4*S0: the
// pump's per-packet work is paid identically stepped and leaped, so a
// large seed would drown the idle tail the leap skips.
func newE13Pump() *sim.Engine {
	p := core.ParamsFor(rational.New(1, 2), 12)
	c := gadget.NewChain(p.N, 2, false)
	e := sim.New(c.G, policy.FIFO{}, nil)
	c.SeedInvariant(e, 1, 1000)
	var rep core.PumpReport
	e.SetAdversary(adversary.NewSequence(core.PumpPhase(p, c, 1, nil, &rep)))
	return e
}

// BenchmarkRunLeapE13 runs newE13Pump to e13Horizon, stepped and
// leaped; one op is the whole run. The stepped side pays every step of
// the horizon, the leaped side only the pump (TestRunLeapE13Coverage
// pins the share it leaps).
func BenchmarkRunLeapE13(b *testing.B) {
	for _, mode := range []string{"step", "leap"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e := newE13Pump()
				b.StartTimer()
				if mode == "leap" {
					e.RunLeap(e13Horizon)
				} else {
					e.Run(e13Horizon)
				}
			}
		})
	}
}

// newCheckpointEngine is the Step/Line32/FIFO engine the checkpoint
// pair captures and restores.
func newCheckpointEngine() *sim.Engine {
	g := graph.Line(32)
	adv := adversary.NewRandomWR(g, 24, rational.New(1, 3), 4, 7)
	return sim.New(g, policy.FIFO{}, adv)
}

// BenchmarkCheckpointSave is one full state capture plus JSON encode
// of a warmed Line(32) engine under random (w,r) traffic. Checkpoints
// run once per segment, not per step, so this pins absolute cost.
func BenchmarkCheckpointSave(b *testing.B) {
	b.Run("Line32", func(b *testing.B) {
		e := newCheckpointEngine()
		e.Run(2048)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cp, err := e.Checkpoint()
			if err != nil {
				b.Fatal(err)
			}
			_ = cp.Encode()
		}
	})
}

// BenchmarkCheckpointRestore is the full resume path of the same
// engine: decode the document, build a fresh engine the same way, and
// apply the state.
func BenchmarkCheckpointRestore(b *testing.B) {
	b.Run("Line32", func(b *testing.B) {
		src := newCheckpointEngine()
		src.Run(2048)
		cp, err := src.Checkpoint()
		if err != nil {
			b.Fatal(err)
		}
		data := cp.Encode()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cp, err := sim.DecodeCheckpoint(data)
			if err != nil {
				b.Fatal(err)
			}
			if err := newCheckpointEngine().Restore(cp); err != nil {
				b.Fatal(err)
			}
		}
	})
}

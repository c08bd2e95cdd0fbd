// Engine hot-path microbenchmarks. BenchmarkStep crosses the three
// policy shapes the engine special-cases (FIFO = ring-deque pop-front,
// LIS = keyed heap fast path, NTG = keyed on remaining hops) with the
// three topology regimes of the paper (Line, Ring, G_ε), all under
// sustained random (w,r) traffic. Run with
//
//	go test -bench=Step -benchmem ./internal/sim
//
// and compare against the BENCH_*.json trajectory emitted by
// cmd/bench.
package sim_test

import (
	"fmt"
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

// Per-layer benchmarks of the Lemma 3.6 pump's injection and reroute
// path, on the depth-10 G_ε chain whose 12-edge LongRoute the pumps
// inject on. Run with
//
//	go test -run '^$' -bench Layer -benchmem ./internal/adversary
package adversary

import (
	"testing"

	"aqt/internal/gadget"
	"aqt/internal/graph"
	"aqt/internal/packet"
	"aqt/internal/policy"
	"aqt/internal/rational"
	"aqt/internal/sim"
)

// injectSink keeps the Inject/Script calls from being optimized away.
var injectSink []packet.Injection

// BenchmarkLayer times one layer of the pump on its own.
//
// Inject/Script: one op is one steady-state Script.Inject of two paced
// streams, the pump's fresh-packet and short-packet shapes.
//
// Reroute/ExtendBatch/Geps: one op is one Rerouter.ExtendBatch over
// 256 packets queued at gadget 1's ingress, extending each by gadget
// 2's e-path and egress as PumpPhase does: the Lemma 3.3 precondition
// checks, the route builds and the rerouter's bookkeeping. Each op
// starts from a fresh engine seeded off the clock, since a second
// extension by the same edges would no longer be new to P(t).
func BenchmarkLayer(b *testing.B) {
	c := gadget.NewChain(10, 2, false)
	b.Run("Inject/Script", func(b *testing.B) {
		s := NewScript(
			Stream{Name: "fresh", Start: 1, Rate: rational.FromInt(1), Budget: -1, Route: c.LongRoute(1)},
			Stream{Name: "short", Start: 1, Rate: rational.New(3, 4), Budget: -1, Route: c.EPath(1)[:1]},
		)
		e := sim.New(c.G, policy.FIFO{}, s)
		e.Run(256)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			injectSink = s.Inject(e)
		}
	})
	b.Run("Reroute/ExtendBatch/Geps", func(b *testing.B) {
		const batch = 256
		ext := append(append([]graph.EdgeID{}, c.EPath(2)...), c.Egress(2))
		extFn := func(*packet.Packet) []graph.EdgeID { return ext }
		pkts := make([]*packet.Packet, 0, batch)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			e := sim.New(c.G, policy.FIFO{}, nil)
			rr := NewRerouter(rational.New(3, 4))
			e.AddObserver(rr)
			e.SeedN(batch, packet.Inj(c.LongRoute(1)...))
			pkts = pkts[:0]
			e.Queue(c.Ingress(1)).Each(func(p *packet.Packet) bool {
				pkts = append(pkts, p)
				return true
			})
			b.StartTimer()
			if err := rr.ExtendBatch(e, pkts, extFn); err != nil {
				b.Fatal(err)
			}
		}
	})
}

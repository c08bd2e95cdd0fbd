// Allocation gates for the injection and Lemma 3.3 reroute path of
// the Theorem 3.17 pumps, on the 12-edge LongRoute of the depth-10
// gadget chain.
package adversary

import (
	"testing"

	"aqt/internal/gadget"
	"aqt/internal/packet"
	"aqt/internal/policy"
	"aqt/internal/rational"
	"aqt/internal/sim"
)

func TestSharedEdgeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	c := gadget.NewChain(10, 2, false)
	e := sim.New(c.G, policy.FIFO{}, nil)
	e.SeedN(64, packet.Inj(c.LongRoute(1)...))
	var pkts []*packet.Packet
	e.Queue(c.Ingress(1)).Each(func(p *packet.Packet) bool {
		pkts = append(pkts, p)
		return true
	})
	if edge, ok := SharedEdge(pkts); !ok || edge != c.Ingress(1) {
		t.Fatalf("SharedEdge = (%d, %v), want the ingress %d", edge, ok, c.Ingress(1))
	}
	if avg := testing.AllocsPerRun(256, func() { SharedEdge(pkts) }); avg != 0 {
		t.Errorf("SharedEdge over %d packets: %v allocs per call, want 0", len(pkts), avg)
	}
}

func TestScriptInjectAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	c := gadget.NewChain(10, 2, false)
	s := NewScript(
		Stream{Name: "long", Start: 1, Rate: rational.FromInt(1), Budget: -1, Route: c.LongRoute(1)},
		Stream{Name: "half", Start: 1, Rate: rational.New(1, 2), Budget: -1, Route: c.EPath(1)},
	)
	e := sim.New(c.G, policy.FIFO{}, s)
	e.RunQuiet(64)
	if avg := testing.AllocsPerRun(512, func() { s.Inject(e) }); avg != 0 {
		t.Errorf("Script.Inject: %v allocs per call, want 0", avg)
	}
}

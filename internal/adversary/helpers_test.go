package adversary

import (
	"aqt/internal/graph"
	"aqt/internal/packet"
	"aqt/internal/policy"
)

func fifo() policy.Policy { return policy.FIFO{} }

func ftg() policy.Policy { return policy.FTG{} }

// routedPkt returns a packet outside any engine, on route at pos,
// injected at t.
func routedPkt(route []graph.EdgeID, pos int, t int64) *packet.Packet {
	s := new(packet.Slab)
	_, p := s.New()
	p.SetRoute(s.Store().NewRoute(route))
	p.Pos, p.InjectedAt = int32(pos), t
	return p
}

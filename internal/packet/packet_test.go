package packet

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"aqt/internal/graph"
)

func lineRoute(g *graph.Graph, names ...string) []graph.EdgeID {
	r := make([]graph.EdgeID, len(names))
	for i, n := range names {
		r[i] = g.MustEdge(n)
	}
	return r
}

// routed returns a packet of slab s on route at pos.
func routed(s *Slab, route []graph.EdgeID, pos int) *Packet {
	_, p := s.New()
	p.SetRoute(s.Store().NewRoute(route))
	p.Pos = int32(pos)
	return p
}

func TestPacketAccessors(t *testing.T) {
	g := graph.Line(4)
	var s Slab
	p := routed(&s, lineRoute(g, "e1", "e2", "e3", "e4"), 1)
	p.ID, p.InjectedAt, p.ArrivedAt = 7, 10, 12
	if p.CurrentEdge() != g.MustEdge("e2") {
		t.Error("CurrentEdge wrong")
	}
	if p.RemainingHops() != 3 {
		t.Errorf("RemainingHops = %d", p.RemainingHops())
	}
	rem := p.RemainingRoute()
	if len(rem) != 3 || rem[0] != g.MustEdge("e2") {
		t.Error("RemainingRoute wrong")
	}
	if p.HopsFromSource() != 1 {
		t.Error("HopsFromSource wrong")
	}
	if p.Source(g) != g.NodeByName("v0") {
		t.Error("Source wrong")
	}
	if p.Destination(g) != g.NodeByName("v4") {
		t.Error("Destination wrong")
	}
	if !strings.Contains(p.String(), "pkt#7") || !strings.Contains(p.String(), "pos 1/4") {
		t.Errorf("String = %q", p.String())
	}
	if p.Tag() != "" || p.SourceName() != "" {
		t.Errorf("unset labels read %q, %q", p.Tag(), p.SourceName())
	}
	p.SetTag("old")
	p.SetSourceName("s1")
	p.SetTag("short")
	if p.Tag() != "short" || p.SourceName() != "s1" {
		t.Errorf("labels read %q, %q, want short, s1", p.Tag(), p.SourceName())
	}
	var zero Packet
	if zero.Route() != nil || zero.Tag() != "" || zero.SourceName() != "" || zero.RemainingHops() != 0 {
		t.Error("zero packet has a route or labels")
	}
}

// TestLabelsPastTheScan: labels past the first labelScan move to a
// map and keep their IDs, and equal strings at different addresses
// intern to one label.
func TestLabelsPastTheScan(t *testing.T) {
	var s Slab
	var ps []*Packet
	for i := 0; i < 3*labelScan; i++ {
		_, p := s.New()
		p.SetTag(fmt.Sprintf("tag%d", i))
		p.SetSourceName(fmt.Sprintf("src%d", i%3))
		ps = append(ps, p)
	}
	for i, p := range ps {
		if p.Tag() != fmt.Sprintf("tag%d", i) || p.SourceName() != fmt.Sprintf("src%d", i%3) {
			t.Fatalf("packet %d reads %q, %q", i, p.Tag(), p.SourceName())
		}
		_, q := s.New()
		q.SetTag(strings.Clone(p.Tag()))
		if q.tag != p.tag {
			t.Fatalf("a copy of %q interned as %d, want %d", p.Tag(), q.tag, p.tag)
		}
	}
	if n := len(s.Store().labels) - 1; n != 3*labelScan+3 {
		t.Fatalf("%d labels interned, want %d", n, 3*labelScan+3)
	}
}

func TestRemainingRouteAliases(t *testing.T) {
	g := graph.Line(3)
	var s Slab
	p := routed(&s, lineRoute(g, "e1", "e2", "e3"), 0)
	rem := p.RemainingRoute()
	if &rem[0] != &p.Route()[0] {
		t.Error("RemainingRoute should alias Route")
	}
}

func TestInjectionHelpers(t *testing.T) {
	g := graph.Line(2)
	inj := Inj(g.MustEdge("e1"), g.MustEdge("e2"))
	if len(inj.Route) != 2 || inj.Tag != "" {
		t.Error("Inj wrong")
	}
	ti := TaggedInj("old", g.MustEdge("e1"))
	if ti.Tag != "old" || len(ti.Route) != 1 {
		t.Error("TaggedInj wrong")
	}
}

// TestPacketIsOneCacheLine pins the slot size: the engine touches one
// slot per hop, and a slot that spills onto a second line costs a
// second miss on every deep-queue dequeue.
func TestPacketIsOneCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(Packet{}); n > 64 {
		t.Fatalf("sizeof(Packet) = %d bytes, want <= 64", n)
	}
}

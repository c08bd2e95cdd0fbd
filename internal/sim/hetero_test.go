package sim

import (
	"testing"

	"aqt/internal/graph"
	"aqt/internal/packet"
	"aqt/internal/policy"
)

func TestHeterogeneousPolicies(t *testing.T) {
	// Edge e1 runs LIFO, edge e2 (default) runs FIFO. Three packets
	// with distinguishable tags traverse e1 then e2.
	g := graph.Line(2)
	cfg := Config{PolicyFor: func(eid graph.EdgeID) policy.Policy {
		if eid == g.MustEdge("e1") {
			return policy.LIFO{}
		}
		return nil // default
	}}
	e := NewWithConfig(g, policy.FIFO{}, nil, cfg)
	for _, tag := range []string{"a", "b", "c"} {
		e.Seed(packet.TaggedInj(tag, g.MustEdge("e1"), g.MustEdge("e2")))
	}
	// LIFO at e1 releases c, b, a; FIFO at e2 preserves that order.
	var order []string
	for e.TotalQueued() > 0 && e.Now() < 20 {
		e.Step()
		q := e.Queue(g.MustEdge("e2"))
		if q.Len() > 0 {
			order = append(order, q.Back().Tag())
		}
	}
	want := "cba"
	got := ""
	for _, s := range order {
		got += s
	}
	if got != want {
		t.Errorf("arrival order at e2 = %q, want %q", got, want)
	}
}

func TestHeterogeneousDisablesKeyedPath(t *testing.T) {
	g := graph.Line(2)
	cfg := Config{PolicyFor: func(graph.EdgeID) policy.Policy { return policy.LIS{} }}
	e := NewWithConfig(g, policy.LIS{}, nil, cfg)
	if e.keyed != nil {
		t.Error("keyed path must be disabled for heterogeneous networks")
	}
	// And the engine still works.
	e.Seed(packet.InjNamed(g, "e1", "e2"))
	e.Run(2)
	if e.Absorbed() != 1 {
		t.Error("heterogeneous engine broken")
	}
}

func TestHeterogeneousDefaultFallback(t *testing.T) {
	// PolicyFor returning nil everywhere behaves as the main policy.
	g := graph.Line(1)
	cfg := Config{PolicyFor: func(graph.EdgeID) policy.Policy { return nil }}
	e := NewWithConfig(g, policy.FIFO{}, nil, cfg)
	e.SeedN(3, packet.InjNamed(g, "e1"))
	e.Run(3)
	if e.Absorbed() != 3 {
		t.Error("fallback policy broken")
	}
}

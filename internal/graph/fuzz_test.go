package graph

import (
	"math"
	"testing"
)

// refIsSimplePath is the map-based simplicity check PathChecker
// replaced, kept as the independent reference: bounds and contiguity
// edge by edge, then a visited-node set.
func refIsSimplePath(g *Graph, route []EdgeID) bool {
	if len(route) == 0 {
		return false
	}
	for i, e := range route {
		if e < 0 || int(e) >= g.NumEdges() {
			return false
		}
		if i > 0 && g.Edge(route[i-1]).To != g.Edge(e).From {
			return false
		}
	}
	seen := map[NodeID]bool{g.Edge(route[0]).From: true}
	for _, e := range route {
		to := g.Edge(e).To
		if seen[to] {
			return false
		}
		seen[to] = true
	}
	return true
}

// FuzzRouteChecks builds a small multigraph and a stream of routes from
// the tape — arbitrary edge sequences (with out-of-range IDs) and
// random walks, which often revisit a node — and checks one reused
// PathChecker and Graph.IsSimplePath against refIsSimplePath. A route
// header can push the checker's generation to its last value, so the
// next check wraps it while marks from earlier generations remain, and
// can ask for NodesDistinct on its own; the graph grows after four
// routes, exercising the on-demand growth of the mark table.
func FuzzRouteChecks(f *testing.F) {
	f.Add([]byte{3, 5, 0, 1, 1, 2, 2, 3, 3, 0, 0, 2, 3, 0, 1, 2, 0x83, 0, 0, 0, 0x85, 1, 1, 1, 1, 1, 2, 1, 2})
	f.Add([]byte{0, 0, 0, 1, 1, 0, 1, 0})
	// Line 0→1→2→3: route e0, then e0 again with a wrap, while the
	// first route's generation-1 marks remain, then e1 with a wrap.
	f.Add([]byte{2, 2, 0, 1, 1, 2, 2, 3, 0x81, 0, 0xC1, 0, 0xE1, 1})
	f.Add([]byte{6, 15, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 0, 1, 3, 3, 5, 5, 7, 7, 1, 2, 6, 6, 2, 0, 4, 4, 0,
		0x89, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0x88, 3, 0, 0, 0, 0, 0, 0, 0, 0, 4, 200, 1, 2, 3})
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) > 400 {
			tape = tape[:400]
		}
		next := func() int {
			if len(tape) == 0 {
				return 0
			}
			b := tape[0]
			tape = tape[1:]
			return int(b)
		}
		g := New()
		addEdges := func(m int) {
			n := g.NumNodes()
			for i := 0; i < m; i++ {
				from, to := next()%n, next()%n
				if from == to {
					to = (to + 1) % n
				}
				g.AddEdge(NodeID(from), NodeID(to), "")
			}
		}
		g.AddNodes(2 + next()%7)
		addEdges(1 + next()%16)

		var c PathChecker
		for k := 0; len(tape) > 0 && k < 64; k++ {
			if k == 4 {
				g.AddNodes(1 + next()%3)
				addEdges(1 + next()%4)
			}
			head := next()
			if head&0x40 != 0 {
				c.gen = math.MaxUint32
			}
			l := head % 16
			route := make([]EdgeID, 0, l)
			if head&0x80 == 0 {
				for i := 0; i < l; i++ {
					route = append(route, EdgeID(next()%(g.NumEdges()+2)-1))
				}
			} else {
				e := EdgeID(next() % g.NumEdges())
				route = append(route, e)
				for len(route) < l {
					out := g.Out(g.Edge(e).To)
					if len(out) == 0 {
						break
					}
					e = out[next()%len(out)]
					route = append(route, e)
				}
			}
			want := refIsSimplePath(g, route)
			if got := c.IsSimplePath(g, route); got != want {
				t.Fatalf("PathChecker.IsSimplePath(%v) = %v, reference %v (gen %d)", route, got, want, c.gen)
			}
			if got := g.IsSimplePath(route); got != want {
				t.Fatalf("Graph.IsSimplePath(%v) = %v, reference %v", route, got, want)
			}
			if head&0x20 != 0 && g.IsPath(route) {
				if got := c.NodesDistinct(g, route); got != want {
					t.Fatalf("PathChecker.NodesDistinct(%v) = %v, reference %v (gen %d)", route, got, want, c.gen)
				}
			}
		}
	})
}

// Package graph implements the directed multigraphs on which adversarial
// queuing executions run.
//
// A network in the adversarial queuing model (Borodin et al., J. ACM 2001)
// is a directed graph G = (V, E): nodes are switches and each edge is a
// unit-capacity link with a buffer at its tail. Parallel edges and named
// edges are supported because the constructions in Lotker, Patt-Shamir
// and Rosén (SICOMP 2004) address edges by name (a, e_i, f_i, a', e_0).
//
// Graphs are append-only: nodes and edges may be added but never removed,
// so NodeID and EdgeID values stay valid for the lifetime of the graph.
package graph

import (
	"fmt"
	"sort"
)

// NodeID identifies a node of a Graph. IDs are dense, starting at 0.
type NodeID int32

// EdgeID identifies an edge of a Graph. IDs are dense, starting at 0.
type EdgeID int32

// NoNode and NoEdge are sentinel "not found" values.
const (
	NoNode NodeID = -1
	NoEdge EdgeID = -1
)

// Edge is a directed link of the network. A buffer sits at its tail
// (the From node); one packet may cross the edge per time step.
type Edge struct {
	ID   EdgeID
	From NodeID
	To   NodeID
	Name string // optional; unique when nonempty
}

// Graph is a directed multigraph. The zero value is an empty graph
// ready to use.
type Graph struct {
	nodeNames []string
	edges     []Edge
	out       [][]EdgeID // outgoing edge IDs per node
	in        [][]EdgeID // incoming edge IDs per node
	nodeByNm  map[string]NodeID
	edgeByNm  map[string]EdgeID
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		nodeByNm: make(map[string]NodeID),
		edgeByNm: make(map[string]EdgeID),
	}
}

func (g *Graph) lazyInit() {
	if g.nodeByNm == nil {
		g.nodeByNm = make(map[string]NodeID)
	}
	if g.edgeByNm == nil {
		g.edgeByNm = make(map[string]EdgeID)
	}
}

// AddNode adds a node with an optional name (empty means anonymous) and
// returns its ID. It panics if the name is already taken.
func (g *Graph) AddNode(name string) NodeID {
	g.lazyInit()
	if name != "" {
		if _, ok := g.nodeByNm[name]; ok {
			panic(fmt.Sprintf("graph: duplicate node name %q", name))
		}
	}
	id := NodeID(len(g.nodeNames))
	g.nodeNames = append(g.nodeNames, name)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	if name != "" {
		g.nodeByNm[name] = id
	}
	return id
}

// AddNodes adds n anonymous nodes and returns their IDs.
func (g *Graph) AddNodes(n int) []NodeID {
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = g.AddNode("")
	}
	return ids
}

// AddEdge adds a directed edge from -> to with an optional unique name
// and returns its ID. Self-loops are rejected: the model's routes are
// simple directed paths, which can never use a self-loop.
func (g *Graph) AddEdge(from, to NodeID, name string) EdgeID {
	g.lazyInit()
	if !g.validNode(from) || !g.validNode(to) {
		panic(fmt.Sprintf("graph: AddEdge with invalid endpoint %d->%d", from, to))
	}
	if from == to {
		panic("graph: self-loop edges are not allowed")
	}
	if name != "" {
		if _, ok := g.edgeByNm[name]; ok {
			panic(fmt.Sprintf("graph: duplicate edge name %q", name))
		}
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{ID: id, From: from, To: to, Name: name})
	g.out[from] = append(g.out[from], id)
	g.in[to] = append(g.in[to], id)
	if name != "" {
		g.edgeByNm[name] = id
	}
	return id
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodeNames) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id EdgeID) Edge {
	return g.edges[id]
}

// Edges returns all edges in ID order. The returned slice is shared;
// callers must not modify it.
func (g *Graph) Edges() []Edge { return g.edges }

// NodeName returns the name of node id ("" if anonymous).
func (g *Graph) NodeName(id NodeID) string { return g.nodeNames[id] }

// EdgeName returns the name of edge id, or "e<id>" if anonymous.
func (g *Graph) EdgeName(id EdgeID) string {
	if id == NoEdge {
		return "<none>"
	}
	if n := g.edges[id].Name; n != "" {
		return n
	}
	return fmt.Sprintf("e%d", id)
}

// NodeByName returns the node with the given name, or NoNode.
func (g *Graph) NodeByName(name string) NodeID {
	if id, ok := g.nodeByNm[name]; ok {
		return id
	}
	return NoNode
}

// EdgeByName returns the edge with the given name, or NoEdge.
func (g *Graph) EdgeByName(name string) EdgeID {
	if id, ok := g.edgeByNm[name]; ok {
		return id
	}
	return NoEdge
}

// MustEdge returns the edge with the given name and panics if absent.
// Constructions use it to resolve their named gadget edges.
func (g *Graph) MustEdge(name string) EdgeID {
	id := g.EdgeByName(name)
	if id == NoEdge {
		panic(fmt.Sprintf("graph: no edge named %q", name))
	}
	return id
}

// Out returns the outgoing edges of node v (shared slice; do not modify).
func (g *Graph) Out(v NodeID) []EdgeID { return g.out[v] }

// In returns the incoming edges of node v (shared slice; do not modify).
func (g *Graph) In(v NodeID) []EdgeID { return g.in[v] }

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v NodeID) int { return len(g.out[v]) }

// InDegree returns the in-degree of v.
func (g *Graph) InDegree(v NodeID) int { return len(g.in[v]) }

// MaxInDegree returns the maximum in-degree over all nodes (the
// parameter α of Díaz et al.).
func (g *Graph) MaxInDegree() int {
	max := 0
	for v := range g.in {
		if d := len(g.in[v]); d > max {
			max = d
		}
	}
	return max
}

func (g *Graph) validNode(v NodeID) bool { return v >= 0 && int(v) < len(g.nodeNames) }

func (g *Graph) validEdge(e EdgeID) bool { return e >= 0 && int(e) < len(g.edges) }

// IsPath reports whether route is a contiguous directed walk: each
// edge's head is the next edge's tail. An empty route is not a path.
func (g *Graph) IsPath(route []EdgeID) bool {
	if len(route) == 0 {
		return false
	}
	for i, e := range route {
		if !g.validEdge(e) {
			return false
		}
		if i > 0 && g.edges[route[i-1]].To != g.edges[e].From {
			return false
		}
	}
	return true
}

// IsSimplePath reports whether route is a directed path visiting no
// node twice (the model requires injected routes to be simple). Each
// call sizes a fresh PathChecker to the graph; hot paths keep their own
// PathChecker instead.
func (g *Graph) IsSimplePath(route []EdgeID) bool {
	var c PathChecker
	return c.IsSimplePath(g, route)
}

// PathChecker checks route simplicity in O(len(route)) without
// allocating in steady state. It stamps visited nodes with a
// generation counter in a node-indexed table, so a check never clears
// the table except when the counter wraps; the table grows on demand
// with the graph. A PathChecker is not safe for concurrent use; the
// zero value is ready to use.
type PathChecker struct {
	marks []uint32
	gen   uint32
}

// IsSimplePath reports whether route is a directed path of g visiting
// no node twice. It agrees with Graph.IsSimplePath.
func (c *PathChecker) IsSimplePath(g *Graph, route []EdgeID) bool {
	return g.IsPath(route) && c.NodesDistinct(g, route)
}

// NodesDistinct reports whether route, which must already be a path of
// g (see Graph.IsPath), visits no node twice. Callers that report
// contiguity and simplicity failures apart check IsPath first and then
// this, so neither property is checked twice.
func (c *PathChecker) NodesDistinct(g *Graph, route []EdgeID) bool {
	if n := g.NumNodes(); len(c.marks) < n {
		c.marks = append(c.marks, make([]uint32, n-len(c.marks))...)
	}
	c.gen++
	if c.gen == 0 {
		clear(c.marks)
		c.gen = 1
	}
	gen := c.gen
	c.marks[g.edges[route[0]].From] = gen
	for _, e := range route {
		to := g.edges[e].To
		if c.marks[to] == gen {
			return false
		}
		c.marks[to] = gen
	}
	return true
}

// HasCycle reports whether the graph contains a directed cycle.
func (g *Graph) HasCycle() bool {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]byte, g.NumNodes())
	var visit func(v NodeID) bool
	visit = func(v NodeID) bool {
		color[v] = gray
		for _, e := range g.out[v] {
			w := g.edges[e].To
			switch color[w] {
			case gray:
				return true
			case white:
				if visit(w) {
					return true
				}
			}
		}
		color[v] = black
		return false
	}
	for v := 0; v < g.NumNodes(); v++ {
		if color[v] == white && visit(NodeID(v)) {
			return true
		}
	}
	return false
}

// Reachable reports whether node to is reachable from node from.
func (g *Graph) Reachable(from, to NodeID) bool {
	if from == to {
		return true
	}
	seen := make([]bool, g.NumNodes())
	stack := []NodeID{from}
	seen[from] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.out[v] {
			w := g.edges[e].To
			if w == to {
				return true
			}
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return false
}

// ShortestPath returns a minimum-hop route (as edge IDs) from node
// `from` to node `to`, or nil if none exists. Ties are broken towards
// lower edge IDs, so the result is deterministic.
func (g *Graph) ShortestPath(from, to NodeID) []EdgeID {
	if from == to {
		return []EdgeID{}
	}
	prev := make([]EdgeID, g.NumNodes())
	for i := range prev {
		prev[i] = NoEdge
	}
	visited := make([]bool, g.NumNodes())
	visited[from] = true
	frontier := []NodeID{from}
	for len(frontier) > 0 && !visited[to] {
		var next []NodeID
		for _, v := range frontier {
			for _, e := range g.out[v] {
				w := g.edges[e].To
				if !visited[w] {
					visited[w] = true
					prev[w] = e
					next = append(next, w)
				}
			}
		}
		frontier = next
	}
	if !visited[to] {
		return nil
	}
	var rev []EdgeID
	for v := to; v != from; {
		e := prev[v]
		rev = append(rev, e)
		v = g.edges[e].From
	}
	route := make([]EdgeID, len(rev))
	for i := range rev {
		route[i] = rev[len(rev)-1-i]
	}
	return route
}

// RouteString formats a route as "a -> e1 -> ... " using edge names.
func (g *Graph) RouteString(route []EdgeID) string {
	if len(route) == 0 {
		return "<empty>"
	}
	s := g.EdgeName(route[0])
	for _, e := range route[1:] {
		s += " -> " + g.EdgeName(e)
	}
	return s
}

// NamedEdges returns the names of all named edges, sorted.
func (g *Graph) NamedEdges() []string {
	names := make([]string, 0, len(g.edgeByNm))
	for n := range g.edgeByNm {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

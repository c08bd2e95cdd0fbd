// Package gadget builds the parametric networks of section 3 of the
// paper: the gadget Fₙ (Definition 3.4, Figure 3.1), daisy chains F^M,
// and the cyclic graph G_ε of Theorem 3.17 (Figure 3.2), together with
// the gadget invariant C(S, Fₙ) of Definition 3.5.
//
// An Fₙ gadget has an ingress edge a, an egress edge a′, and two
// parallel paths of length n between them, e₁…eₙ and f₁…fₙ. Daisy
// chaining identifies the egress of one gadget with the ingress of the
// next. In a chain of M gadgets the shared edges are named a1…a(M+1):
// gadget k has ingress a<k> and egress a<k+1>, and its internal edges
// are g<k>.e<i> and g<k>.f<i>. The optional stitch edge e0 (Theorem
// 3.17) connects the head of a(M+1) back to the tail of a1.
package gadget

import (
	"fmt"

	"aqt/internal/buffer"
	"aqt/internal/graph"
	"aqt/internal/packet"
	"aqt/internal/sim"
)

// Chain is a daisy chain of M Fₙ gadgets, optionally closed by the
// stitch edge e0.
type Chain struct {
	G *graph.Graph
	N int // path length inside each gadget
	M int // number of gadgets

	// ingress[k-1] is a<k>; ingress[M] is the egress of the last gadget.
	ingress []graph.EdgeID
	// e[k-1][i-1] and f[k-1][i-1] are g<k>.e<i> and g<k>.f<i>.
	e [][]graph.EdgeID
	f [][]graph.EdgeID
	// stitch is e0 or graph.NoEdge.
	stitch graph.EdgeID
}

// NewChain builds F^M with gadget parameter n. If stitch is true the
// graph is G_ε: an extra edge e0 closes the chain into a cycle.
// It panics unless n >= 1 and m >= 1.
func NewChain(n, m int, stitch bool) *Chain {
	if n < 1 || m < 1 {
		panic("gadget: need n >= 1 and m >= 1")
	}
	g := graph.New()
	c := &Chain{G: g, N: n, M: m, stitch: graph.NoEdge}

	src := g.AddNode("src")
	prevExit := src
	for k := 1; k <= m; k++ {
		entry := g.AddNode(fmt.Sprintf("v%d", k))
		c.ingress = append(c.ingress, g.AddEdge(prevExit, entry, fmt.Sprintf("a%d", k)))
		exit := g.AddNode(fmt.Sprintf("w%d", k))
		c.e = append(c.e, addParallelPath(g, entry, exit, n, fmt.Sprintf("g%d.e", k)))
		c.f = append(c.f, addParallelPath(g, entry, exit, n, fmt.Sprintf("g%d.f", k)))
		prevExit = exit
	}
	sink := g.AddNode("sink")
	c.ingress = append(c.ingress, g.AddEdge(prevExit, sink, fmt.Sprintf("a%d", m+1)))
	if stitch {
		c.stitch = g.AddEdge(sink, src, "e0")
	}
	return c
}

// addParallelPath adds a path of n edges from entry to exit named
// prefix+"1"..prefix+"n", creating n-1 intermediate nodes.
func addParallelPath(g *graph.Graph, entry, exit graph.NodeID, n int, prefix string) []graph.EdgeID {
	edges := make([]graph.EdgeID, n)
	prev := entry
	for i := 1; i <= n; i++ {
		var cur graph.NodeID
		if i == n {
			cur = exit
		} else {
			cur = g.AddNode(fmt.Sprintf("%s%d.n", prefix, i))
		}
		edges[i-1] = g.AddEdge(prev, cur, fmt.Sprintf("%s%d", prefix, i))
		prev = cur
	}
	return edges
}

// Ingress returns a<k>, the ingress edge of gadget k (1-based).
func (c *Chain) Ingress(k int) graph.EdgeID {
	c.checkK(k)
	return c.ingress[k-1]
}

// Egress returns a<k+1>, the egress edge of gadget k — also the
// ingress of gadget k+1 when one exists.
func (c *Chain) Egress(k int) graph.EdgeID {
	c.checkK(k)
	return c.ingress[k]
}

// EPath returns the edges e₁…eₙ of gadget k.
func (c *Chain) EPath(k int) []graph.EdgeID {
	c.checkK(k)
	return c.e[k-1]
}

// FPath returns the edges f₁…fₙ of gadget k.
func (c *Chain) FPath(k int) []graph.EdgeID {
	c.checkK(k)
	return c.f[k-1]
}

// Stitch returns e0, or graph.NoEdge for an open chain.
func (c *Chain) Stitch() graph.EdgeID { return c.stitch }

// HasStitch reports whether the chain is closed into G_ε.
func (c *Chain) HasStitch() bool { return c.stitch != graph.NoEdge }

func (c *Chain) checkK(k int) {
	if k < 1 || k > c.M {
		panic(fmt.Sprintf("gadget: gadget index %d out of range [1,%d]", k, c.M))
	}
}

// GadgetEdges returns all edges belonging to gadget k — its ingress,
// both parallel paths, but not its egress (which belongs to gadget
// k+1 in the invariant's accounting).
func (c *Chain) GadgetEdges(k int) []graph.EdgeID {
	c.checkK(k)
	out := []graph.EdgeID{c.Ingress(k)}
	out = append(out, c.EPath(k)...)
	out = append(out, c.FPath(k)...)
	return out
}

// EgressRouteOfE returns the remaining route an old packet queued at
// e_i of gadget k must have under C(S,Fₙ): e_i, …, e_n, a<k+1>.
func (c *Chain) EgressRouteOfE(k, i int) []graph.EdgeID {
	ep := c.EPath(k)
	out := append([]graph.EdgeID{}, ep[i-1:]...)
	return append(out, c.Egress(k))
}

// LongRoute returns the route a<k>, f₁…fₙ, a<k+1> of the "long"
// packets queued at the ingress under C(S,Fₙ).
func (c *Chain) LongRoute(k int) []graph.EdgeID {
	out := []graph.EdgeID{c.Ingress(k)}
	out = append(out, c.FPath(k)...)
	return append(out, c.Egress(k))
}

// InvariantReport is the outcome of checking C(S, Fₙ) on one gadget
// (Definition 3.5). In the exact paper statement ETotal == AQueue == S
// with no violations; discrete rounding makes the two S values differ
// slightly in practice, so callers decide how much slack to accept via
// Holds.
type InvariantReport struct {
	K int // gadget index

	// ETotal is the number of packets in the buffers of e₁…eₙ
	// (condition 1; should be S).
	ETotal int
	// EmptyE lists i with an empty e_i buffer (condition 2 violations).
	EmptyE []int
	// BadERoutes counts packets in e-buffers whose remaining route is
	// not e_i…e_n,a′ (condition 2 violations). Routes extending beyond
	// a′ are allowed when relaxRoutes was set (mid-construction the
	// routes already continue into the next gadget).
	BadERoutes int
	// AQueue is the number of packets at the ingress buffer with
	// remaining route a,f₁…fₙ,a′ (condition 3; should be S).
	AQueue int
	// BadARoutes counts ingress-buffer packets with any other route.
	BadARoutes int
	// Strays counts packets in the gadget's f-buffers (condition 4).
	Strays int
}

// S returns the invariant's S value, the minimum of the two queue
// totals (the usable pump input for the next gadget).
func (r InvariantReport) S() int {
	if r.AQueue < r.ETotal {
		return r.AQueue
	}
	return r.ETotal
}

// Holds reports whether the invariant holds with the given absolute
// slack: the two totals may differ by at most slack, no e-buffer may
// be empty, and no route or stray violations are allowed.
func (r InvariantReport) Holds(slack int) bool {
	diff := r.ETotal - r.AQueue
	if diff < 0 {
		diff = -diff
	}
	return diff <= slack && len(r.EmptyE) == 0 && r.BadERoutes == 0 &&
		r.BadARoutes == 0 && r.Strays == 0
}

// Err returns nil when Holds(slack), else a descriptive error.
func (r InvariantReport) Err(slack int) error {
	if r.Holds(slack) {
		return nil
	}
	return fmt.Errorf("gadget %d: C(S,F) violated: eTotal=%d aQueue=%d emptyE=%v badE=%d badA=%d strays=%d",
		r.K, r.ETotal, r.AQueue, r.EmptyE, r.BadERoutes, r.BadARoutes, r.Strays)
}

// CheckInvariant evaluates C(S, Fₙ) for gadget k on the live engine.
// With relaxRoutes, a packet's remaining route may extend beyond the
// gadget's egress (as happens after the Lemma 3.6 route extensions)
// as long as it begins with the required prefix.
func (c *Chain) CheckInvariant(e *sim.Engine, k int, relaxRoutes bool) InvariantReport {
	rep := InvariantReport{K: k}
	// Conditions 1 and 2: the e-path buffers.
	for i := 1; i <= c.N; i++ {
		eid := c.EPath(k)[i-1]
		q := e.Queue(eid)
		if q.Len() == 0 {
			rep.EmptyE = append(rep.EmptyE, i)
		}
		rep.ETotal += q.Len()
		want := c.EgressRouteOfE(k, i)
		countBadRoutes(q, want, relaxRoutes, &rep.BadERoutes)
	}
	// Condition 3: the ingress buffer.
	want := c.LongRoute(k)
	aq := e.Queue(c.Ingress(k))
	aq.Each(func(p *packet.Packet) bool {
		if routeMatches(p.RemainingRoute(), want, relaxRoutes) {
			rep.AQueue++
		} else {
			rep.BadARoutes++
		}
		return true
	})
	// Condition 4: nothing in the f-buffers.
	for _, eid := range c.FPath(k) {
		rep.Strays += e.QueueLen(eid)
	}
	return rep
}

func countBadRoutes(q *buffer.Buffer, want []graph.EdgeID, relax bool, bad *int) {
	q.Each(func(p *packet.Packet) bool {
		if !routeMatches(p.RemainingRoute(), want, relax) {
			*bad++
		}
		return true
	})
}

// routeMatches reports whether got equals want, or (when relax) starts
// with want.
func routeMatches(got, want []graph.EdgeID, relax bool) bool {
	if relax {
		if len(got) < len(want) {
			return false
		}
		got = got[:len(want)]
	} else if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// SeedInvariant seeds the engine (before its first step) into the
// exact configuration C(S, Fₙ) on gadget k: S packets spread round-
// robin over the e-buffers (each nonempty, in paper's route form) and
// S packets at the ingress with the long route. It panics if S < n.
func (c *Chain) SeedInvariant(e *sim.Engine, k, s int) {
	if s < c.N {
		panic("gadget: SeedInvariant needs S >= n so every e-buffer is nonempty")
	}
	// Fill e_n, e_{n-1}, …: the paper spreads packets with each buffer
	// nonempty; the exact distribution is immaterial to the adversary,
	// which only uses "one old packet crosses a′ per step" (Claim 3.8).
	// Round-robin keeps every buffer nonempty. The routes are built once
	// and shared by every seed: admission copies a route it keeps.
	egress := make([][]graph.EdgeID, c.N)
	for i := range egress {
		egress[i] = c.EgressRouteOfE(k, i+1)
	}
	for j := 0; j < s; j++ {
		e.Seed(packet.Injection{Route: egress[j%c.N], Tag: "old-e"})
	}
	long := c.LongRoute(k)
	for j := 0; j < s; j++ {
		e.Seed(packet.Injection{Route: long, Tag: "old-a"})
	}
}

// TotalQueuedInGadget returns the number of packets buffered on gadget
// k's edges (ingress + both paths).
func (c *Chain) TotalQueuedInGadget(e *sim.Engine, k int) int {
	total := 0
	for _, eid := range c.GadgetEdges(k) {
		total += e.QueueLen(eid)
	}
	return total
}

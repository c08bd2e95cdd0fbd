// Package packet defines the packets that traverse an adversarial
// queuing network and the injection descriptors adversaries emit.
//
// A packet is injected with a simple directed route and crosses it hop
// by hop in store-and-forward fashion; the simulator moves at most one
// packet per edge per time step. Fields the scheduling policies need —
// injection time, arrival time at the current buffer, the remaining
// route — live here so the policy package can stay free of simulator
// internals.
//
// The engine stores its packets in a Slab and moves them between
// buffers as int32 Handles; policies, observers and adversaries still
// see *Packet, whose address stays fixed while the packet lives. A
// packet slot is one 64-byte cache line of scalars plus a back-pointer
// to its slab's Store, which holds the routes and labels the slot names
// by uint32 IDs; the back-pointer is written once, when the slot is
// first carved, so moving, rerouting and recycling a packet writes no
// pointer into its slot.
package packet

import (
	"fmt"

	"aqt/internal/graph"
)

// ID identifies a packet within one execution. IDs are assigned
// densely by the engine in injection order.
type ID int64

// Packet is a packet in flight (or queued) in the network. The engine
// owns packets; policies and observers must treat them as read-only.
//
// Lifetime: a *Packet is valid from its admission (a seed or an
// injection) until the OnAbsorb or OnDrop callbacks for it return.
// The engine then zeroes the packet and reuses its storage (its Slab
// slot) for a later admission, so an observer copies what it keeps
// beyond that point, as obs.SpanTracer keeps packet IDs rather than
// packets. A Route slice is the exception: routes are immutable, so a
// slice read from Route stays valid and unchanged for good.
type Packet struct {
	ID ID

	// InjectedAt is the time step at which the packet was injected
	// (the second substep of that step).
	InjectedAt int64

	// ArrivedAt is the time step at which the packet arrived at its
	// current buffer: its injection step for the first edge, or the
	// step in whose second substep it was received. It is the key of
	// FIFO/LIFO ordering.
	ArrivedAt int64

	// EnqueueSeq is a global sequence number assigned on every enqueue,
	// giving a deterministic total order among packets that arrive at
	// the same buffer in the same step.
	EnqueueSeq int64

	// Pos is the index into Route() of the packet's current edge.
	Pos int32

	// Reroutes counts how many times the packet's route was altered
	// on-line (Lemma 3.3 machinery). The paper requires this to be
	// finite; the Theorem 3.17 construction keeps it <= M.
	Reroutes int32

	route  RouteID // entry in store holding the route
	hops   int32   // len(Route()), so hop counts read no route
	tag    label   // see Tag
	source label   // see SourceName

	// store holds the route and labels; set when the slab carves the
	// slot and never cleared.
	store *Store
}

// Route returns the full route of the packet, as (possibly extended by
// rerouting) at the current time. Route()[Pos] is the edge whose buffer
// currently holds the packet (or which it is crossing). Routes are
// immutable and shared: packets with equal routes may share one, and a
// reroute assigns a new route rather than modifying the elements of
// the old one, so a slice returned by Route stays valid and unchanged
// even after the packet is rerouted or released.
func (p *Packet) Route() []graph.EdgeID {
	if p.route == 0 {
		return nil
	}
	return p.store.Route(p.route)
}

// RouteID returns the store entry holding the packet's route (0 for no
// route). Packets of one engine with equal RouteIDs share one route.
func (p *Packet) RouteID() RouteID { return p.route }

// SetRoute makes the route stored as id p's route: p takes a reference
// on id and drops the one it held. Only the engine (admission and
// reroutes) and tools that build packets outside an engine call it.
func (p *Packet) SetRoute(id RouteID) {
	s := p.store
	s.Retain(id)
	s.Drop(p.route)
	p.route = id
	p.hops = int32(s.routes[id].n)
}

// Tag returns the packet's optional label for experiment bookkeeping
// (e.g. "old", "short", "long" in the Lemma 3.6 analysis). The engine
// never reads it.
func (p *Packet) Tag() string {
	if p.tag == 0 {
		return ""
	}
	return p.store.labels[p.tag]
}

// SetTag relabels the packet, as the Lemma 3.6 and 3.15 constructions
// do when a phase starts.
func (p *Packet) SetTag(tag string) { p.tag = p.store.label(tag) }

// SourceName returns which injection stream created the packet, if
// recorded, for tracing.
func (p *Packet) SourceName() string {
	if p.source == 0 {
		return ""
	}
	return p.store.labels[p.source]
}

// SetSourceName records the injection stream that created the packet.
func (p *Packet) SetSourceName(name string) { p.source = p.store.label(name) }

// CurrentEdge returns the edge whose buffer holds the packet. It
// panics once the packet has crossed its whole route.
func (p *Packet) CurrentEdge() graph.EdgeID {
	if uint32(p.Pos) >= uint32(p.hops) {
		panic("packet: CurrentEdge past the end of the route")
	}
	c, off := p.store.edges(p.store.routes[p.route])
	return c[off+uint32(p.Pos)]
}

// RemainingRoute returns the suffix of the route not yet completed,
// starting with the current edge. The slice aliases Route.
func (p *Packet) RemainingRoute() []graph.EdgeID { return p.Route()[p.Pos:] }

// RemainingHops returns the number of edges the packet still has to
// cross, including the current one.
func (p *Packet) RemainingHops() int { return int(p.hops - p.Pos) }

// Destination returns the final node of the packet's route.
// It requires access to the graph to resolve the last edge.
func (p *Packet) Destination(g *graph.Graph) graph.NodeID {
	r := p.Route()
	return g.Edge(r[len(r)-1]).To
}

// Source returns the first node of the packet's route.
func (p *Packet) Source(g *graph.Graph) graph.NodeID {
	return g.Edge(p.Route()[0]).From
}

// HopsFromSource returns the number of edges already crossed.
func (p *Packet) HopsFromSource() int { return int(p.Pos) }

// String formats a compact description for traces and test failures.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt#%d(pos %d/%d, inj %d, arr %d)",
		p.ID, p.Pos, p.hops, p.InjectedAt, p.ArrivedAt)
}

// Injection describes one packet an adversary wants to inject. The
// engine validates the route and assigns the packet its identity.
type Injection struct {
	Route []graph.EdgeID
	// Tag and SourceName are copied onto the created packet.
	Tag        string
	SourceName string
}

// Inj is shorthand for constructing an Injection from a route.
func Inj(route ...graph.EdgeID) Injection { return Injection{Route: route} }

// TaggedInj constructs an Injection with a tag.
func TaggedInj(tag string, route ...graph.EdgeID) Injection {
	return Injection{Route: route, Tag: tag}
}

// InjNamed constructs an Injection from named edges of g; it panics on
// an unknown name (MustEdge semantics). Convenient in tests and
// examples.
func InjNamed(g *graph.Graph, names ...string) Injection {
	route := make([]graph.EdgeID, len(names))
	for i, n := range names {
		route[i] = g.MustEdge(n)
	}
	return Injection{Route: route}
}

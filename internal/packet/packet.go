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
// see *Packet, whose address stays fixed while the packet lives.
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
// packets.
type Packet struct {
	ID ID

	// Route is the full route of the packet, as (possibly extended by
	// rerouting) at the current time. Route[Pos] is the edge whose
	// buffer currently holds the packet (or which it is crossing).
	// Routes are immutable and shared: packets with equal routes may
	// share one, and a reroute assigns a new route rather than
	// modifying the elements of the old one, so a Route slice read at
	// any time stays valid and unchanged.
	Route []graph.EdgeID

	// Pos is the index into Route of the packet's current edge.
	Pos int

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

	// Reroutes counts how many times the packet's route was altered
	// on-line (Lemma 3.3 machinery). The paper requires this to be
	// finite; the Theorem 3.17 construction keeps it <= M.
	Reroutes int

	// Tag is an optional label for experiment bookkeeping (e.g. "old",
	// "short", "long" in the Lemma 3.6 analysis). The engine never
	// reads it.
	Tag string

	// SourceName optionally records which injection stream created the
	// packet, for tracing.
	SourceName string
}

// CurrentEdge returns the edge whose buffer holds the packet.
func (p *Packet) CurrentEdge() graph.EdgeID { return p.Route[p.Pos] }

// RemainingRoute returns the suffix of the route not yet completed,
// starting with the current edge. The slice aliases Route.
func (p *Packet) RemainingRoute() []graph.EdgeID { return p.Route[p.Pos:] }

// RemainingHops returns the number of edges the packet still has to
// cross, including the current one.
func (p *Packet) RemainingHops() int { return len(p.Route) - p.Pos }

// Destination returns the final node of the packet's route.
// It requires access to the graph to resolve the last edge.
func (p *Packet) Destination(g *graph.Graph) graph.NodeID {
	return g.Edge(p.Route[len(p.Route)-1]).To
}

// Source returns the first node of the packet's route.
func (p *Packet) Source(g *graph.Graph) graph.NodeID {
	return g.Edge(p.Route[0]).From
}

// HopsFromSource returns the number of edges already crossed.
func (p *Packet) HopsFromSource() int { return p.Pos }

// String formats a compact description for traces and test failures.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt#%d(pos %d/%d, inj %d, arr %d)",
		p.ID, p.Pos, len(p.Route), p.InjectedAt, p.ArrivedAt)
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

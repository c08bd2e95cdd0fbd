package sim

import (
	"slices"

	"aqt/internal/graph"
	"aqt/internal/packet"
)

// routeStore decides which routes the engine's packets share. The
// routes themselves are reference-counted entries of the slab's
// packet.Store (immutable once made, recycled when no packet holds
// them); routeStore keeps two caches of entry IDs over it: admission
// reuses the route last admitted on the same first edge when the edges
// are equal, and a reroute memo builds one new route per distinct old
// route, so a Lemma 3.3 batch extension of many packets that share an
// old route builds one route, not one per packet.
//
// Validate once: last and memo hold only routes that passed the
// engine's route checks against its graph (or were stored by an engine
// that skips them). The engine makes a route entry only after its check
// passes, so a check that panics — and is recovered by a caller —
// leaves nothing unchecked behind, and a route found there is never
// checked again.
type routeStore struct {
	st *packet.Store
	// last[e] is the route last admitted with first edge e. It holds a
	// reference on each, so a route outlives its packets while it is its
	// edge's latest (at most one route per edge) and the next packet on
	// it shares it instead of copying it again.
	last []packet.RouteID
	// memo maps (old route, pos) to the route a reroute last built from
	// it during step memoAt; allocated on the first reroute. It holds
	// no references, and entries are recycled, so a hit counts only
	// while its route is held and equal to the one asked for.
	memo   map[rerouteKey]packet.RouteID
	memoAt int64
	// scratch builds a rerouted route before it is checked.
	scratch []graph.EdgeID
}

// rerouteKey identifies a reroute by its old route and the rerouted
// packet's position on it.
type rerouteKey struct {
	old packet.RouteID
	pos int32
}

// memoCap bounds the reroute memo: reroutes between two steps that
// keep building fresh routes (a route rerouted back and forth) would
// otherwise grow it without bound.
const memoCap = 4096

// routeStore returns the engine's route store, allocating it on first
// use so engine construction allocates nothing for it.
func (e *Engine) routeStore() *routeStore {
	if e.routes == nil {
		e.routes = &routeStore{st: e.slab.Store(), last: make([]packet.RouteID, e.g.NumEdges())}
	}
	return e.routes
}

// stored returns the route last admitted on route's first edge when
// its edges equal route's, else 0.
func (s *routeStore) stored(route []graph.EdgeID) packet.RouteID {
	if len(route) == 0 || uint(route[0]) >= uint(len(s.last)) {
		return 0
	}
	if id := s.last[route[0]]; id != 0 && slices.Equal(s.st.Route(id), route) {
		return id
	}
	return 0
}

// store copies route, which passed the admission check, into a new
// entry and makes it its first edge's latest.
func (s *routeStore) store(route []graph.EdgeID) packet.RouteID {
	id := s.st.NewRoute(route)
	s.st.Retain(id)
	s.st.Drop(s.last[route[0]])
	s.last[route[0]] = id
	return id
}

// memoized returns the route the memo holds for a reroute of a packet
// at pos on old (entry oldID) to old[:pos+1] + suffix + ext at step
// now, or 0. The memo is emptied first when the step changes or it
// reached memoCap entries.
func (s *routeStore) memoized(oldID packet.RouteID, old []graph.EdgeID, pos int, suffix, ext []graph.EdgeID, now int64) packet.RouteID {
	if s.memo == nil {
		s.memo = make(map[rerouteKey]packet.RouteID)
	}
	if s.memoAt != now || len(s.memo) >= memoCap {
		clear(s.memo)
		s.memoAt = now
	}
	id, ok := s.memo[rerouteKey{old: oldID, pos: int32(pos)}]
	if !ok || !s.st.Held(id) {
		return 0
	}
	r := s.st.Route(id)
	if len(r) != pos+1+len(suffix)+len(ext) || !slices.Equal(r[:pos+1], old[:pos+1]) {
		return 0
	}
	if tail := r[pos+1:]; !slices.Equal(tail[:len(suffix)], suffix) || !slices.Equal(tail[len(suffix):], ext) {
		return 0
	}
	return id
}

// memoize records route id, built from entry oldID at pos by a reroute
// that passed the route checks, replacing any earlier entry for (oldID,
// pos).
func (s *routeStore) memoize(oldID packet.RouteID, pos int, id packet.RouteID) {
	s.memo[rerouteKey{old: oldID, pos: int32(pos)}] = id
}

package sim

import (
	"slices"

	"aqt/internal/graph"
)

// routeStore owns the engine's routes. A route is an immutable value
// carved from a chunked arena at exact capacity, so appends by callers
// cannot clobber a neighbour, and packets share routes freely:
// admission reuses the route last admitted on the same first edge when
// the edges are equal, and a reroute memo builds one new route per
// distinct old route, so a Lemma 3.3 batch extension of many packets
// that share an old route builds one route, not one per packet.
//
// Validate once: last and memo hold only routes that passed the
// engine's route checks against its graph (or were stored by an engine
// that skips them). The engine records a route there only after its
// check passes, so a check that panics — and is recovered by a caller —
// leaves nothing unchecked behind, and a route found there is never
// checked again.
type routeStore struct {
	arena []graph.EdgeID
	// last[e] is the route last admitted with first edge e.
	last [][]graph.EdgeID
	// memo maps (old route, pos) to the route a reroute last built from
	// it during step memoAt; allocated on the first reroute.
	memo   map[rerouteKey][]graph.EdgeID
	memoAt int64
}

// rerouteKey identifies a reroute's old route by the address of its
// first edge in the arena (routes are nonempty, immutable and never
// overlap, so the address implies the content) and the rerouted
// packet's position on it.
type rerouteKey struct {
	old *graph.EdgeID
	pos int
}

// memoCap bounds the reroute memo: reroutes between two steps that
// keep building fresh routes (a route rerouted back and forth) would
// otherwise grow it without bound.
const memoCap = 4096

// routeStore returns the engine's route store, allocating it on first
// use so engine construction allocates nothing for it.
func (e *Engine) routeStore() *routeStore {
	if e.routes == nil {
		e.routes = &routeStore{last: make([][]graph.EdgeID, e.g.NumEdges())}
	}
	return e.routes
}

// copy copies the concatenation of parts into the arena.
func (s *routeStore) copy(parts ...[]graph.EdgeID) []graph.EdgeID {
	n := 0
	for _, part := range parts {
		n += len(part)
	}
	if cap(s.arena)-len(s.arena) < n {
		s.arena = make([]graph.EdgeID, 0, max(n, 1024))
	}
	start := len(s.arena)
	for _, part := range parts {
		s.arena = append(s.arena, part...)
	}
	return s.arena[start : start+n : start+n]
}

// stored returns the route last admitted on route's first edge when
// its edges equal route's, else nil.
func (s *routeStore) stored(route []graph.EdgeID) []graph.EdgeID {
	if len(route) == 0 || uint(route[0]) >= uint(len(s.last)) {
		return nil
	}
	if last := s.last[route[0]]; slices.Equal(last, route) {
		return last
	}
	return nil
}

// store copies route, which passed the admission check, into the arena
// and remembers it for its first edge.
func (s *routeStore) store(route []graph.EdgeID) []graph.EdgeID {
	r := s.copy(route)
	s.last[route[0]] = r
	return r
}

// memoized returns the route the memo holds for a reroute of a packet
// at pos on old to old[:pos+1] + suffix + ext at step now, or nil. The
// memo is emptied first when the step changes or it reached memoCap
// entries.
func (s *routeStore) memoized(old []graph.EdgeID, pos int, suffix, ext []graph.EdgeID, now int64) []graph.EdgeID {
	if s.memo == nil {
		s.memo = make(map[rerouteKey][]graph.EdgeID)
	}
	if s.memoAt != now || len(s.memo) >= memoCap {
		clear(s.memo)
		s.memoAt = now
	}
	if r, ok := s.memo[rerouteKey{old: &old[0], pos: pos}]; ok {
		if tail := r[pos+1:]; len(tail) == len(suffix)+len(ext) &&
			slices.Equal(tail[:len(suffix)], suffix) && slices.Equal(tail[len(suffix):], ext) {
			return r
		}
	}
	return nil
}

// memoize records route, built from old at pos by a reroute that passed
// the route checks, replacing any earlier entry for (old, pos).
func (s *routeStore) memoize(old []graph.EdgeID, pos int, route []graph.EdgeID) {
	s.memo[rerouteKey{old: &old[0], pos: pos}] = route
}

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

// intern returns a stored route equal to route: the one last admitted
// on the same first edge when its edges are equal, else a fresh copy
// that becomes the one remembered for that edge.
func (s *routeStore) intern(route []graph.EdgeID) []graph.EdgeID {
	last := &s.last[route[0]]
	if !slices.Equal(*last, route) {
		*last = s.copy(route)
	}
	return *last
}

// rerouted returns the route old[:pos+1] + suffix + ext for a reroute
// at step now: the one the memo holds for (old, pos) when its tail
// equals suffix + ext, else a fresh copy that replaces it. The memo is
// emptied when the step changes or it reaches memoCap entries.
func (s *routeStore) rerouted(old []graph.EdgeID, pos int, suffix, ext []graph.EdgeID, now int64) []graph.EdgeID {
	if s.memo == nil {
		s.memo = make(map[rerouteKey][]graph.EdgeID)
	}
	if s.memoAt != now || len(s.memo) >= memoCap {
		clear(s.memo)
		s.memoAt = now
	}
	k := rerouteKey{old: &old[0], pos: pos}
	if r, ok := s.memo[k]; ok {
		if tail := r[pos+1:]; len(tail) == len(suffix)+len(ext) &&
			slices.Equal(tail[:len(suffix)], suffix) && slices.Equal(tail[len(suffix):], ext) {
			return r
		}
	}
	r := s.copy(old[:pos+1], suffix, ext)
	s.memo[k] = r
	return r
}

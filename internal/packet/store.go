package packet

import (
	"aqt/internal/graph"
)

// RouteID names a route entry in a Store. 0 is the empty route, which
// every store holds and never recycles.
type RouteID uint32

// label names an interned string in a Store; 0 is "".
type label uint32

// Store holds the routes and labels of one slab's packets, which name
// them by ID so that a packet slot holds no pointer but its back-pointer
// to the store.
//
// Routes are reference counted. A packet holds one reference on its
// route (SetRoute moves it, Slab.Release drops it), and an owner such as
// an engine's admission cache may hold more (Retain, Drop). An entry
// whose count falls to zero goes on a free list, and NewRoute reuses it
// for a later route, so the number of entries tracks the routes live
// packets and owners hold, not the routes ever made.
//
// A route's edges sit in an arena chunk, and an entry names its chunk
// by index and offset, so neither the entries nor a packet slot hold a
// pointer. Recycling reuses the entry, never its edges: NewRoute only
// appends to the newest chunk, and a chunk with no entries left is let
// go (and its index reused with a new chunk), never written again. So a
// Route slice handed out before its entry was recycled keeps its edges,
// and appending to one cannot clobber a neighbour. A chunk holds the
// routes made while it was the newest, so arena memory tracks the
// routes held, as entries do, plus the chunks that a long-held route
// keeps.
//
// Labels (tags and source names) are interned for the store's lifetime;
// a store is meant for a handful of distinct labels, not one per packet.
//
// The zero value is an empty store ready to use; it is not safe for
// concurrent use.
type Store struct {
	chunks [][]graph.EdgeID // the arena; nil where a chunk was let go
	live   []int32          // live[c] counts the entries in chunks[c]
	spare  []uint32         // indices of let-go chunks
	fill   uint32           // the chunk NewRoute appends to
	routes []routeEntry     // routes[0] is the empty route
	free   []RouteID        // entries with no references, most recent last

	labels   []string         // labels[0] is ""
	labelIDs map[string]label // made once labels outgrow labelScan
}

const (
	// labelScan is the number of labels a lookup scans before the
	// store indexes them in a map.
	labelScan = 8
	// routesCap is the capacity of a store's first route table, enough
	// for a short run's routes in one allocation.
	routesCap = 16
	// An arena chunk holds 1<<chunkShift edges, so an entry's chunk and
	// offset in it share one uint32; a longer route gets a chunk of its
	// own length, at offset 0.
	chunkShift = 10
	chunkEdges = 1 << chunkShift
)

// routeEntry places a route in the arena: at offset at&(chunkEdges-1)
// of chunk at>>chunkShift, n edges. A recycled entry is zero until
// NewRoute reuses it.
type routeEntry struct {
	at, n uint32
	refs  int32
}

// edges returns the chunk holding r and r's offset in it.
func (s *Store) edges(r routeEntry) ([]graph.EdgeID, uint32) {
	return s.chunks[r.at>>chunkShift], r.at & (chunkEdges - 1)
}

// NewRoute copies the concatenation of parts into the store and returns
// the new entry's ID. The entry holds no reference: the caller gives it
// its first (SetRoute, Retain), after which the entry is recycled once
// every reference is dropped.
func (s *Store) NewRoute(parts ...[]graph.EdgeID) RouteID {
	n := 0
	for _, part := range parts {
		n += len(part)
	}
	// A route starts below its chunk's capacity, even an empty one, so
	// its offset fits under chunkShift bits unless it has the chunk to
	// itself.
	c := s.fill
	if len(s.chunks) == 0 || cap(s.chunks[c])-len(s.chunks[c]) < max(n, 1) {
		c = s.newChunk(n)
	}
	r := routeEntry{at: c<<chunkShift | uint32(len(s.chunks[c])), n: uint32(n)}
	for _, part := range parts {
		s.chunks[c] = append(s.chunks[c], part...)
	}
	s.live[c]++
	if k := len(s.free); k > 0 {
		id := s.free[k-1]
		s.free = s.free[:k-1]
		s.routes[id] = r
		return id
	}
	if len(s.routes) == 0 {
		s.routes = make([]routeEntry, 1, routesCap)
	}
	s.routes = append(s.routes, r)
	return RouteID(len(s.routes) - 1)
}

// newChunk makes a chunk with room for n edges the one NewRoute appends
// to, letting the previous one go if it holds no entries, and returns
// its index.
func (s *Store) newChunk(n int) uint32 {
	if len(s.chunks) > 0 && s.live[s.fill] == 0 {
		s.letGo(s.fill)
	}
	edges := make([]graph.EdgeID, 0, max(n, chunkEdges))
	if k := len(s.spare); k > 0 {
		s.fill = s.spare[k-1]
		s.spare = s.spare[:k-1]
		s.chunks[s.fill] = edges
	} else {
		s.fill = uint32(len(s.chunks))
		s.chunks = append(s.chunks, edges)
		s.live = append(s.live, 0)
	}
	return s.fill
}

// letGo drops the store's hold on chunk c, which holds no entries; any
// Route slice still in it keeps it alive, unchanged.
func (s *Store) letGo(c uint32) {
	s.chunks[c] = nil
	s.spare = append(s.spare, c)
}

// Route returns the edges of entry id.
func (s *Store) Route(id RouteID) []graph.EdgeID {
	if id == 0 {
		return nil
	}
	r := s.routes[id]
	c, off := s.edges(r)
	return c[off : off+r.n : off+r.n]
}

// Held reports whether entry id holds a reference, so that its edges are
// the route it was made for and not a recycled entry's.
func (s *Store) Held(id RouteID) bool { return id != 0 && s.routes[id].refs > 0 }

// Retain adds a reference to entry id.
func (s *Store) Retain(id RouteID) {
	if id != 0 {
		s.routes[id].refs++
	}
}

// Drop removes a reference from entry id, recycling the entry when it
// was the last.
func (s *Store) Drop(id RouteID) {
	if id == 0 {
		return
	}
	r := &s.routes[id]
	r.refs--
	if r.refs == 0 {
		c := r.at >> chunkShift
		*r = routeEntry{}
		s.free = append(s.free, id)
		if s.live[c]--; s.live[c] == 0 && c != s.fill {
			s.letGo(c)
		}
	}
}

// LiveRoutes returns the number of route entries that are not on the
// free list: those with references plus any made and not yet retained.
func (s *Store) LiveRoutes() int { return max(len(s.routes)-1, 0) - len(s.free) }

// label interns name: a scan of the first labelScan labels, then a map.
// Adversaries pass the same few strings for every packet, so a scan
// mostly compares a string with itself, which Go does by length and
// address.
func (s *Store) label(name string) label {
	if name == "" {
		return 0
	}
	if s.labelIDs != nil {
		if id, ok := s.labelIDs[name]; ok {
			return id
		}
	} else {
		for i, l := range s.labels {
			if i > 0 && l == name {
				return label(i)
			}
		}
	}
	if len(s.labels) == 0 {
		s.labels = make([]string, 1, labelScan)
	}
	id := label(len(s.labels))
	s.labels = append(s.labels, name)
	if s.labelIDs != nil {
		s.labelIDs[name] = id
	} else if len(s.labels) > labelScan {
		s.labelIDs = make(map[string]label, 2*len(s.labels))
		for i, l := range s.labels[1:] {
			s.labelIDs[l] = label(i + 1)
		}
	}
	return id
}

package packet

// Handle names a packet slot in a Slab. Handles are dense int32 slot
// indices, so rings, free lists and scratch slices of handles hold no
// pointers and cost the garbage collector nothing to scan or to write.
type Handle int32

const (
	// A handle splits into chunk and offset by shift and mask; offset
	// slabSlots (255) is never handed out, so that a chunk fills the
	// 16 KB size class exactly.
	slabShift = 8
	slabSlots = 1<<slabShift - 1

	// chunkPad puts every slot on a cache line of its own. The runtime
	// allocates a 16 KB pointer-bearing object page aligned, behind an
	// 8-byte type header, so 56 bytes of pad start slot 0 at byte 64;
	// without it every slot would straddle two lines.
	// TestSlabSlotsAligned checks this against the running runtime.
	chunkPad = 56
)

// slabChunk is one allocation of slots.
type slabChunk struct {
	_     [chunkPad]byte
	slots [slabSlots]Packet
}

// Slab stores packets in fixed chunks of slabSlots slots, hands out
// their handles, and holds the Store of their routes and labels. Chunks
// never move once allocated, so a *Packet returned by New or Get keeps
// its address for the slab's lifetime; the packet lifetime rule (see
// Packet) is what bounds how long that pointer refers to the same
// packet. Released slots go on a LIFO free list and New reuses them
// before carving a new slot, so a slab's size tracks the peak number of
// live packets. The zero value is an empty slab ready to use; it is not
// safe for concurrent use.
type Slab struct {
	store  *Store // allocated with the first slot
	chunks []*slabChunk
	n      int32    // slots carved so far
	free   []Handle // released slots, most recent last
}

// New returns a zeroed slot and its handle: the most recently released
// slot if any, else the next never-used one, whose store back-pointer it
// sets.
func (s *Slab) New() (Handle, *Packet) {
	if k := len(s.free); k > 0 {
		h := s.free[k-1]
		s.free = s.free[:k-1]
		return h, s.Get(h)
	}
	c, off := s.n/slabSlots, s.n%slabSlots
	if int(c) == len(s.chunks) {
		s.chunks = append(s.chunks, new(slabChunk))
	}
	s.n++
	h := Handle(c<<slabShift | off)
	p := s.Get(h)
	p.store = s.Store()
	return h, p
}

// Store returns the store of the slab's packets, allocating it on first
// use so that an unused slab allocates nothing.
func (s *Slab) Store() *Store {
	if s.store == nil {
		s.store = new(Store)
	}
	return s.store
}

// Get returns the packet in slot h. h must come from New.
func (s *Slab) Get(h Handle) *Packet {
	return &s.chunks[h>>slabShift].slots[h&(1<<slabShift-1)]
}

// Release drops the route reference of the packet in slot h, zeroes the
// slot but for its store back-pointer, and puts it on the free list for
// the next New. The caller must not use h, or any *Packet obtained for
// it, afterwards.
func (s *Slab) Release(h Handle) {
	s.Get(h).reset()
	if s.free == nil {
		// Start where doubling from one would take six allocations.
		s.free = make([]Handle, 0, 64)
	}
	s.free = append(s.free, h)
}

// reset drops p's route reference and zeroes every field but the store
// back-pointer, which the slot keeps for its lifetime: the fields are
// all scalars, so no store here pays a write barrier.
func (p *Packet) reset() {
	p.store.Drop(p.route)
	p.ID, p.InjectedAt, p.ArrivedAt, p.EnqueueSeq = 0, 0, 0, 0
	p.Pos, p.Reroutes, p.route, p.hops, p.tag, p.source = 0, 0, 0, 0, 0, 0
}

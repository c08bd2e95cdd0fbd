package packet

// Handle names a packet slot in a Slab. Handles are dense int32 slot
// indices, so rings, free lists and scratch slices of handles hold no
// pointers and cost the garbage collector nothing to scan or to write.
type Handle int32

// slabChunk is the number of slots per Slab chunk (a power of two, so a
// handle splits into chunk and offset by shift and mask).
const (
	slabShift = 8
	slabChunk = 1 << slabShift
)

// Slab stores packets in fixed chunks of slabChunk slots and hands out
// their handles. Chunks never move once allocated, so a *Packet
// returned by New or Get keeps its address for the slab's lifetime;
// the packet lifetime rule (see Packet) is what bounds how long that
// pointer refers to the same packet. Released slots go on a LIFO free
// list and New reuses them before carving a new slot, so a slab's size
// tracks the peak number of live packets. The zero value is an empty
// slab ready to use; it is not safe for concurrent use.
type Slab struct {
	chunks []*[slabChunk]Packet
	n      int32    // slots carved so far
	free   []Handle // released slots, most recent last
}

// New returns a zeroed slot and its handle: the most recently released
// slot if any, else the next never-used one.
func (s *Slab) New() (Handle, *Packet) {
	if k := len(s.free); k > 0 {
		h := s.free[k-1]
		s.free = s.free[:k-1]
		return h, s.Get(h)
	}
	h := Handle(s.n)
	if int(s.n)>>slabShift == len(s.chunks) {
		s.chunks = append(s.chunks, new([slabChunk]Packet))
	}
	s.n++
	return h, s.Get(h)
}

// Get returns the packet in slot h. h must come from New.
func (s *Slab) Get(h Handle) *Packet {
	return &s.chunks[h>>slabShift][h&(slabChunk-1)]
}

// Release zeroes slot h and puts it on the free list for the next New.
// The caller must not use h, or any *Packet obtained for it, afterwards.
func (s *Slab) Release(h Handle) {
	s.Get(h).reset()
	s.free = append(s.free, h)
}

// reset zeroes p field by field. Assigning Packet{} would clear the
// whole struct through one typed bulk write, which pays a write-barrier
// pass over every pointer slot while the collector is marking; plain
// field stores pay only for the pointer fields that are set.
func (p *Packet) reset() {
	p.ID, p.Pos, p.Reroutes = 0, 0, 0
	p.InjectedAt, p.ArrivedAt, p.EnqueueSeq = 0, 0, 0
	p.Route = nil
	if p.Tag != "" {
		p.Tag = ""
	}
	if p.SourceName != "" {
		p.SourceName = ""
	}
}

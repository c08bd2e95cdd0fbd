// Package buffer implements the per-edge packet buffer of an
// adversarial queuing network.
//
// A buffer keeps packets in enqueue order (front = earliest). It is a
// growable ring deque so that FIFO service — by far the hottest policy
// in the paper's constructions, where single buffers hold tens of
// thousands of packets — pops the front in O(1); removal at an
// arbitrary index (needed by every other policy) moves the shorter
// side of the ring.
//
// The ring holds packet.Handle slot indices into a packet.Slab, not
// pointers, so pushes, pops and shifts are plain integer moves that
// the garbage collector neither scans nor intercepts. The read API
// (Len, At, Front, Back, Each, Slice, IndexOfSeq) resolves handles
// through the slab and returns *packet.Packet as before; the mutators
// (PushBack, RemoveAt, PopFront) take and return handles. The zero
// Buffer must be bound to the slab its handles come from with Bind
// before its first PushBack.
package buffer

import "aqt/internal/packet"

// Buffer is a queue of packets in enqueue order, stored as handles
// into the slab it is bound to.
type Buffer struct {
	ring []packet.Handle
	slab *packet.Slab
	head int32 // index of front element
	n    int32 // number of elements
}

// Bind sets the slab the buffer's handles refer to. An engine binds
// every buffer to its own slab once, at construction.
func (b *Buffer) Bind(s *packet.Slab) { b.slab = s }

// Len returns the number of buffered packets.
func (b *Buffer) Len() int { return int(b.n) }

// At returns the i-th packet in enqueue order (0 = front). It panics
// if i is out of range.
func (b *Buffer) At(i int) *packet.Packet {
	if i < 0 || i >= int(b.n) {
		panic("buffer: index out of range")
	}
	return b.slab.Get(b.ring[b.idx(i)])
}

// Front returns the earliest-enqueued packet. It panics when empty.
func (b *Buffer) Front() *packet.Packet { return b.At(0) }

// Back returns the latest-enqueued packet. It panics when empty.
func (b *Buffer) Back() *packet.Packet { return b.At(int(b.n) - 1) }

// PushBack appends the packet with handle h at the back of the buffer.
func (b *Buffer) PushBack(h packet.Handle) {
	if int(b.n) == len(b.ring) {
		b.grow()
	}
	b.ring[b.idx(int(b.n))] = h
	b.n++
}

// RemoveAt removes the i-th packet in enqueue order and returns its
// handle, preserving the order of the rest. Removing the front or back
// is O(1); the general case moves the shorter side.
func (b *Buffer) RemoveAt(i int) packet.Handle {
	n := int(b.n)
	if i < 0 || i >= n {
		panic("buffer: index out of range")
	}
	h := b.ring[b.idx(i)]
	if i < n-i-1 {
		// Shift the prefix right.
		for j := i; j > 0; j-- {
			b.ring[b.idx(j)] = b.ring[b.idx(j-1)]
		}
		b.head = int32(b.wrap(int(b.head) + 1))
	} else {
		// Shift the suffix left.
		for j := i; j < n-1; j++ {
			b.ring[b.idx(j)] = b.ring[b.idx(j+1)]
		}
	}
	b.n--
	return h
}

// PopFront removes the front packet and returns its handle. It panics
// when empty.
func (b *Buffer) PopFront() packet.Handle { return b.RemoveAt(0) }

// Each calls fn for every packet in enqueue order; it stops early if
// fn returns false.
func (b *Buffer) Each(fn func(p *packet.Packet) bool) {
	for i := 0; i < int(b.n); i++ {
		if !fn(b.slab.Get(b.ring[b.idx(i)])) {
			return
		}
	}
}

// Slice returns the buffered packets as a fresh slice in enqueue order.
func (b *Buffer) Slice() []*packet.Packet {
	out := make([]*packet.Packet, b.n)
	for i := range out {
		out[i] = b.slab.Get(b.ring[b.idx(i)])
	}
	return out
}

// IndexOfSeq returns the position (in enqueue order) of the packet
// with the given EnqueueSeq, or -1 if absent. Because packets enter at
// the back with strictly increasing sequence numbers, the buffer is
// sorted by EnqueueSeq and a binary search suffices — this is how the
// engine's keyed-policy fast path locates a heap-selected packet.
func (b *Buffer) IndexOfSeq(seq int64) int {
	lo, hi := 0, int(b.n)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		s := b.slab.Get(b.ring[b.idx(mid)]).EnqueueSeq
		switch {
		case s == seq:
			return mid
		case s < seq:
			lo = mid + 1
		default:
			hi = mid - 1
		}
	}
	return -1
}

// Clear removes all packets. It does not release their slots.
func (b *Buffer) Clear() { b.head, b.n = 0, 0 }

func (b *Buffer) idx(i int) int {
	return b.wrap(int(b.head) + i)
}

func (b *Buffer) wrap(i int) int {
	if i >= len(b.ring) {
		i -= len(b.ring)
	}
	return i
}

func (b *Buffer) grow() {
	newCap := len(b.ring) * 2
	if newCap < 8 {
		newCap = 8
	}
	fresh := make([]packet.Handle, newCap)
	for i := 0; i < int(b.n); i++ {
		fresh[i] = b.ring[b.idx(i)]
	}
	b.ring = fresh
	b.head = 0
}

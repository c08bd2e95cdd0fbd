package buffer

import (
	"testing"
	"testing/quick"

	"aqt/internal/packet"
)

// newBuf returns an empty buffer bound to a fresh slab.
func newBuf() *Buffer {
	b := new(Buffer)
	b.Bind(new(packet.Slab))
	return b
}

// pk makes a packet with the given ID in b's slab and returns its
// handle.
func pk(b *Buffer, id int) packet.Handle {
	h, p := b.slab.New()
	p.ID = packet.ID(id)
	return h
}

// id returns the ID of the packet in slot h of b's slab.
func id(b *Buffer, h packet.Handle) int { return int(b.slab.Get(h).ID) }

func ids(b *Buffer) []int {
	var out []int
	b.Each(func(p *packet.Packet) bool {
		out = append(out, int(p.ID))
		return true
	})
	return out
}

func eq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPushPopOrder(t *testing.T) {
	b := newBuf()
	for i := 0; i < 20; i++ {
		b.PushBack(pk(b, i))
	}
	if b.Len() != 20 {
		t.Fatalf("Len = %d", b.Len())
	}
	if b.Front().ID != 0 || b.Back().ID != 19 {
		t.Fatal("front/back wrong")
	}
	for i := 0; i < 20; i++ {
		if got := b.PopFront(); id(b, got) != i {
			t.Fatalf("pop %d got %d", i, id(b, got))
		}
	}
	if b.Len() != 0 {
		t.Fatal("not empty after pops")
	}
}

// TestRemoveAtPrefixShiftWrapped drives RemoveAt down its
// prefix-shift branch (i < n-i-1) while the prefix physically wraps
// around the ring end, so the shifted window crosses ring[len-1] →
// ring[0].
func TestRemoveAtPrefixShiftWrapped(t *testing.T) {
	b := newBuf()
	// Fill to capacity 8, then pop 6 so head sits at physical index 6,
	// two slots from the ring end.
	for i := 0; i < 8; i++ {
		b.PushBack(pk(b, i))
	}
	for i := 0; i < 6; i++ {
		b.PopFront()
	}
	// Refill: logical order 6,7,10..15; positions 0 and 1 live at
	// physical 6 and 7, positions 2.. wrap to physical 0..
	for i := 10; i < 16; i++ {
		b.PushBack(pk(b, i))
	}
	if got := ids(b); !eq(got, []int{6, 7, 10, 11, 12, 13, 14, 15}) {
		t.Fatalf("setup = %v", got)
	}
	// Removing position 2 (first wrapped slot) shifts the prefix
	// {6,7} right across the wrap boundary.
	if got := b.RemoveAt(2); id(b, got) != 10 {
		t.Fatalf("RemoveAt(2) = %d, want 10", id(b, got))
	}
	if got := ids(b); !eq(got, []int{6, 7, 11, 12, 13, 14, 15}) {
		t.Fatalf("after wrapped prefix shift: %v", got)
	}
	// Now remove position 1: the whole (shorter) prefix lives past the
	// wrap, exercising idx(j-1) wrapping inside the shift loop.
	if got := b.RemoveAt(1); id(b, got) != 7 {
		t.Fatalf("RemoveAt(1) = %d, want 7", id(b, got))
	}
	if got := ids(b); !eq(got, []int{6, 11, 12, 13, 14, 15}) {
		t.Fatalf("after second shift: %v", got)
	}
	// Drain fully to confirm ring integrity after the wrapped moves.
	want := []int{6, 11, 12, 13, 14, 15}
	for _, w := range want {
		if got := b.PopFront(); id(b, got) != w {
			t.Fatalf("drain got %d, want %d", id(b, got), w)
		}
	}
	if b.Len() != 0 {
		t.Fatal("not empty after drain")
	}
}

// TestRemoveAtSuffixShiftWrapped exercises the suffix-shift branch
// when the suffix crosses the wrap boundary.
func TestRemoveAtSuffixShiftWrapped(t *testing.T) {
	b := newBuf()
	for i := 0; i < 8; i++ {
		b.PushBack(pk(b, i))
	}
	b.PopFront()
	b.PopFront()
	b.PushBack(pk(b, 10))
	b.PushBack(pk(b, 11))
	// Logical 2..7,10,11; head at physical 2; positions 6,7 wrap to
	// physical 0,1. Removing position 5 (physical 7, the last slot)
	// picks the suffix branch and shifts {10,11} left across the ring
	// end.
	if got := b.RemoveAt(5); id(b, got) != 7 {
		t.Fatalf("RemoveAt(5) = %d, want 7", id(b, got))
	}
	if got := ids(b); !eq(got, []int{2, 3, 4, 5, 6, 10, 11}) {
		t.Fatalf("after wrapped suffix shift: %v", got)
	}
	for _, w := range []int{2, 3, 4, 5, 6, 10, 11} {
		if got := b.PopFront(); id(b, got) != w {
			t.Fatalf("drain got %d, want %d", id(b, got), w)
		}
	}
}

func TestWrapAround(t *testing.T) {
	b := newBuf()
	// Force head to travel around the ring repeatedly.
	for round := 0; round < 10; round++ {
		for i := 0; i < 5; i++ {
			b.PushBack(pk(b, round*5+i))
		}
		for i := 0; i < 5; i++ {
			want := round*5 + i
			if got := b.PopFront(); id(b, got) != want {
				t.Fatalf("round %d: got %d want %d", round, id(b, got), want)
			}
		}
	}
}

func TestRemoveAtMiddle(t *testing.T) {
	b := newBuf()
	for i := 0; i < 7; i++ {
		b.PushBack(pk(b, i))
	}
	got := b.RemoveAt(3)
	if id(b, got) != 3 {
		t.Fatalf("RemoveAt(3) = %d", id(b, got))
	}
	if !eq(ids(b), []int{0, 1, 2, 4, 5, 6}) {
		t.Fatalf("order after middle removal: %v", ids(b))
	}
	got = b.RemoveAt(0)
	if id(b, got) != 0 {
		t.Fatalf("RemoveAt(0) = %d", id(b, got))
	}
	got = b.RemoveAt(b.Len() - 1)
	if id(b, got) != 6 {
		t.Fatalf("RemoveAt(last) = %d", id(b, got))
	}
	if !eq(ids(b), []int{1, 2, 4, 5}) {
		t.Fatalf("order: %v", ids(b))
	}
}

func TestAtAndPanics(t *testing.T) {
	b := newBuf()
	b.PushBack(pk(b, 1))
	if b.At(0).ID != 1 {
		t.Error("At(0) wrong")
	}
	for _, f := range []func(){
		func() { b.At(1) },
		func() { b.At(-1) },
		func() { b.RemoveAt(5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range access did not panic")
				}
			}()
			f()
		}()
	}
}

func TestEachEarlyStop(t *testing.T) {
	b := newBuf()
	for i := 0; i < 5; i++ {
		b.PushBack(pk(b, i))
	}
	count := 0
	b.Each(func(p *packet.Packet) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("Each visited %d, want 3", count)
	}
}

func TestSliceAndClear(t *testing.T) {
	b := newBuf()
	for i := 0; i < 4; i++ {
		b.PushBack(pk(b, i))
	}
	s := b.Slice()
	if len(s) != 4 || s[0].ID != 0 || s[3].ID != 3 {
		t.Error("Slice wrong")
	}
	b.Clear()
	if b.Len() != 0 {
		t.Error("Clear failed")
	}
	b.PushBack(pk(b, 9))
	if b.Front().ID != 9 {
		t.Error("buffer unusable after Clear")
	}
}

// Property: a Buffer behaves exactly like a reference slice
// implementation under a random operation sequence.
func TestQuickAgainstReference(t *testing.T) {
	f := func(ops []uint16) bool {
		b := newBuf()
		var ref []*packet.Packet
		next := 0
		for _, op := range ops {
			if op%3 != 0 && len(ref) > 0 {
				i := int(op) % len(ref)
				got := b.slab.Get(b.RemoveAt(i))
				want := ref[i]
				ref = append(ref[:i], ref[i+1:]...)
				if got != want {
					return false
				}
			} else {
				h := pk(b, next)
				next++
				b.PushBack(h)
				ref = append(ref, b.slab.Get(h))
			}
			if b.Len() != len(ref) {
				return false
			}
			for i := range ref {
				if b.At(i) != ref[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestEvictionPatternsPreserveOrder drives the buffer through the
// access patterns the bounded-buffer drop policies use — RemoveAt(0)
// for drop-head, RemoveAt(mid) for drop-ntg victims, PushBack for the
// admitted arrival — at a fixed capacity, and checks the survivors
// keep strictly increasing EnqueueSeq through wraps and evictions
// (the sortedness IndexOfSeq's binary search depends on).
func TestEvictionPatternsPreserveOrder(t *testing.T) {
	const cap = 4
	seq := int64(0)
	push := func(b *Buffer, id int) {
		h := pk(b, id)
		b.slab.Get(h).EnqueueSeq = seq
		seq++
		b.PushBack(h)
	}
	sorted := func(b *Buffer) bool {
		for i := 1; i < b.Len(); i++ {
			if b.At(i-1).EnqueueSeq >= b.At(i).EnqueueSeq {
				return false
			}
		}
		return true
	}
	for name, victim := range map[string]func(b *Buffer, arrival int) int{
		"head": func(*Buffer, int) int { return 0 },
		"ntg":  func(b *Buffer, arrival int) int { return arrival % b.Len() },
	} {
		b := newBuf()
		for id := 0; id < 200; id++ {
			if b.Len() >= cap {
				v := victim(b, id)
				want := b.At(v)
				if got := b.slab.Get(b.RemoveAt(v)); got != want {
					t.Fatalf("%s: RemoveAt(%d) returned %v, want %v", name, v, got, want)
				}
			}
			push(b, id)
			if b.Len() > cap {
				t.Fatalf("%s: occupancy %d exceeds cap %d", name, b.Len(), cap)
			}
			if !sorted(b) {
				t.Fatalf("%s: EnqueueSeq order broken after id %d: %v", name, id, ids(b))
			}
			// IndexOfSeq must still resolve every survivor.
			for i := 0; i < b.Len(); i++ {
				p := b.At(i)
				if got := b.IndexOfSeq(p.EnqueueSeq); got != i {
					t.Fatalf("%s: IndexOfSeq(%d) = %d, want %d", name, p.EnqueueSeq, got, i)
				}
			}
		}
	}
}

func BenchmarkPushPop(b *testing.B) {
	buf := newBuf()
	for i := 0; i < b.N; i++ {
		buf.PushBack(pk(buf, i))
		if buf.Len() > 1000 {
			buf.slab.Release(buf.PopFront())
		}
	}
}

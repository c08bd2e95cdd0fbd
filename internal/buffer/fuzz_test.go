package buffer

import (
	"testing"

	"aqt/internal/packet"
)

// FuzzBufferOps drives a slab-backed Buffer with an arbitrary operation
// tape and checks it against a plain-slice reference, including the
// IndexOfSeq binary search the engine's keyed fast path relies on.
// Removed packets are released, so later pushes reuse their slots.
func FuzzBufferOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 1, 1})
	f.Add([]byte{0, 1, 0, 1, 0, 1})
	f.Add([]byte{2, 2, 0, 0, 0, 0, 1, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 200 {
			ops = ops[:200]
		}
		b := newBuf()
		var ref []*packet.Packet
		seq := int64(0)
		for _, op := range ops {
			switch {
			case op%3 == 0 || len(ref) == 0:
				h, p := b.slab.New()
				p.ID, p.EnqueueSeq = packet.ID(seq), seq
				seq++
				b.PushBack(h)
				ref = append(ref, p)
			case op%3 == 1:
				i := int(op) % len(ref)
				h := b.RemoveAt(i)
				got, want := b.slab.Get(h), ref[i]
				ref = append(ref[:i], ref[i+1:]...)
				if got != want {
					t.Fatalf("RemoveAt(%d) = %v, want %v", i, got, want)
				}
				b.slab.Release(h)
			default:
				h := b.PopFront()
				got, want := b.slab.Get(h), ref[0]
				ref = ref[1:]
				if got != want {
					t.Fatal("PopFront mismatch")
				}
				b.slab.Release(h)
			}
			if b.Len() != len(ref) {
				t.Fatalf("Len %d vs %d", b.Len(), len(ref))
			}
			for i, w := range ref {
				if b.At(i) != w {
					t.Fatalf("At(%d) mismatch", i)
				}
				if got := b.IndexOfSeq(w.EnqueueSeq); got != i {
					t.Fatalf("IndexOfSeq(%d) = %d, want %d", w.EnqueueSeq, got, i)
				}
			}
			if b.IndexOfSeq(seq+1000) != -1 {
				t.Fatal("IndexOfSeq found a missing sequence")
			}
		}
	})
}

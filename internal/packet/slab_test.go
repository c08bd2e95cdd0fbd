package packet

import (
	"reflect"
	"testing"

	"aqt/internal/graph"
)

// TestSlabAddressesStable: a *Packet from Get keeps its address and
// contents while the slab grows by many chunks.
func TestSlabAddressesStable(t *testing.T) {
	var s Slab
	h0, p0 := s.New()
	p0.ID, p0.Tag = 42, "first"
	hs := []Handle{h0}
	for i := 1; i < 20*slabChunk; i++ {
		h, p := s.New()
		p.ID = ID(i)
		hs = append(hs, h)
	}
	if got := s.Get(h0); got != p0 || got.ID != 42 || got.Tag != "first" {
		t.Fatalf("Get(%d) = %p %+v after growth, want %p with ID 42", h0, got, *got, p0)
	}
	for i, h := range hs[1:] {
		if int(s.Get(h).ID) != i+1 {
			t.Fatalf("slot %d holds ID %d, want %d", h, s.Get(h).ID, i+1)
		}
	}
}

// TestSlabReleaseZeroesAndReuses: Release zeroes every field of the
// slot, whatever fields Packet grows, and the next New hands back the
// same slot.
func TestSlabReleaseZeroesAndReuses(t *testing.T) {
	var s Slab
	s.New()
	h, p := s.New()
	s.New()
	v := reflect.ValueOf(p).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 1))
		case reflect.String:
			f.SetString("x")
		case reflect.Slice:
			f.Set(reflect.ValueOf([]graph.EdgeID{1, 2}))
		default:
			t.Fatalf("field %s: kind %s not covered by this test", v.Type().Field(i).Name, f.Kind())
		}
		if f.IsZero() {
			t.Fatalf("field %s still zero", v.Type().Field(i).Name)
		}
	}
	s.Release(h)
	if !v.IsZero() {
		t.Fatalf("released slot not zeroed: %+v", *p)
	}
	h2, p2 := s.New()
	if h2 != h || p2 != p {
		t.Fatalf("New after Release = (%d, %p), want the released (%d, %p)", h2, p2, h, p)
	}
	// LIFO: the most recently released slot comes back first.
	a, _ := s.New()
	b, _ := s.New()
	s.Release(a)
	s.Release(b)
	if got, _ := s.New(); got != b {
		t.Fatalf("New = %d, want the last released %d", got, b)
	}
}

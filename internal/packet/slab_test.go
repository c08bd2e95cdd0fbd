package packet

import (
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"aqt/internal/graph"
)

// TestSlabAddressesStable: a *Packet from Get keeps its address and
// contents while the slab grows by many chunks.
func TestSlabAddressesStable(t *testing.T) {
	var s Slab
	h0, p0 := s.New()
	p0.ID = 42
	p0.SetTag("first")
	hs := []Handle{h0}
	for i := 1; i < 20*slabSlots; i++ {
		h, p := s.New()
		p.ID = ID(i)
		hs = append(hs, h)
	}
	if got := s.Get(h0); got != p0 || got.ID != 42 || got.Tag() != "first" {
		t.Fatalf("Get(%d) = %p %+v after growth, want %p with ID 42", h0, got, *got, p0)
	}
	for i, h := range hs[1:] {
		if int(s.Get(h).ID) != i+1 {
			t.Fatalf("slot %d holds ID %d, want %d", h, s.Get(h).ID, i+1)
		}
	}
}

// TestSlabSlotsAligned: every slot starts on a 64-byte cache line, and
// a chunk with the runtime's 8-byte header fits the 16 KB size class.
func TestSlabSlotsAligned(t *testing.T) {
	if n := unsafe.Sizeof(slabChunk{}) + 8; n > 16384 {
		t.Fatalf("chunk takes %d bytes with its header, want <= 16384", n)
	}
	var s Slab
	for i := 0; i < 3*slabSlots; i++ {
		h, p := s.New()
		if a := uintptr(unsafe.Pointer(p)); a%64 != 0 {
			t.Fatalf("slot %d (handle %#x) at %#x, %d bytes past a cache line", i, h, a, a%64)
		}
	}
}

// TestSlabReleaseZeroesAndReuses: Release zeroes every field of the
// slot, whatever fields Packet grows, but the store back-pointer, drops
// the slot's route reference, and the next New hands back the same
// slot.
func TestSlabReleaseZeroesAndReuses(t *testing.T) {
	var s Slab
	s.New()
	h, p := s.New()
	s.New()
	st := s.Store()
	route := st.NewRoute([]graph.EdgeID{1, 2})
	v := reflect.ValueOf(p).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		name := v.Type().Field(i).Name
		switch {
		case name == "store":
			if f.IsZero() {
				t.Fatal("carved slot has no store back-pointer")
			}
			continue
		case name == "route":
			p.SetRoute(route)
		case name == "tag":
			p.SetTag("x")
		case name == "source":
			p.SetSourceName("y")
		case f.CanSet() && f.CanInt():
			f.SetInt(int64(i + 1))
		case f.CanInt():
			// unexported scalars set through the accessors above
		default:
			t.Fatalf("field %s: kind %s not covered by this test", name, f.Kind())
		}
		if f.IsZero() {
			t.Fatalf("field %s still zero", name)
		}
	}
	if !st.Held(route) {
		t.Fatal("SetRoute took no reference")
	}
	s.Release(h)
	for i := 0; i < v.NumField(); i++ {
		if name := v.Type().Field(i).Name; name != "store" && !v.Field(i).IsZero() {
			t.Fatalf("released slot keeps %s: %+v", name, *p)
		}
	}
	if p.store != st || st.Held(route) {
		t.Fatalf("release lost the back-pointer or kept the route reference")
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

// TestStoreRecyclesEntriesNotEdges: an entry whose last reference is
// dropped is reused by the next NewRoute, in fresh arena space, so a
// slice of the old route keeps its edges and entries track live routes.
func TestStoreRecyclesEntriesNotEdges(t *testing.T) {
	var s Slab
	st := s.Store()
	a := routed(&s, []graph.EdgeID{1, 2, 3}, 0)
	b := routed(&s, []graph.EdgeID{4, 5}, 0)
	c := routed(&s, []graph.EdgeID{7}, 0)
	c.SetRoute(b.RouteID()) // c shares b's route; its own entry is recycled
	if st.LiveRoutes() != 2 {
		t.Fatalf("LiveRoutes = %d, want 2", st.LiveRoutes())
	}
	old := a.Route()
	for i := 0; i < 100; i++ {
		a.SetRoute(st.NewRoute([]graph.EdgeID{graph.EdgeID(10 + i), 9, 8}))
		if st.LiveRoutes() != 2 {
			t.Fatalf("round %d: LiveRoutes = %d, want 2", i, st.LiveRoutes())
		}
	}
	if !slices.Equal(old, []graph.EdgeID{1, 2, 3}) {
		t.Fatalf("a recycled route's slice reads %v, want [1 2 3]", old)
	}
	if len(st.routes) > 4 {
		t.Fatalf("%d route entries made for at most 3 live ones", len(st.routes)-1)
	}
	if !slices.Equal(a.Route(), []graph.EdgeID{109, 9, 8}) {
		t.Fatalf("a reads %v", a.Route())
	}
	s.Release(0)
	s.Release(1)
	s.Release(2)
	if st.LiveRoutes() != 0 {
		t.Fatalf("LiveRoutes = %d after every packet left, want 0", st.LiveRoutes())
	}
}

// TestStoreLetsChunksGo: arena chunks whose routes have all been
// recycled are let go and their indices reused, so a packet rerouted
// many times keeps the arena at a chunk or two, and a slice of one of
// its old routes still reads its edges.
func TestStoreLetsChunksGo(t *testing.T) {
	var s Slab
	st := s.Store()
	p := routed(&s, []graph.EdgeID{1, 2, 3}, 0)
	first := p.Route()
	for i := 0; i < 10*chunkEdges; i++ {
		p.SetRoute(st.NewRoute([]graph.EdgeID{graph.EdgeID(i), 5, 6}))
	}
	held := 0
	for _, c := range st.chunks {
		if c != nil {
			held++
		}
	}
	if held > 2 || len(st.chunks) > 3 {
		t.Fatalf("%d chunks, %d held, for one live route", len(st.chunks), held)
	}
	if !slices.Equal(first, []graph.EdgeID{1, 2, 3}) {
		t.Fatalf("a let-go chunk's route slice reads %v", first)
	}
	if want := []graph.EdgeID{10*chunkEdges - 1, 5, 6}; !slices.Equal(p.Route(), want) {
		t.Fatalf("Route = %v, want %v", p.Route(), want)
	}
}

// TestStoreLongRoute: a route longer than a chunk gets a chunk of its
// own, and every position reads back, as do the routes made around it.
func TestStoreLongRoute(t *testing.T) {
	var s Slab
	st := s.Store()
	long := make([]graph.EdgeID, 3*chunkEdges)
	for i := range long {
		long[i] = graph.EdgeID(i)
	}
	a := routed(&s, []graph.EdgeID{7, 8}, 0)
	p := routed(&s, long, 0)
	b := routed(&s, []graph.EdgeID{9}, 0)
	for i := range long {
		p.Pos = int32(i)
		if p.CurrentEdge() != long[i] {
			t.Fatalf("CurrentEdge at %d = %d", i, p.CurrentEdge())
		}
	}
	if !slices.Equal(p.Route(), long) || !slices.Equal(a.Route(), []graph.EdgeID{7, 8}) ||
		!slices.Equal(b.Route(), []graph.EdgeID{9}) {
		t.Fatalf("routes read %v, %v and a %d-edge route", a.Route(), b.Route(), len(p.Route()))
	}
	if st.LiveRoutes() != 3 {
		t.Fatalf("LiveRoutes = %d, want 3", st.LiveRoutes())
	}
}

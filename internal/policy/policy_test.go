package policy

import (
	"testing"
	"testing/quick"

	"aqt/internal/buffer"
	"aqt/internal/graph"
	"aqt/internal/packet"
)

// spec describes one buffered packet: injectedAt, arrivedAt, pos, routeLen.
type spec [4]int64

// mkQueue builds a buffer of packets from specs, stored in a fresh
// slab as the engine stores them; EnqueueSeq follows slice order. The
// engine guarantees enqueue order == arrival order, so callers keep
// arrivedAt non-decreasing when modeling real buffers.
func mkQueue(specs ...spec) *buffer.Buffer {
	var q buffer.Buffer
	slab := new(packet.Slab)
	q.Bind(slab)
	for i, s := range specs {
		routeLen := int(s[3])
		if routeLen < 1 {
			routeLen = 1
		}
		route := make([]graph.EdgeID, routeLen)
		for j := range route {
			route[j] = graph.EdgeID(j)
		}
		h, p := slab.New()
		p.ID, p.Pos = packet.ID(i), int32(s[2])
		p.InjectedAt, p.ArrivedAt, p.EnqueueSeq = s[0], s[1], int64(i)
		p.SetRoute(slab.Store().NewRoute(route))
		q.PushBack(h)
	}
	return &q
}

func TestFIFOSelectsFront(t *testing.T) {
	q := mkQueue(spec{5, 2, 0, 3}, spec{1, 7, 0, 3}, spec{9, 9, 0, 3})
	if got := (FIFO{}).Select(q, 10); got != 0 {
		t.Errorf("FIFO selected %d, want 0", got)
	}
}

func TestLIFOSelectsBack(t *testing.T) {
	q := mkQueue(spec{1, 2, 0, 3}, spec{1, 5, 0, 3}, spec{1, 9, 0, 3})
	if got := (LIFO{}).Select(q, 10); got != 2 {
		t.Errorf("LIFO selected %d, want 2", got)
	}
	// Explicit equivalence with arg-max over (ArrivedAt, EnqueueSeq)
	// under the engine's enqueue-order invariant.
	best := 0
	for i := 1; i < q.Len(); i++ {
		a, b := q.At(i), q.At(best)
		if a.ArrivedAt > b.ArrivedAt ||
			(a.ArrivedAt == b.ArrivedAt && a.EnqueueSeq > b.EnqueueSeq) {
			best = i
		}
	}
	if best != 2 {
		t.Errorf("reference LIFO arg-max = %d, want 2", best)
	}
}

func TestLISAndSIS(t *testing.T) {
	q := mkQueue(spec{5, 7, 0, 3}, spec{1, 8, 0, 3}, spec{9, 9, 0, 3})
	if got := (LIS{}).Select(q, 10); got != 1 {
		t.Errorf("LIS selected %d, want 1 (oldest injection)", got)
	}
	if got := (SIS{}).Select(q, 10); got != 2 {
		t.Errorf("SIS selected %d, want 2 (newest injection)", got)
	}
	// Tie on injection time: earlier EnqueueSeq wins for both.
	q2 := mkQueue(spec{3, 7, 0, 3}, spec{3, 8, 0, 3})
	if got := (LIS{}).Select(q2, 10); got != 0 {
		t.Errorf("LIS tie selected %d, want 0", got)
	}
	if got := (SIS{}).Select(q2, 10); got != 0 {
		t.Errorf("SIS tie selected %d, want 0", got)
	}
}

func TestFTGAndNTG(t *testing.T) {
	// remaining hops = routeLen - pos: 4, 1, 2
	q := mkQueue(spec{1, 1, 0, 4}, spec{1, 1, 2, 3}, spec{1, 2, 1, 3})
	if got := (FTG{}).Select(q, 10); got != 0 {
		t.Errorf("FTG selected %d, want 0", got)
	}
	if got := (NTG{}).Select(q, 10); got != 1 {
		t.Errorf("NTG selected %d, want 1", got)
	}
}

func TestFFSAndNFS(t *testing.T) {
	// pos: 0, 2, 1
	q := mkQueue(spec{1, 1, 0, 4}, spec{1, 1, 2, 4}, spec{1, 2, 1, 4})
	if got := (FFS{}).Select(q, 10); got != 1 {
		t.Errorf("FFS selected %d, want 1", got)
	}
	if got := (NFS{}).Select(q, 10); got != 0 {
		t.Errorf("NFS selected %d, want 0", got)
	}
}

func TestRandomDeterministicAndInRange(t *testing.T) {
	q := mkQueue(spec{1, 1, 0, 2}, spec{1, 1, 0, 2}, spec{1, 2, 0, 2})
	a := NewRandom(42)
	b := NewRandom(42)
	for i := 0; i < 100; i++ {
		x, y := a.Select(q, int64(i)), b.Select(q, int64(i))
		if x != y {
			t.Fatal("same seed diverged")
		}
		if x < 0 || x >= q.Len() {
			t.Fatalf("selection %d out of range", x)
		}
	}
	if (&Random{}).Name() != "RANDOM" {
		t.Error("Random name wrong")
	}
}

func TestTraits(t *testing.T) {
	cases := []struct {
		p    Policy
		want Traits
	}{
		{FIFO{}, Traits{Historic: true, TimePriority: true}},
		{LIFO{}, Traits{Historic: true}},
		{LIS{}, Traits{Historic: true, TimePriority: true, UniversallyStable: true}},
		{SIS{}, Traits{Historic: true, UniversallyStable: true}},
		{FTG{}, Traits{UniversallyStable: true}},
		{NTG{}, Traits{}},
		{FFS{}, Traits{Historic: true}},
		{NFS{}, Traits{Historic: true, UniversallyStable: true}},
	}
	for _, c := range cases {
		if got := c.p.Traits(); got != c.want {
			t.Errorf("%s traits = %+v, want %+v", c.p.Name(), got, c.want)
		}
	}
	if !(NewRandom(1)).Traits().Historic {
		t.Error("Random should be historic")
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range []string{"FIFO", "LIFO", "LIS", "SIS", "FTG", "NTG", "FFS", "NFS"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown policy should error")
	}
	if len(All()) != 8 {
		t.Errorf("All() = %d policies", len(All()))
	}
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Error("Names not sorted")
		}
	}
}

// Property: every deterministic policy returns an index in range and is
// a pure function of the buffer snapshot.
func TestQuickSelectionValidAndPure(t *testing.T) {
	f := func(raw []uint16, now uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 12 {
			raw = raw[:12]
		}
		specs := make([]spec, len(raw))
		arrived := int64(0)
		for i, v := range raw {
			routeLen := int64(v%5) + 1
			pos := int64(v/5) % routeLen
			arrived += int64(v % 3) // non-decreasing, as in real buffers
			specs[i] = spec{int64(v % 97), arrived, pos, routeLen}
		}
		q := mkQueue(specs...)
		for _, p := range All() {
			i1 := p.Select(q, int64(now))
			i2 := p.Select(q, int64(now))
			if i1 != i2 || i1 < 0 || i1 >= q.Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: FIFO's front equals the arg-min over (ArrivedAt, EnqueueSeq)
// when the buffer is in enqueue order (as the engine maintains it).
func TestQuickFIFOEquivalence(t *testing.T) {
	f := func(n uint8) bool {
		size := int(n%10) + 1
		specs := make([]spec, size)
		arr := int64(0)
		for i := range specs {
			arr += int64(i % 3)
			specs[i] = spec{arr, arr, 0, 3}
		}
		q := mkQueue(specs...)
		best := 0
		for i := 1; i < q.Len(); i++ {
			a, b := q.At(i), q.At(best)
			if a.ArrivedAt < b.ArrivedAt ||
				(a.ArrivedAt == b.ArrivedAt && a.EnqueueSeq < b.EnqueueSeq) {
				best = i
			}
		}
		return (FIFO{}).Select(q, 100) == best
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

package obs_test

import (
	"strings"
	"testing"

	"aqt/internal/obs"
)

func TestHistogramBasics(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("lat")
	for _, v := range []int64{0, 1, 2, 3, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 || s.Min != 0 || s.Max != 100 {
		t.Fatalf("count/min/max = %d/%d/%d, want 5/0/100", s.Count, s.Min, s.Max)
	}
	if got, want := s.Mean(), 106.0/5; got != want {
		t.Errorf("Mean() = %v, want %v", got, want)
	}
	// Quantiles are log2-bucket upper bounds: each must dominate the
	// true quantile and never exceed Max.
	if q := s.Quantile(1.0); q != 100 {
		t.Errorf("Quantile(1.0) = %d, want exact max 100", q)
	}
	if q := s.Quantile(0.5); q < 1 || q > 3 {
		t.Errorf("Quantile(0.5) = %d, want a bound in [1,3]", q)
	}
	if q := s.Quantile(0.01); q != 0 {
		t.Errorf("Quantile(0.01) = %d, want 0 (first observation is 0)", q)
	}
}

func TestHistogramQuantileClampsToMax(t *testing.T) {
	h := obs.NewRegistry().Histogram("h")
	for i := 0; i < 10; i++ {
		h.Observe(5) // bucket top would be 7
	}
	if q := h.Snapshot().Quantile(0.99); q != 5 {
		t.Errorf("Quantile(0.99) = %d, want 5 (bucket top clamped to Max)", q)
	}
}

// TestQuantileNearestRank pins the nearest-rank rule, ceil(q·count),
// at bucket resolution. Truncating q·count lands one observation low:
// p50 of {1, 100, 100} and p99.5 of 99×1 + 1×1000 both reported 1.
func TestQuantileNearestRank(t *testing.T) {
	snap := func(vals ...int64) obs.HistogramSnapshot {
		h := obs.NewRegistry().Histogram("h")
		for _, v := range vals {
			h.Observe(v)
		}
		return h.Snapshot()
	}
	repeat := func(v int64, n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	seq := make([]int64, 100) // 1..100
	for i := range seq {
		seq[i] = int64(i + 1)
	}
	cases := []struct {
		name string
		vals []int64
		q    float64
		want int64
	}{
		{"p50 of 1,100,100", []int64{1, 100, 100}, 0.5, 100},
		{"p99.5 of 99x1 + 1000", append(repeat(1, 99), 1000), 0.995, 1000},
		// 0.9*10 = 9.000000000000002 must stay rank 9, not round up.
		{"p90 of 9x1 + 1000", append(repeat(1, 9), 1000), 0.9, 1},
		{"single", []int64{7}, 0.5, 7},
		{"pair p50", []int64{1, 9}, 0.5, 1},
		{"pair p51", []int64{1, 9}, 0.51, 9},
		{"hundred p50", seq, 0.5, 63},  // rank 50 = 50, bucket [32,64)
		{"hundred p90", seq, 0.9, 100}, // bucket [64,128) clamped to Max
	}
	for _, c := range cases {
		if got := snap(c.vals...).Quantile(c.q); got != c.want {
			t.Errorf("%s: Quantile(%v) = %d, want %d", c.name, c.q, got, c.want)
		}
	}
}

func TestHistogramNegativeClampsToZero(t *testing.T) {
	h := obs.NewRegistry().Histogram("h")
	h.Observe(-7)
	s := h.Snapshot()
	if s.Min != 0 || s.Max != 0 || s.Sum != 0 {
		t.Errorf("negative observation not clamped: %+v", s)
	}
}

func TestRegistryHandlesAreStable(t *testing.T) {
	r := obs.NewRegistry()
	if r.Counter("c") != r.Counter("c") {
		t.Error("Counter returned distinct handles for one name")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Error("Histogram returned distinct handles for one name")
	}
}

func TestSnapshotMerge(t *testing.T) {
	a := obs.NewRegistry()
	a.Counter("sends").Add(10)
	a.Counter("only_a").Add(1)
	ha := a.Histogram("queue")
	ha.Observe(2)
	ha.Observe(8)

	b := obs.NewRegistry()
	b.Counter("sends").Add(5)
	b.Counter("only_b").Add(2)
	hb := b.Histogram("queue")
	hb.Observe(1)
	hb.Observe(32)
	b.Histogram("only_b_hist").Observe(4)

	m := a.Snapshot().Merge(b.Snapshot())
	if v, ok := m.Counter("sends"); !ok || v != 15 {
		t.Errorf("merged sends = %d,%v, want 15,true", v, ok)
	}
	if v, ok := m.Counter("only_a"); !ok || v != 1 {
		t.Errorf("merged only_a = %d,%v", v, ok)
	}
	if v, ok := m.Counter("only_b"); !ok || v != 2 {
		t.Errorf("merged only_b = %d,%v", v, ok)
	}
	q, ok := m.Histogram("queue")
	if !ok || q.Count != 4 || q.Min != 1 || q.Max != 32 || q.Sum != 43 {
		t.Errorf("merged queue = %+v, want count 4, min 1, max 32, sum 43", q)
	}
	if _, ok := m.Histogram("only_b_hist"); !ok {
		t.Error("one-sided histogram dropped by Merge")
	}
	// Deterministic order: sorted by name whatever the merge order.
	for i := 1; i < len(m.Counters); i++ {
		if m.Counters[i-1].Name >= m.Counters[i].Name {
			t.Errorf("counters not sorted: %q >= %q", m.Counters[i-1].Name, m.Counters[i].Name)
		}
	}
	m2 := b.Snapshot().Merge(a.Snapshot())
	if len(m2.Counters) != len(m.Counters) || len(m2.Histograms) != len(m.Histograms) {
		t.Error("Merge is order-sensitive")
	}
}

func TestMergeSnapshotsFoldsMany(t *testing.T) {
	var snaps []obs.Snapshot
	for i := 0; i < 4; i++ {
		r := obs.NewRegistry()
		r.Counter("n").Add(int64(i + 1))
		snaps = append(snaps, r.Snapshot())
	}
	m := obs.MergeSnapshots(snaps...)
	if v, _ := m.Counter("n"); v != 10 {
		t.Errorf("MergeSnapshots counter = %d, want 10", v)
	}
}

func TestWriteText(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("sim.sends").Add(42)
	r.Histogram("sim.latency").Observe(9)
	var sb strings.Builder
	if err := r.Snapshot().WriteText(&sb); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	out := sb.String()
	if !strings.Contains(out, "sim.sends") || !strings.Contains(out, "42") {
		t.Errorf("WriteText missing counter line:\n%s", out)
	}
	if !strings.Contains(out, "sim.latency") || !strings.Contains(out, "max 9") {
		t.Errorf("WriteText missing histogram line:\n%s", out)
	}
}

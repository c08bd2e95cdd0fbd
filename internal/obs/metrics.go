package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
)

// Counter is a monotonically growing (or at least additive) metric.
// Handles are fetched once from a Registry and bumped on the hot path;
// neither Inc nor Add allocates or synchronizes — a Registry and its
// handles are goroutine-confined, like the engine they instrument.
// Cross-goroutine aggregation goes through Snapshot/Merge.
type Counter struct {
	name string
	n    int64
}

// Name returns the counter's registry name.
func (c *Counter) Name() string { return c.name }

// Inc adds 1.
func (c *Counter) Inc() { c.n++ }

// Add adds d.
func (c *Counter) Add(d int64) { c.n += d }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n }

// histBuckets is the number of log2 buckets: bucket b holds values v
// with bits.Len64(v) == b, i.e. v in [2^(b-1), 2^b) (bucket 0 holds
// exactly 0). 64-bit values need 65 buckets.
const histBuckets = 65

// Histogram is a log2-bucketed distribution of non-negative int64
// observations. Observe is O(1) and allocation-free; the fixed bucket
// array makes histograms mergeable by plain addition.
type Histogram struct {
	name    string
	buckets [histBuckets]int64
	count   int64
	sum     int64
	min     int64
	max     int64
}

// Name returns the histogram's registry name.
func (h *Histogram) Name() string { return h.name }

// Observe records v (clamped at 0).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// ObserveN records v exactly n times in O(1) — the bulk form leap-mode
// observers use to fold a window of identical per-step observations
// into the histogram. n <= 0 records nothing. Equivalent to calling
// Observe(v) n times.
func (h *Histogram) ObserveN(v, n int64) {
	if n <= 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))] += n
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count += n
	h.sum += v * n
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Snapshot returns the histogram's current state as a value.
func (h *Histogram) Snapshot() HistogramSnapshot {
	return HistogramSnapshot{Name: h.name, Count: h.count, Sum: h.sum,
		Min: h.min, Max: h.max, Buckets: h.buckets}
}

// Registry is a goroutine-confined set of named counters and
// histograms. Typical use: one Registry per worker/engine, handles
// fetched before the run, Snapshot() after it, snapshots merged across
// workers into one sweep-level summary.
type Registry struct {
	counters map[string]*Counter
	hists    map[string]*Histogram
	// ordC/ordH hold the same metrics sorted by name, maintained at
	// registration time so SnapshotInto can render a deterministic
	// snapshot without sorting (and therefore without allocating).
	ordC []*Counter
	ordH []*Histogram
}

// NewRegistry returns an empty registry. The ordered lists start with
// capacity for the usual engine-metric census so steady registration
// costs one allocation per metric (the value itself), keeping macro
// benchmarks' alloc counts where they were before ordering moved to
// registration time.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
		ordC:     make([]*Counter, 0, 8),
		ordH:     make([]*Histogram, 0, 8),
	}
}

// Counter returns the counter registered under name, creating it on
// first use. Fetch handles outside the hot loop.
func (r *Registry) Counter(name string) *Counter {
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name}
	r.counters[name] = c
	i := sort.Search(len(r.ordC), func(i int) bool { return r.ordC[i].name >= name })
	r.ordC = append(r.ordC, nil)
	copy(r.ordC[i+1:], r.ordC[i:])
	r.ordC[i] = c
	return c
}

// Histogram returns the histogram registered under name, creating it
// on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &Histogram{name: name}
	r.hists[name] = h
	i := sort.Search(len(r.ordH), func(i int) bool { return r.ordH[i].name >= name })
	r.ordH = append(r.ordH, nil)
	copy(r.ordH[i+1:], r.ordH[i:])
	r.ordH[i] = h
	return h
}

// Snapshot captures every metric's current value, sorted by name.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	r.SnapshotInto(&s)
	return s
}

// SnapshotInto captures every metric's current value, sorted by name,
// reusing dst's slices. Once dst has been through one capture (or was
// sized for the registry), subsequent calls are allocation-free — the
// form the live-telemetry publisher uses at every sample boundary.
func (r *Registry) SnapshotInto(dst *Snapshot) {
	if cap(dst.Counters) < len(r.ordC) {
		dst.Counters = make([]CounterSnapshot, 0, len(r.ordC))
	}
	if cap(dst.Histograms) < len(r.ordH) {
		dst.Histograms = make([]HistogramSnapshot, 0, len(r.ordH))
	}
	dst.Counters = dst.Counters[:0]
	dst.Histograms = dst.Histograms[:0]
	for _, c := range r.ordC {
		dst.Counters = append(dst.Counters, CounterSnapshot{Name: c.name, Value: c.n})
	}
	for _, h := range r.ordH {
		dst.Histograms = append(dst.Histograms, h.Snapshot())
	}
}

// CounterSnapshot is one counter's value at snapshot time.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistogramSnapshot is one histogram's state at snapshot time.
type HistogramSnapshot struct {
	Name    string             `json:"name"`
	Count   int64              `json:"count"`
	Sum     int64              `json:"sum"`
	Min     int64              `json:"min"`
	Max     int64              `json:"max"`
	Buckets [histBuckets]int64 `json:"-"`
}

// Mean returns the arithmetic mean of the observations (0 when empty).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile returns an upper bound on the q-quantile (0 < q <= 1) at
// bucket resolution: the top of the log2 bucket containing the rank-q
// observation, clamped to the exact Max. Returns 0 when empty.
func (h HistogramSnapshot) Quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Nearest rank: truncating q·count would land one observation low
	// (p50 of {1, 100, 100} would report 1). The epsilon absorbs float
	// error like 0.9*10 = 9.000000000000002, which would otherwise round
	// a whole rank up.
	rank := int64(math.Ceil(q*float64(h.Count) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for b := 0; b < histBuckets; b++ {
		seen += h.Buckets[b]
		if seen >= rank {
			// Bucket b spans [2^(b-1), 2^b); its inclusive top is 2^b−1.
			if b == 0 {
				return 0
			}
			// For b >= 63 the shift overflows int64 (1<<63 is negative,
			// 1<<64 is zero), which would return a bogus negative bound
			// instead of clamping; the top of those buckets saturates at
			// MaxInt64.
			top := int64(math.MaxInt64)
			if b < 63 {
				top = int64(1)<<uint(b) - 1
			}
			if top > h.Max {
				top = h.Max
			}
			return top
		}
	}
	return h.Max
}

// merge folds o into h (same metric from another worker).
func (h HistogramSnapshot) merge(o HistogramSnapshot) HistogramSnapshot {
	if h.Count == 0 {
		return o
	}
	if o.Count == 0 {
		return h
	}
	out := h
	out.Count += o.Count
	out.Sum += o.Sum
	if o.Min < out.Min {
		out.Min = o.Min
	}
	if o.Max > out.Max {
		out.Max = o.Max
	}
	for b := range out.Buckets {
		out.Buckets[b] += o.Buckets[b]
	}
	return out
}

// Snapshot is an immutable, mergeable view of a Registry. Merging
// sums counters and folds histograms by name, so per-probe metrics
// from goroutine-confined engines aggregate into one sweep-level
// summary without the probes ever sharing state.
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters"`
	Histograms []HistogramSnapshot `json:"histograms"`
}

func (s *Snapshot) sort() {
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
}

// Counter returns the value of the named counter.
func (s Snapshot) Counter(name string) (int64, bool) {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}

// Histogram returns the named histogram snapshot.
func (s Snapshot) Histogram(name string) (HistogramSnapshot, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return HistogramSnapshot{}, false
}

// Merge returns the union of s and o: counters with the same name sum,
// histograms with the same name fold bucket-wise, metrics present on
// only one side carry over. The result is sorted by name, so merging
// is deterministic regardless of worker completion order.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	var out Snapshot
	cs := make(map[string]int64, len(s.Counters)+len(o.Counters))
	for _, c := range s.Counters {
		cs[c.Name] += c.Value
	}
	for _, c := range o.Counters {
		cs[c.Name] += c.Value
	}
	for name, v := range cs {
		out.Counters = append(out.Counters, CounterSnapshot{Name: name, Value: v})
	}
	hs := make(map[string]HistogramSnapshot, len(s.Histograms)+len(o.Histograms))
	for _, h := range s.Histograms {
		hs[h.Name] = h
	}
	for _, h := range o.Histograms {
		if prev, ok := hs[h.Name]; ok {
			hs[h.Name] = prev.merge(h)
		} else {
			hs[h.Name] = h
		}
	}
	for _, h := range hs {
		out.Histograms = append(out.Histograms, h)
	}
	out.sort()
	return out
}

// MergeSnapshots folds any number of snapshots into one.
func MergeSnapshots(ss ...Snapshot) Snapshot {
	var out Snapshot
	for _, s := range ss {
		out = out.Merge(s)
	}
	out.sort()
	return out
}

// WriteText renders the snapshot as a fixed-width text summary:
// counters first, then histograms with count/mean/p50/p99/max.
func (s Snapshot) WriteText(w io.Writer) error {
	for _, c := range s.Counters {
		if _, err := fmt.Fprintf(w, "%-28s %12d\n", c.Name, c.Value); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		if _, err := fmt.Fprintf(w, "%-28s count %-10d mean %-10.1f p50<=%-8d p99<=%-8d max %d\n",
			h.Name, h.Count, h.Mean(), h.Quantile(0.50), h.Quantile(0.99), h.Max); err != nil {
			return err
		}
	}
	return nil
}

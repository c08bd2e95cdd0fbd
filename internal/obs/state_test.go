package obs

import (
	"reflect"
	"testing"
)

// TestRegistryStateRoundTrip: a registry's full contents — including
// zero-valued metrics, whose registration is itself observable state —
// must survive State → RestoreState, and handles fetched before the
// restore must alias the restored values.
func TestRegistryStateRoundTrip(t *testing.T) {
	src := NewRegistry()
	src.Counter("b.count").Add(7)
	src.Counter("a.zero") // registered, never incremented
	h := src.Histogram("lat")
	for _, v := range []int64{0, 1, 1, 9, 300} {
		h.Observe(v)
	}
	src.Histogram("empty")
	st := src.State()

	dst := NewRegistry()
	pre := dst.Counter("b.count") // handle fetched before restore
	if err := dst.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if pre.Value() != 7 {
		t.Errorf("pre-fetched handle reads %d, want 7", pre.Value())
	}
	if !reflect.DeepEqual(src.Snapshot(), dst.Snapshot()) {
		t.Errorf("snapshots differ:\nsrc: %+v\ndst: %+v", src.Snapshot(), dst.Snapshot())
	}
	if !reflect.DeepEqual(st, dst.State()) {
		t.Error("State is not a fixed point across restore")
	}
}

// TestRegistryStateRejects: malformed registry states (reachable from
// fuzzed checkpoint documents) must be rejected with errors.
func TestRegistryStateRejects(t *testing.T) {
	cases := []struct {
		name string
		st   RegistryState
	}{
		{"unsorted counters", RegistryState{Counters: []CounterSnapshot{{Name: "b"}, {Name: "a"}}}},
		{"empty name", RegistryState{Counters: []CounterSnapshot{{Name: ""}}}},
		{"bucket sum mismatch", RegistryState{Histograms: []HistogramState{
			{Name: "h", Count: 5, Buckets: []int64{1, 1}}}}},
		{"negative bucket", RegistryState{Histograms: []HistogramState{
			{Name: "h", Count: 0, Buckets: []int64{2, -2, 1}}}}},
		{"trailing zero bucket", RegistryState{Histograms: []HistogramState{
			{Name: "h", Count: 1, Buckets: []int64{1, 0}}}}},
		{"too many buckets", RegistryState{Histograms: []HistogramState{
			{Name: "h", Count: 0, Buckets: make([]int64, 100)}}}},
	}
	for _, tc := range cases {
		if err := NewRegistry().RestoreState(tc.st); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// TestMeterStateFinishLatch: the Finish latch must survive the round
// trip so a restored meter does not double-finalize derived metrics.
func TestMeterStateFinishLatch(t *testing.T) {
	src := NewMeter(nil)
	src.Registry().Counter("sim.steps").Add(4)
	src.finished = true
	st := src.CheckpointState()
	dst := NewMeter(nil)
	if err := dst.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if !dst.finished {
		t.Error("finish latch lost")
	}
	if !reflect.DeepEqual(src.Registry().Snapshot(), dst.Registry().Snapshot()) {
		t.Error("registries differ")
	}
}

// Serializable dynamic state for the observability layer: registry
// contents (with explicit histogram buckets — HistogramSnapshot's
// bucket array is deliberately excluded from its JSON form, so
// checkpoints carry a dedicated shape) and meter progress. Restore
// methods validate hostile payloads with errors, never panics: they
// are reachable from fuzzed checkpoint documents.
package obs

import (
	"fmt"
	"sort"
)

// HistogramState is one histogram's complete serializable state.
// Buckets are the log2 buckets with trailing zeros trimmed (restore
// pads back to the fixed array).
type HistogramState struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Min     int64   `json:"min,omitempty"`
	Max     int64   `json:"max,omitempty"`
	Buckets []int64 `json:"buckets,omitempty"`
}

// RegistryState is the complete serializable contents of a Registry,
// sorted by name. Zero-valued metrics are carried too: registration
// itself is state (Snapshot lists every registered metric).
type RegistryState struct {
	Counters   []CounterSnapshot `json:"counters,omitempty"`
	Histograms []HistogramState  `json:"histograms,omitempty"`
}

// State extracts the registry's contents for checkpointing.
func (r *Registry) State() RegistryState {
	var st RegistryState
	for name, c := range r.counters {
		st.Counters = append(st.Counters, CounterSnapshot{Name: name, Value: c.n})
	}
	sort.Slice(st.Counters, func(i, j int) bool { return st.Counters[i].Name < st.Counters[j].Name })
	for name, h := range r.hists {
		hs := HistogramState{Name: name, Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
		last := -1
		for b, v := range h.buckets {
			if v != 0 {
				last = b
			}
		}
		if last >= 0 {
			hs.Buckets = append([]int64(nil), h.buckets[:last+1]...)
		}
		st.Histograms = append(st.Histograms, hs)
	}
	sort.Slice(st.Histograms, func(i, j int) bool { return st.Histograms[i].Name < st.Histograms[j].Name })
	return st
}

// RestoreState writes a previously extracted state back through the
// registry's create-on-first-use handles, so any handle already
// fetched from this registry (e.g. by a Meter) observes the restored
// values. Metrics already registered but absent from the state are
// left untouched.
func (r *Registry) RestoreState(st RegistryState) error {
	prev := ""
	for i, cs := range st.Counters {
		if cs.Name == "" || (i > 0 && cs.Name <= prev) {
			return fmt.Errorf("registry state: counters[%d] name %q not strictly increasing", i, cs.Name)
		}
		prev = cs.Name
	}
	prev = ""
	for i := range st.Histograms {
		hs := &st.Histograms[i]
		if hs.Name == "" || (i > 0 && hs.Name <= prev) {
			return fmt.Errorf("registry state: histograms[%d] name %q not strictly increasing", i, hs.Name)
		}
		prev = hs.Name
		if len(hs.Buckets) > histBuckets {
			return fmt.Errorf("registry state: histograms[%d] has %d buckets, max %d", i, len(hs.Buckets), histBuckets)
		}
		var sum int64
		for b, v := range hs.Buckets {
			if v < 0 {
				return fmt.Errorf("registry state: histograms[%d] bucket %d negative", i, b)
			}
			sum += v
		}
		if len(hs.Buckets) > 0 && hs.Buckets[len(hs.Buckets)-1] == 0 {
			return fmt.Errorf("registry state: histograms[%d] has trailing zero buckets", i)
		}
		if sum != hs.Count {
			return fmt.Errorf("registry state: histograms[%d] buckets sum %d != count %d", i, sum, hs.Count)
		}
	}
	for _, cs := range st.Counters {
		r.Counter(cs.Name).n = cs.Value
	}
	for i := range st.Histograms {
		hs := &st.Histograms[i]
		h := r.Histogram(hs.Name)
		h.count, h.sum, h.min, h.max = hs.Count, hs.Sum, hs.Min, hs.Max
		h.buckets = [histBuckets]int64{}
		copy(h.buckets[:], hs.Buckets)
	}
	return nil
}

// MeterState is the serializable state of a Meter: its registry
// contents plus the Finish latch.
type MeterState struct {
	Registry RegistryState `json:"registry"`
	Finished bool          `json:"finished,omitempty"`
}

// CheckpointState extracts the meter's state. Note it captures the
// whole backing registry; meters sharing a registry with other writers
// should be checkpointed at the registry level instead.
func (m *Meter) CheckpointState() MeterState {
	return MeterState{Registry: m.reg.State(), Finished: m.finished}
}

// RestoreState applies a previously extracted state onto a fresh
// Meter. Handles the meter pre-fetched at construction alias the same
// registry entries, so they observe the restored values; the lazily
// registered drop histogram is re-latched when present in the state.
func (m *Meter) RestoreState(st MeterState) error {
	if err := m.reg.RestoreState(st.Registry); err != nil {
		return err
	}
	m.finished = st.Finished
	if m.dropHops == nil {
		if _, ok := m.reg.hists["sim.drop_hops"]; ok {
			m.dropHops = m.reg.Histogram("sim.drop_hops")
		}
	}
	return nil
}

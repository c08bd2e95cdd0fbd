// A registry's complete contents as a plain value, explicit histogram
// buckets included (HistogramSnapshot's bucket array is deliberately
// excluded from its JSON form), for tests and benchmarks that compare
// two registries.
package obs

import "sort"

// HistogramState is one histogram's complete state. Buckets are the
// log2 buckets with trailing zeros trimmed.
type HistogramState struct {
	Name    string
	Count   int64
	Sum     int64
	Min     int64
	Max     int64
	Buckets []int64
}

// RegistryState is the complete contents of a Registry, sorted by
// name. Zero-valued metrics are carried too: registration
// itself is state (Snapshot lists every registered metric).
type RegistryState struct {
	Counters   []CounterSnapshot
	Histograms []HistogramState
}

// State returns a read-only copy of the registry's contents.
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

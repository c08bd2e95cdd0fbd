package expt

import (
	"fmt"
	"sort"
	"time"

	"aqt/internal/obs"
	"aqt/internal/stability"
)

// Result couples a finished experiment with its runtime.
type Result struct {
	Runner  Runner
	Table   *Table
	Elapsed time.Duration
	// Panic holds a recovered panic message, if the runner crashed.
	Panic string
}

// RunAll executes the given runners across a worker pool and returns
// the results in registry order. workers <= 0 means GOMAXPROCS.
// Every experiment is independent (each builds its own graphs and
// engines), so the fan-out is embarrassingly parallel; a crashed
// runner is reported in its Result rather than taking the pool down.
// The runners fan out through stability.SweepGridOpt, so onProgress
// (nil = none) receives its per-runner start/finish reports (the
// -progress status line). The returned Snapshot holds the harness
// metrics — runner wall-clock, table row counts, failure/panic tallies
// — recorded from the ordered results after the pool drains.
func RunAll(runners []Runner, q Quick, workers int, onProgress obs.ProgressFunc) ([]Result, obs.Snapshot) {
	grid := stability.SweepGridOpt(runners, func(r Runner) Result { return runOne(r, q) }, workers, onProgress)
	reg := obs.NewRegistry()
	elapsed := reg.Histogram("expt.elapsed_ms")
	rows := reg.Histogram("expt.table_rows")
	runs := reg.Counter("expt.runs")
	failed := reg.Counter("expt.failed")
	panics := reg.Counter("expt.panics")
	results := make([]Result, len(grid))
	for i, g := range grid {
		res := g.Value // runOne recovers its own panics, so g.Panic is empty
		results[i] = res
		runs.Inc()
		elapsed.Observe(res.Elapsed.Milliseconds())
		if res.Table != nil {
			rows.Observe(int64(len(res.Table.Rows)))
		}
		if res.Table == nil || !res.Table.OK {
			failed.Inc()
		}
		if res.Panic != "" {
			panics.Inc()
		}
	}
	return results, reg.Snapshot()
}

func runOne(r Runner, q Quick) (res Result) {
	res.Runner = r
	start := time.Now()
	defer func() {
		res.Elapsed = time.Since(start)
		if p := recover(); p != nil {
			res.Panic = fmt.Sprint(p)
			res.Table = &Table{ID: r.ID, Title: r.Name, OK: false}
			res.Table.AddNote("runner panicked: %v", p)
		}
	}()
	res.Table = r.Run(q)
	return res
}

// Summary renders a one-line-per-experiment digest sorted by ID:
// letter prefix first, then the numeric suffix compared as a number,
// so E2 precedes E10 (a plain string sort would interleave E10–E13
// between E1 and E2).
func Summary(results []Result) string {
	sorted := append([]Result{}, results...)
	sort.Slice(sorted, func(i, j int) bool {
		return idLess(sorted[i].Runner.ID, sorted[j].Runner.ID)
	})
	out := ""
	for _, r := range sorted {
		status := "PASS"
		if r.Table == nil || !r.Table.OK {
			status = "FAIL"
		}
		out += fmt.Sprintf("%-4s %-45s %-5s %8.2fs\n",
			r.Runner.ID, r.Runner.Name, status, r.Elapsed.Seconds())
	}
	return out
}

// idLess orders experiment IDs by letter prefix, then numeric suffix.
// IDs without a parseable numeric suffix fall back to string order
// after their prefix group.
func idLess(a, b string) bool {
	ap, an, aok := splitID(a)
	bp, bn, bok := splitID(b)
	if ap != bp {
		return ap < bp
	}
	if aok && bok && an != bn {
		return an < bn
	}
	if aok != bok {
		return aok // numbered IDs before unnumbered within a prefix
	}
	return a < b
}

// splitID splits an ID like "E10" into its non-digit prefix and
// numeric suffix; ok is false when there is no numeric suffix.
func splitID(id string) (prefix string, n int, ok bool) {
	i := len(id)
	for i > 0 && id[i-1] >= '0' && id[i-1] <= '9' {
		i--
	}
	if i == len(id) {
		return id, 0, false
	}
	for _, c := range id[i:] {
		n = n*10 + int(c-'0')
	}
	return id[:i], n, true
}

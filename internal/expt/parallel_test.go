package expt

import (
	"strings"
	"sync"
	"testing"
	"time"

	"aqt/internal/obs"
)

func fakeRunner(id string, ok bool, sleep time.Duration) Runner {
	return Runner{
		ID:   id,
		Name: "fake " + id,
		Run: func(Quick) *Table {
			time.Sleep(sleep)
			return &Table{ID: id, Title: "fake", OK: ok}
		},
	}
}

func TestRunAllOrderAndVerdicts(t *testing.T) {
	rs := []Runner{
		fakeRunner("X1", true, 2*time.Millisecond),
		fakeRunner("X2", false, 0),
		fakeRunner("X3", true, time.Millisecond),
	}
	results, _ := RunAll(rs, true, 3, nil)
	if len(results) != 3 {
		t.Fatalf("%d results", len(results))
	}
	for i, r := range results {
		if r.Runner.ID != rs[i].ID {
			t.Errorf("result %d is %s, want %s (registry order must be preserved)", i, r.Runner.ID, rs[i].ID)
		}
		if r.Panic != "" {
			t.Errorf("%s panicked: %s", r.Runner.ID, r.Panic)
		}
	}
	if results[1].Table.OK {
		t.Error("X2 should fail")
	}
	sum := Summary(results)
	if !strings.Contains(sum, "X2") || !strings.Contains(sum, "FAIL") {
		t.Errorf("summary:\n%s", sum)
	}
}

func TestSummaryNumericIDOrder(t *testing.T) {
	// Feed the registry IDs in scrambled order; the digest must come
	// out E1…E13 then F1, F2 — a lexicographic sort would interleave
	// E10–E13 between E1 and E2.
	ids := []string{"E10", "F2", "E2", "E13", "E1", "F1", "E11", "E3",
		"E7", "E12", "E4", "E9", "E5", "E8", "E6"}
	var results []Result
	for _, id := range ids {
		r := fakeRunner(id, true, 0)
		results = append(results, Result{Runner: r, Table: &Table{ID: id, OK: true}})
	}
	sum := Summary(results)
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8",
		"E9", "E10", "E11", "E12", "E13", "F1", "F2"}
	lines := strings.Split(strings.TrimRight(sum, "\n"), "\n")
	if len(lines) != len(want) {
		t.Fatalf("%d summary lines, want %d:\n%s", len(lines), len(want), sum)
	}
	for i, w := range want {
		if got := strings.Fields(lines[i])[0]; got != w {
			t.Fatalf("summary line %d starts with %s, want %s:\n%s", i, got, w, sum)
		}
	}
}

func TestRunAllRecoversPanics(t *testing.T) {
	rs := []Runner{
		fakeRunner("X1", true, 0),
		{ID: "XP", Name: "panicker", Run: func(Quick) *Table { panic("boom") }},
	}
	results, _ := RunAll(rs, true, 2, nil)
	if results[1].Panic != "boom" {
		t.Errorf("panic not captured: %+v", results[1])
	}
	if results[1].Table == nil || results[1].Table.OK {
		t.Error("panicked runner must yield a failing table")
	}
	if results[0].Table == nil || !results[0].Table.OK {
		t.Error("healthy runner affected by sibling panic")
	}
}

func TestRunAllSequentialAndOversized(t *testing.T) {
	rs := []Runner{fakeRunner("X1", true, 0)}
	if got, _ := RunAll(rs, true, 1, nil); len(got) != 1 || !got[0].Table.OK {
		t.Error("sequential run failed")
	}
	if got, _ := RunAll(rs, true, 64, nil); len(got) != 1 {
		t.Error("oversized pool failed")
	}
	if got, _ := RunAll(rs, true, 0, nil); len(got) != 1 {
		t.Error("default pool failed")
	}
}

func TestRunAllActuallyParallel(t *testing.T) {
	// 4 runners sleeping 40ms each must finish well under 160ms with 4
	// workers.
	rs := []Runner{
		fakeRunner("X1", true, 40*time.Millisecond),
		fakeRunner("X2", true, 40*time.Millisecond),
		fakeRunner("X3", true, 40*time.Millisecond),
		fakeRunner("X4", true, 40*time.Millisecond),
	}
	start := time.Now()
	RunAll(rs, true, 4, nil)
	if elapsed := time.Since(start); elapsed > 120*time.Millisecond {
		t.Errorf("parallel run took %v; expected ~40ms", elapsed)
	}
}

// TestRunAllTelemetry pins the harness registry and the progress
// stream over a runner set with one failing and one panicking runner.
func TestRunAllTelemetry(t *testing.T) {
	rs := []Runner{
		fakeRunner("X1", true, time.Millisecond),
		fakeRunner("X2", false, 0),
		{ID: "XP", Name: "panicker", Run: func(Quick) *Table { panic("boom") }},
		fakeRunner("X3", true, 0),
	}
	var (
		mu    sync.Mutex
		last  obs.SweepProgress
		count int
	)
	results, snap := RunAll(rs, true, 2, func(p obs.SweepProgress) {
		mu.Lock()
		defer mu.Unlock()
		if p.Done+p.InFlight > p.Total {
			t.Errorf("report %+v: done+inFlight exceeds total", p)
		}
		last = p
		count++
	})
	if len(results) != len(rs) {
		t.Fatalf("%d results, want %d", len(results), len(rs))
	}
	for name, want := range map[string]int64{"expt.runs": 4, "expt.failed": 2, "expt.panics": 1} {
		if got, ok := snap.Counter(name); !ok || got != want {
			t.Errorf("%s = %d (present %v), want %d", name, got, ok, want)
		}
	}
	if h, ok := snap.Histogram("expt.elapsed_ms"); !ok || h.Count != 4 {
		t.Errorf("expt.elapsed_ms count = %d (present %v), want 4", h.Count, ok)
	}
	if count != 2*len(rs) {
		t.Errorf("%d progress reports, want one start and one finish per runner (%d)", count, 2*len(rs))
	}
	if last.Done != last.Total || last.Total != len(rs) || last.InFlight != 0 {
		t.Errorf("final progress %+v, want Done == Total == %d and InFlight == 0", last, len(rs))
	}
}

// Command experiments regenerates every table of EXPERIMENTS.md: the
// paper's theorems, lemmas, claims and figures (E1-E11, F1-F2) plus
// the literature baselines (B1-B4).
//
// Usage:
//
//	experiments [-quick] [-markdown] [-only E1,E7,B3]
//
// Without flags it runs the full configuration (several minutes); with
// -quick it runs the reduced sizing the unit tests use.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"aqt/internal/expt"
	"aqt/internal/obs"
)

func main() {
	quick := flag.Bool("quick", false, "reduced experiment sizing")
	markdown := flag.Bool("markdown", false, "emit GitHub-flavoured markdown")
	only := flag.String("only", "", "comma-separated experiment ids (default: all)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	jobs := flag.Int("j", 0, "parallel workers (0 = GOMAXPROCS, 1 = sequential)")
	csvDir := flag.String("csvdir", "", "also write one CSV per experiment into this directory")
	progress := flag.Bool("progress", false, "live experiment-progress status line on stderr")
	metrics := flag.Bool("metrics", false, "print the merged harness metrics on stderr")
	trace := flag.String("trace", "", "write a harness-level JSONL event trace to this file")
	serve := flag.String("serve", "", "serve live progress and the merged harness metrics (/progress /metrics /healthz /debug/pprof) on this address")
	flag.Parse()

	runners := expt.All()
	if *list {
		for _, r := range runners {
			fmt.Printf("%-4s %s\n", r.ID, r.Name)
		}
		return
	}
	if *only != "" {
		var filtered []expt.Runner
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			r := expt.ByID(id)
			if r == nil {
				fmt.Fprintf(os.Stderr, "experiments: unknown id %q (try -list)\n", id)
				os.Exit(2)
			}
			filtered = append(filtered, *r)
		}
		runners = filtered
	}

	fmt.Fprintf(os.Stderr, "running %d experiments ...\n", len(runners))
	var onProgress obs.ProgressFunc
	var sl *obs.StatusLine
	if *progress {
		sl = obs.NewStatusLine(os.Stderr)
		onProgress = sl.Progress()
	}
	var srv *obs.Server
	if *serve != "" {
		srv = obs.NewServer()
		addr, err := srv.Start(*serve)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "telemetry: serving on http://%s\n", addr)
		defer srv.Close()
		prev := onProgress
		onProgress = func(p obs.SweepProgress) {
			srv.OnProgress(p)
			if prev != nil {
				prev(p)
			}
		}
	}
	// RunAllTelemetry merges one obs.Registry per worker goroutine into
	// a single snapshot — the sweep-level Merge path.
	results, snap := expt.RunAllTelemetry(runners, expt.Quick(*quick), *jobs, onProgress)
	if srv != nil {
		// The merged cross-worker snapshot becomes the final /metrics
		// exposition once all runners are done.
		srv.PublishSnapshot(snap)
	}
	if sl != nil {
		sl.Finish()
	}
	failed := 0
	for _, res := range results {
		if *markdown {
			res.Table.Markdown(os.Stdout)
		} else {
			res.Table.Render(os.Stdout)
		}
		if !res.Table.OK {
			failed++
		}
		if *csvDir != "" {
			path := filepath.Join(*csvDir, res.Table.ID+".csv")
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(2)
			}
			if err := res.Table.WriteCSV(f); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(2)
			}
			f.Close()
		}
	}
	fmt.Fprint(os.Stderr, expt.Summary(results))
	if *metrics {
		fmt.Fprintln(os.Stderr, "harness metrics (merged across workers):")
		if err := snap.WriteText(os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(2)
		}
	}
	if *trace != "" {
		if err := writeHarnessTrace(*trace, results); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(2)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d table(s) FAILED\n", failed)
		os.Exit(1)
	}
}

// writeHarnessTrace records the experiment lifecycle — one marker per
// completed runner (in registry order), one failure event per panic or
// failed table — in the flight-recorder JSONL schema, self-validated
// on write. Timestamps are cumulative elapsed milliseconds; the
// engines inside the runners are not traced here (use cmd/aqtsim
// -trace for engine-level events).
func writeHarnessTrace(path string, results []expt.Result) error {
	fr := obs.NewFlightRecorder(2 * len(results))
	var t int64
	for _, res := range results {
		t += res.Elapsed.Milliseconds()
		status := "ok"
		if res.Table == nil || !res.Table.OK {
			status = "FAIL"
		}
		fr.Mark(t, fmt.Sprintf("%s %s (%s, %.2fs)",
			res.Runner.ID, res.Runner.Name, status, res.Elapsed.Seconds()))
		if res.Panic != "" {
			fr.RecordFailure(t, fmt.Sprintf("%s panicked: %s", res.Runner.ID, res.Panic))
		} else if res.Table != nil && !res.Table.OK {
			fr.RecordFailure(t, fmt.Sprintf("%s table FAILED", res.Runner.ID))
		}
	}
	n, err := obs.WriteJSONLFile(path, fr.DumpJSONL)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trace: %d events written to %s, schema OK\n", n, path)
	return nil
}

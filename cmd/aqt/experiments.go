package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"aqt/internal/expt"
	"aqt/internal/obs"
)

// cmdExperiments regenerates every table of EXPERIMENTS.md: the
// paper's theorems, lemmas, claims and figures (E1-E14, F1-F2) plus
// the literature baselines (B1-B4).
//
//	aqt experiments [-quick] [-markdown] [-only E1,E7,B3]
//
// Without flags it runs the full configuration (several minutes); with
// -quick it runs the reduced sizing the unit tests use.
func cmdExperiments(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("experiments", stderr)
	quick := fs.Bool("quick", false, "reduced experiment sizing")
	markdown := fs.Bool("markdown", false, "emit GitHub-flavoured markdown")
	only := fs.String("only", "", "comma-separated experiment ids (default: all)")
	list := fs.Bool("list", false, "list experiment ids and exit")
	jobs := fs.Int("j", 0, "parallel workers (0 = GOMAXPROCS, 1 = sequential)")
	csvDir := fs.String("csvdir", "", "also write one CSV per experiment into this directory")
	progress := fs.Bool("progress", false, "live experiment-progress status line on stderr")
	metrics := fs.Bool("metrics", false, "print the merged harness metrics on stderr")
	trace := fs.String("trace", "", "write a harness-level JSONL event trace to this file")
	serve := fs.String("serve", "", "serve live progress and the merged harness metrics (/progress /metrics /healthz /debug/pprof) on this address")
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}

	runners := expt.All()
	if *list {
		for _, r := range runners {
			fmt.Fprintf(stdout, "%-4s %s\n", r.ID, r.Name)
		}
		return 0
	}
	if *only != "" {
		var filtered []expt.Runner
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			r := expt.ByID(id)
			if r == nil {
				return fail(stderr, "experiments", fmt.Errorf("unknown id %q (try -list)", id))
			}
			filtered = append(filtered, *r)
		}
		runners = filtered
	}

	fmt.Fprintf(stderr, "running %d experiments ...\n", len(runners))
	tel, err := startTelemetry(*serve, *progress, stderr)
	if err != nil {
		fail(stderr, "experiments", err)
		return 1
	}
	// RunAll merges one obs.Registry per worker goroutine into a single
	// snapshot — the sweep-level Merge path.
	results, snap := expt.RunAll(runners, expt.Quick(*quick), *jobs, tel.progress())
	if tel.srv != nil {
		// The merged cross-worker snapshot becomes the final /metrics
		// exposition once all runners are done.
		tel.srv.PublishSnapshot(snap)
	}
	tel.finish(false)
	failed := 0
	for _, res := range results {
		if *markdown {
			res.Table.Markdown(stdout)
		} else {
			res.Table.Render(stdout)
		}
		if !res.Table.OK {
			failed++
		}
		if *csvDir != "" {
			f, err := os.Create(filepath.Join(*csvDir, res.Table.ID+".csv"))
			if err == nil {
				err = errors.Join(res.Table.WriteCSV(f), f.Close())
			}
			if err != nil {
				return fail(stderr, "experiments", err)
			}
		}
	}
	fmt.Fprint(stderr, expt.Summary(results))
	if *metrics {
		fmt.Fprintln(stderr, "harness metrics (merged across workers):")
		if err := snap.WriteText(stderr); err != nil {
			return fail(stderr, "experiments", err)
		}
	}
	if *trace != "" {
		if err := writeHarnessTrace(*trace, results, stderr); err != nil {
			return fail(stderr, "experiments", err)
		}
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "aqt experiments: %d table(s) FAILED\n", failed)
		return 1
	}
	return 0
}

// writeHarnessTrace records the experiment lifecycle — one marker per
// completed runner (in registry order), one failure event per panic or
// failed table — in the flight-recorder JSONL schema, self-validated
// on write. Timestamps are cumulative elapsed milliseconds; the
// engines inside the runners are not traced here (use `aqt sim
// -trace` for engine-level events).
func writeHarnessTrace(path string, results []expt.Result, stderr io.Writer) error {
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
	fmt.Fprintf(stderr, "trace: %d events written to %s, schema OK\n", n, path)
	return nil
}

package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"aqt/internal/obs"
	"aqt/internal/scenario"
	"aqt/internal/stability"
)

// cmdScenario validates, runs and emits declarative scenario files
// (see internal/scenario and the README's "Scenario files" section).
func cmdScenario(args []string, stdout, stderr io.Writer) int {
	return dispatch("aqt scenario", []command{
		{"validate", "file.json...: strict validation, line-precise errors", cmdValidate},
		{"run", "[-workers n] file.json...: build + run + deterministic report", cmdRun},
		{"emit", fmt.Sprintf("[-dir scenarios] [id...]: serialize the hand-wired experiments %v", scenario.EmitIDs()), cmdEmit},
	}, args, stdout, stderr)
}

func cmdValidate(files []string, stdout, stderr io.Writer) int {
	if len(files) == 0 {
		return fail(stderr, "scenario validate", errors.New("no files"))
	}
	bad := 0
	for _, f := range files {
		if _, err := scenario.Load(f); err != nil {
			fmt.Fprintln(stderr, err)
			bad++
			continue
		}
		fmt.Fprintf(stdout, "ok\t%s\n", f)
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// runResult is one file's rendered report; rendering happens inside
// the worker, printing in input order afterwards, so the byte output
// is independent of the worker count.
type runResult struct {
	report string
	failed bool
}

func cmdRun(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("scenario run", stderr)
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	every := fs.Int64("checkpoint-every", 0, "write a checkpoint every N steps (0 = off)")
	ckptDir := fs.String("checkpoint-dir", "checkpoints", "directory for -checkpoint-every files (<spec name>.ckpt.json, overwritten per segment)")
	restore := fs.String("restore", "", "resume a single scenario from this checkpoint file (one input file only)")
	serve := fs.String("serve", "", "serve live telemetry (/metrics /series /trace /healthz /debug/pprof) on this address while running (one input file only)")
	serveHold := fs.Bool("serve-hold", false, "with -serve: keep serving the final state after the run until killed")
	sampleEvery := fs.Int64("sample-every", 0, "with -serve: sampling stride for the telemetry sampler attached to the run (0 = auto ~512 samples)")
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}
	files := fs.Args()
	switch {
	case len(files) == 0:
		return fail(stderr, "scenario run", errors.New("no files"))
	case *restore != "" && len(files) != 1:
		return fail(stderr, "scenario run", errors.New("-restore takes exactly one scenario file"))
	case (*serveHold || *sampleEvery > 0) && *serve == "":
		return fail(stderr, "scenario run", errors.New("-serve-hold and -sample-every require -serve"))
	case *serve != "" && len(files) != 1:
		return fail(stderr, "scenario run", errors.New("-serve takes exactly one scenario file"))
	}
	if *every > 0 {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	tel, err := startTelemetry(*serve, false, stderr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	failed := func(err error) runResult { return runResult{report: err.Error() + "\n", failed: true} }
	results := stability.SweepGrid(files, func(path string) runResult {
		b, err := scenario.BuildFile(path)
		if err != nil {
			return failed(err)
		}
		finishMeter := serveObservers(tel, b, *sampleEvery)
		if *restore != "" {
			data, err := os.ReadFile(*restore)
			if err != nil {
				return failed(fmt.Errorf("scenario run: %w", err))
			}
			cp, err := scenario.DecodeCheckpoint(*restore, data)
			if err != nil {
				return failed(err)
			}
			if err := b.Restore(cp); err != nil {
				return failed(fmt.Errorf("scenario run: %w", err))
			}
		}
		var out scenario.Outcome
		switch {
		case *every > 0:
			dest := filepath.Join(*ckptDir, sanitizeName(b.Spec.Name)+".ckpt.json")
			out, err = b.RunCheckpointed(b.Spec.Run.Mode, *every, func(cp *scenario.Checkpoint, step int64) error {
				return os.WriteFile(dest, cp.Encode(), 0o644)
			})
			if err != nil {
				return failed(fmt.Errorf("scenario run: %w", err))
			}
		case *restore != "":
			out = b.RunRemaining()
		default:
			out = b.Run()
		}
		finishMeter()
		var buf bytes.Buffer
		b.WriteReport(&buf, out)
		return runResult{report: buf.String(), failed: !out.OK()}
	}, *workers)
	bad := 0
	for i, gr := range results {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		if gr.Panic != "" {
			fmt.Fprintf(stdout, "%s: PANIC: %s\n", gr.Point, gr.Panic)
			bad++
			continue
		}
		fmt.Fprint(stdout, gr.Value.report)
		if gr.Value.failed {
			bad++
		}
	}
	tel.finish(*serveHold)
	if bad > 0 {
		return 1
	}
	return 0
}

// serveObservers wires a served run's telemetry onto b. Serve-only
// observers fill whatever the spec does not configure — a meter so
// /metrics always has families to expose, and a sampler (stride
// sampleEvery, 0 = ~512 samples) to drive the publish cadence — but
// stay out of Built, so checkpoints still match the spec's observer set
// exactly. Results are unchanged either way (leap windows are exact by
// construction); only the leap window census and per-step cost can
// differ from an unserved run. The returned func latches a serve-only
// meter's end-of-run figures.
func serveObservers(tel *telemetry, b *scenario.Built, sampleEvery int64) (finishMeter func()) {
	finishMeter = func() {}
	if tel.srv == nil {
		return finishMeter
	}
	meter := b.Meter
	if meter == nil {
		meter = obs.NewMeter(nil)
		b.Engine.AddObserver(meter)
		finishMeter = func() { meter.Finish(b.Engine) }
	}
	sam := b.Sampler
	if sam == nil {
		ev := sampleEvery
		if ev <= 0 {
			ev = max(b.Spec.Run.Steps/512, 1)
		}
		sam = obs.NewSampler(obs.SamplerConfig{Every: ev, Meter: meter})
		sam.Attach(b.Engine)
	}
	tel.watch(b.Engine, meter.Registry(), sam, b.Spans, nil)
	return finishMeter
}

// sanitizeName maps a spec's display name to a safe file stem.
func sanitizeName(name string) string {
	if name == "" {
		return "scenario"
	}
	return strings.Map(func(r rune) rune {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || strings.ContainsRune("-_.", r) {
			return r
		}
		return '_'
	}, name)
}

func cmdEmit(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("scenario emit", stderr)
	dir := fs.String("dir", "scenarios", "output directory")
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}
	ids := fs.Args()
	if len(ids) == 0 {
		ids = scenario.EmitIDs()
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	results := stability.SweepGrid(ids, scenario.Emit, 0)
	for _, gr := range results {
		if gr.Panic != "" {
			fmt.Fprintf(stderr, "emit %s: PANIC: %s\n", gr.Point, gr.Panic)
			return 1
		}
		em := gr.Value
		path := filepath.Join(*dir, em.ID+".json")
		if err := os.WriteFile(path, em.Spec.Encode(), 0o644); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote\t%s\t(%s, %d steps)\n", path, em.Spec.Name, em.Spec.Run.Steps)
	}
	return 0
}

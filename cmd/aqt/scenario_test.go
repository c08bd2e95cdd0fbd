package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// goldenFiles are the fast scenarios the golden test runs — every
// topology/adversary family, none of the big replay corpora.
var goldenFiles = []string{"quickstart", "b2", "e7", "e8", "u1"}

// TestRunGoldenWorkerIndependent holds `aqt scenario run` to two promises:
// the byte output is identical whether the files run on 1 worker or 8
// (reports render in the workers, print in input order), and it
// matches the checked-in golden transcript (full determinism across
// runs and machines). Refresh with `go test ./cmd/aqt -update`.
func TestRunGoldenWorkerIndependent(t *testing.T) {
	var paths []string
	for _, f := range goldenFiles {
		p := filepath.Join("..", "..", "scenarios", f+".json")
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("missing scenario %s (run `go run ./cmd/aqt scenario emit`): %v", f, err)
		}
		paths = append(paths, p)
	}

	runWith := func(workers string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		code := cmdScenario(append([]string{"run", "-workers", workers}, paths...), &stdout, &stderr)
		if code != 0 {
			t.Fatalf("run -workers %s exited %d\nstderr: %s\nstdout: %s",
				workers, code, stderr.String(), stdout.String())
		}
		return stdout.String()
	}

	seq := runWith("1")
	par := runWith("8")
	if seq != par {
		t.Fatalf("output depends on worker count:\n-- workers=1 --\n%s\n-- workers=8 --\n%s", seq, par)
	}

	golden := filepath.Join("testdata", "run.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(seq), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if string(want) != seq {
		t.Fatalf("output drifted from %s (re-run with -update if intended):\n-- want --\n%s\n-- got --\n%s",
			golden, want, seq)
	}
}

// TestValidateCorpus runs `aqt scenario validate` over every checked-in
// scenario — the Go-level version of `make scenario-smoke`'s first half.
func TestValidateCorpus(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no scenario corpus: %v", err)
	}
	var stdout, stderr bytes.Buffer
	if code := cmdScenario(append([]string{"validate"}, paths...), &stdout, &stderr); code != 0 {
		t.Fatalf("validate exited %d:\n%s", code, stderr.String())
	}
}

// TestUsage pins the exit codes for bad `aqt scenario` invocations.
func TestUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := cmdScenario(nil, &stdout, &stderr); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if code := cmdScenario([]string{"frobnicate"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown subcommand: exit %d, want 2", code)
	}
	if code := cmdScenario([]string{"run"}, &stdout, &stderr); code != 2 {
		t.Errorf("run with no files: exit %d, want 2", code)
	}
	if code := cmdScenario([]string{"validate", "/nonexistent/x.json"}, &stdout, &stderr); code != 1 {
		t.Errorf("validate missing file: exit %d, want 1", code)
	}
}

// TestRunServeSameReport: `-serve` runs the file through the same
// per-file body as a plain run, with serve-only observers attached, so
// the report is byte-identical.
func TestRunServeSameReport(t *testing.T) {
	path := filepath.Join("..", "..", "scenarios", "e13.json")
	report := func(args ...string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if code := cmdScenario(append(append([]string{"run"}, args...), path), &stdout, &stderr); code != 0 {
			t.Fatalf("run %v exited %d: %s", args, code, stderr.String())
		}
		return stdout.String()
	}
	plain, served := report(), report("-serve", "127.0.0.1:0", "-sample-every", "64")
	if plain != served {
		t.Errorf("served report differs:\n-- plain --\n%s\n-- served --\n%s", plain, served)
	}
}

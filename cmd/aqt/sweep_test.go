package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The two configurations below are the same ones `make sweep-smoke`
// runs; the goldens pin their exact output, and the 1-vs-8 worker
// comparison pins that the pool introduces no ordering or verdict
// nondeterminism.

func sweepOut(t *testing.T, args ...string) string {
	t.Helper()
	var out, errb strings.Builder
	if code := cmdSweep(args, &out, &errb); code != 0 {
		t.Fatalf("sweep %v exited %d: %s", args, code, errb.String())
	}
	return out.String()
}

func checkDeterministic(t *testing.T, golden string, args ...string) {
	t.Helper()
	w1 := sweepOut(t, append([]string{"-workers", "1"}, args...)...)
	w8 := sweepOut(t, append([]string{"-workers", "8"}, args...)...)
	if w1 != w8 {
		t.Errorf("output differs between -workers 1 and -workers 8:\n--- workers=1 ---\n%s--- workers=8 ---\n%s", w1, w8)
	}
	path := filepath.Join("testdata", golden)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(w1), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if w1 != string(want) {
		t.Errorf("output drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, w1, want)
	}
}

func TestRateSweepDeterministicAcrossWorkers(t *testing.T) {
	checkDeterministic(t, "rate_sweep.golden",
		"-n", "6", "-from", "0.5", "-to", "0.8", "-points", "7", "-scap", "800")
}

func TestDepthSweepDeterministicAcrossWorkers(t *testing.T) {
	checkDeterministic(t, "depth_sweep.golden",
		"-rate", "0.7", "-depths", "3,4,6", "-scap", "800")
}

func TestSweepBadDepth(t *testing.T) {
	var out, errb strings.Builder
	if code := cmdSweep([]string{"-rate", "0.7", "-depths", "3,x"}, &out, &errb); code != 2 {
		t.Fatalf("bad depth exited %d, want 2 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "bad depth") {
		t.Errorf("stderr = %q", errb.String())
	}
}

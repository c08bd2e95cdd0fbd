package obs_test

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aqt/internal/adversary"
	"aqt/internal/graph"
	"aqt/internal/obs"
	"aqt/internal/policy"
	"aqt/internal/rational"
	"aqt/internal/sim"
)

func TestFlightRecorderKeepLatest(t *testing.T) {
	fr := obs.NewFlightRecorder(16)
	if fr.Cap() != 16 {
		t.Fatalf("Cap() = %d, want 16", fr.Cap())
	}
	for i := 0; i < 40; i++ {
		fr.Mark(int64(i), "m")
	}
	if fr.Len() != 16 {
		t.Errorf("Len() = %d, want 16", fr.Len())
	}
	if fr.Total() != 40 {
		t.Errorf("Total() = %d, want 40", fr.Total())
	}
	if fr.Overwritten() != 24 {
		t.Errorf("Overwritten() = %d, want 24", fr.Overwritten())
	}
	evs := fr.Events()
	if len(evs) != 16 {
		t.Fatalf("len(Events()) = %d, want 16", len(evs))
	}
	// Keep-latest: the retained window is the last 16 markers, oldest
	// first.
	for i, ev := range evs {
		if want := int64(24 + i); ev.T != want {
			t.Errorf("Events()[%d].T = %d, want %d", i, ev.T, want)
		}
		if ev.Kind != obs.EvMarker {
			t.Errorf("Events()[%d].Kind = %v, want marker", i, ev.Kind)
		}
	}
}

func TestFlightRecorderMinimumCapacity(t *testing.T) {
	if c := obs.NewFlightRecorder(0).Cap(); c != 16 {
		t.Errorf("Cap() = %d, want the 16 floor", c)
	}
}

// TestDumpJSONLRoundTrip drives a real engine so the dump covers the
// packet event kinds, then validates the dump against the schema.
func TestDumpJSONLRoundTrip(t *testing.T) {
	g := graph.Line(4)
	adv := adversary.NewRandomWR(g, 8, rational.New(1, 3), 3, 5)
	e := sim.New(g, policy.FIFO{}, adv)
	fr := obs.NewFlightRecorder(4096)
	e.AddEventObserver(fr)
	e.Run(64)
	e.Annotate("round-trip marker")

	var buf bytes.Buffer
	if err := fr.DumpJSONL(&buf); err != nil {
		t.Fatalf("DumpJSONL: %v", err)
	}
	n, err := obs.ValidateJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ValidateJSONL: %v", err)
	}
	if n != fr.Len() {
		t.Errorf("validated %d lines, recorder retains %d", n, fr.Len())
	}
	for _, kind := range []string{`"kind":"inject"`, `"kind":"send"`, `"kind":"marker"`} {
		if !strings.Contains(buf.String(), kind) {
			t.Errorf("dump is missing %s lines", kind)
		}
	}
	if !strings.Contains(buf.String(), "round-trip marker") {
		t.Errorf("dump is missing the Annotate label")
	}
}

// TestAutoDumpOnce: the first failure event dumps the ring to AutoDump;
// later failures are recorded but do not dump again.
func TestAutoDumpOnce(t *testing.T) {
	var buf bytes.Buffer
	fr := obs.NewFlightRecorder(64)
	fr.AutoDump = &buf
	fr.Mark(1, "before failure")
	fr.RecordFailure(2, "first violation")
	if fr.DumpErr != nil {
		t.Fatalf("DumpErr = %v", fr.DumpErr)
	}
	first := buf.String()
	if first == "" {
		t.Fatal("failure did not auto-dump")
	}
	if n, err := obs.ValidateJSONL(strings.NewReader(first)); err != nil || n != 2 {
		t.Fatalf("auto-dump: %d valid lines, err %v; want 2, nil", n, err)
	}
	if !strings.Contains(first, "first violation") || !strings.Contains(first, "before failure") {
		t.Errorf("auto-dump missing expected events:\n%s", first)
	}
	fr.RecordFailure(3, "second violation")
	if buf.String() != first {
		t.Errorf("second failure dumped again")
	}
	if fr.Len() != 3 {
		t.Errorf("Len() = %d after three events, want 3", fr.Len())
	}
}

func TestValidateJSONLRejectsBadLines(t *testing.T) {
	for _, tc := range []struct{ name, line string }{
		{"not json", "not json\n"},
		{"missing t", `{"kind":"marker","label":"x"}` + "\n"},
		{"negative t", `{"t":-1,"kind":"marker","label":"x"}` + "\n"},
		{"unknown kind", `{"t":1,"kind":"teleport","label":"x"}` + "\n"},
		{"marker without label", `{"t":1,"kind":"marker"}` + "\n"},
		{"send without pkt", `{"t":1,"kind":"send","edge":0,"hops":1}` + "\n"},
	} {
		if _, err := obs.ValidateJSONL(strings.NewReader(tc.line)); err == nil {
			t.Errorf("%s: ValidateJSONL accepted %q", tc.name, tc.line)
		}
	}
}

// TestWriteJSONLFile: the dumps land in the file in order and are
// counted; a dump that breaks the schema is an error, with the file
// kept on disk for inspection.
func TestWriteJSONLFile(t *testing.T) {
	dir := t.TempDir()
	fr := obs.NewFlightRecorder(8)
	fr.Mark(1, "first")
	fr.Mark(2, "second")
	tail := func(w io.Writer) error {
		_, err := io.WriteString(w, `{"t":3,"kind":"sample","label":"backlog","v":0}`+"\n")
		return err
	}
	path := filepath.Join(dir, "ok.jsonl")
	n, err := obs.WriteJSONLFile(path, fr.DumpJSONL, tail)
	if err != nil || n != 3 {
		t.Fatalf("WriteJSONLFile = %d, %v; want 3, nil", n, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(string(data)), "\n"); len(lines) != 3 ||
		!strings.Contains(lines[0], "first") || !strings.Contains(lines[2], `"sample"`) {
		t.Errorf("file content out of order:\n%s", data)
	}

	bad := filepath.Join(dir, "bad.jsonl")
	broken := func(w io.Writer) error {
		_, err := io.WriteString(w, `{"t":1,"kind":"teleport"}`+"\n")
		return err
	}
	if _, err := obs.WriteJSONLFile(bad, fr.DumpJSONL, broken); err == nil || !strings.Contains(err.Error(), "trace schema") {
		t.Errorf("schema break: error %v, want a trace schema error", err)
	}
	if _, err := os.Stat(bad); err != nil {
		t.Errorf("broken trace not kept on disk: %v", err)
	}
}

package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"aqt/internal/adversary"
)

// TestUnboundedEquivalenceCorpus is the bounded-buffer acceptance gate
// for the existing behaviour: the capacity machinery must not perturb
// unbounded executions. For every checked-in scenario and every run
// mode, three engine variants are held bit-identical (snapshot,
// per-edge queue contents, full routes) to a reference built with no
// buffer block:
//
//   - an explicit {"cap": 0} block (the unbounded fast path through
//     tryEnqueue),
//   - a never-full drop-tail buffer at the validation cap (the bounded
//     branch runs on every enqueue but no drop ever fires),
//   - the same with drop-ntg (victim selection wired but unreachable).
//
// Checks are stripped from the variants: the comparison is about the
// execution, and e14's max_dropped requires its buffer block.
func TestUnboundedEquivalenceCorpus(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no scenario corpus (run `go run ./cmd/aqt scenario emit`): %v", err)
	}
	variants := []*BufferSpec{
		{Cap: 0},
		{Cap: maxBufferCap, Drop: "tail"},
		{Cap: maxBufferCap, Drop: "ntg"},
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			base, err := Parse(filepath.Base(path), data)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []string{ModeStep, ModeQuiet, ModeLeap} {
				ref, refOut := runVariant(t, base, nil, mode)
				for _, buf := range variants {
					label := fmt.Sprintf("%s/cap=%d,drop=%s", mode, buf.Cap, buf.Drop)
					got, gotOut := runVariant(t, base, buf, mode)
					if d := got.Engine.Dropped(); d != 0 {
						t.Fatalf("%s: dropped %d packets in a never-full buffer", label, d)
					}
					if err := adversary.SameExecution(ref.Engine, got.Engine); err != nil {
						t.Fatalf("%s diverges from the unbounded reference: %v", label, err)
					}
					if !reflect.DeepEqual(refOut.Snap, gotOut.Snap) {
						t.Fatalf("%s snapshot differs:\nref: %+v\ngot: %+v", label, refOut.Snap, gotOut.Snap)
					}
				}
			}
		})
	}
}

// runVariant builds and runs base with its buffer block replaced by
// buf and its checks stripped.
func runVariant(t *testing.T, base *Spec, buf *BufferSpec, mode string) (*Built, Outcome) {
	t.Helper()
	s := *base
	s.Buffer = buf
	s.Checks = nil
	b, err := Build(&s)
	if err != nil {
		t.Fatalf("Build(buffer=%+v): %v", buf, err)
	}
	return b, b.RunMode(mode)
}

package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"aqt/internal/adversary"
)

// The emitters run full constructions (pumps, cycles); emit once and
// share across every differential subtest.
var (
	emitOnce   sync.Once
	emittedAll []Emitted
)

func allEmitted() []Emitted {
	emitOnce.Do(func() { emittedAll = EmitAll() })
	return emittedAll
}

// TestDifferentialMatrix is the spec compiler's acceptance gate: for
// every emitted experiment and every run mode, the spec-compiled run
// must be bit-identical (snapshot, per-edge queue contents, full
// routes) to the hand-wired construction it serializes.
func TestDifferentialMatrix(t *testing.T) {
	for _, em := range allEmitted() {
		em := em
		// The parallel mode subtests share em.Hand read-only, but the
		// first Snap writes the engine's lazily cached argmax edge;
		// settle it here so they do not race on it.
		em.Hand.Snap()
		for _, mode := range []string{ModeStep, ModeQuiet, ModeLeap} {
			mode := mode
			t.Run(em.ID+"/"+mode, func(t *testing.T) {
				t.Parallel()
				b, err := Build(em.Spec)
				if err != nil {
					t.Fatalf("Build(%s): %v", em.ID, err)
				}
				out := b.RunMode(mode)
				if err := adversary.SameExecution(em.Hand, b.Engine); err != nil {
					t.Fatalf("spec-compiled %q under %s diverges from the hand-wired construction: %v",
						em.ID, mode, err)
				}
				if !out.OK() {
					t.Errorf("%q checks failed under %s: %v", em.ID, mode, out.Failures)
				}
			})
		}
	}
}

// TestEmittedSpecsRoundTrip holds Encode/Parse to a fixed point on
// every emitted spec: the canonical bytes decode to an identical spec,
// and re-encoding reproduces the bytes.
func TestEmittedSpecsRoundTrip(t *testing.T) {
	for _, em := range allEmitted() {
		data := em.Spec.Encode()
		s2, err := Parse(em.ID+".json", data)
		if err != nil {
			t.Fatalf("%s: canonical encoding does not parse: %v", em.ID, err)
		}
		if !reflect.DeepEqual(s2, em.Spec) {
			t.Errorf("%s: Parse(Encode(spec)) differs from spec", em.ID)
		}
		if !bytes.Equal(s2.Encode(), data) {
			t.Errorf("%s: Encode is not a fixed point", em.ID)
		}
	}
}

// TestCorpusEncodesToItself pins Encode's layout: every checked-in
// spec was written by Encode, and re-encoding its parse reproduces the
// file byte for byte.
func TestCorpusEncodesToItself(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no scenarios: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Parse(filepath.Base(p), data)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(s.Encode(), data) {
			t.Errorf("%s: Encode(Parse(file)) differs from the file", p)
		}
	}
}

// TestEmitIDsCovered keeps Emit and EmitIDs in sync.
func TestEmitIDsCovered(t *testing.T) {
	seen := map[string]bool{}
	for _, em := range allEmitted() {
		if em.Spec == nil || em.Hand == nil {
			t.Fatalf("%s: incomplete emission", em.ID)
		}
		if seen[em.ID] {
			t.Fatalf("duplicate emit id %q", em.ID)
		}
		seen[em.ID] = true
	}
	if len(seen) != len(EmitIDs()) {
		t.Fatalf("EmitAll returned %d scenarios, EmitIDs lists %d", len(seen), len(EmitIDs()))
	}
}

package scenario

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzCheckpointLoad fuzzes the checkpoint decoder, seeded with real
// checkpoints generated from every checked-in scenario at two split
// points plus hand-picked rejects. The contract, "reject or resume,
// never panic": any byte string is either rejected with a positioned
// *Error or survives an Encode → Decode → Encode fixed point; and an
// accepted document may always be offered to Restore on a fresh build
// of the scenario whose source it names (rejection is fine, a panic is
// not). A restore replays at most the spec's run.steps.
func FuzzCheckpointLoad(f *testing.F) {
	corpus, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	specs := map[string]*Spec{} // by checkpoint source
	var quick string            // a real quickstart checkpoint, for the hand-picked rejects
	for _, path := range corpus {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		base, err := Parse(filepath.Base(path), data)
		if err != nil {
			f.Fatal(err)
		}
		for _, k := range []int64{1, base.Run.Steps / 2} {
			s := *base
			b, err := Build(&s)
			if err != nil {
				f.Fatal(err)
			}
			specs[b.source()] = base
			b.Engine.Run(k)
			cp, err := b.Checkpoint()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(cp.Encode())
			if filepath.Base(path) == "quickstart.json" && k == 1 {
				quick = string(cp.Encode())
			}
		}
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	// Retired state-carrying versions.
	f.Add([]byte(`{"version": 1, "scenario": "x"}`))
	f.Add([]byte(`{"version": 2, "scenario": "x", "engine": {"version": 1}, "has_latency": true, "latency": [3, 4]}`))
	f.Add([]byte(`{"version": 3, "scenario": "x", "engine": {"version": 1, "num_nodes": 2,
  "num_edges": 1, "policy": "FIFO", "now": 5, "started": true, "next_id": -1}}`))
	// Current documents that must not resume.
	for _, r := range [][2]string{
		{`"mode": "leap"`, `"mode": "warp"`},
		{`"step": 1`, `"step": -1`},
		{`"step": 1`, `"step": 601`},
		{`"step": 1`, `"step": 2`},
		{`"digest": "`, `"digest": "0`},
	} {
		f.Add([]byte(strings.Replace(quick, r[0], r[1], 1)))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := DecodeCheckpoint("fuzz.ckpt", data)
		if err != nil {
			var se *Error
			if !errors.As(err, &se) {
				t.Fatalf("rejection is %T, want *Error: %v", err, err)
			}
			return
		}
		// Accepted: Encode normalizes, and from there the encoding must
		// be a fixed point of Decode ∘ Encode.
		enc := cp.Encode()
		cp2, err := DecodeCheckpoint("fuzz.ckpt", enc)
		if err != nil {
			t.Fatalf("accepted checkpoint fails to re-decode after Encode: %v\nencoded:\n%s", err, enc)
		}
		if enc2 := cp2.Encode(); !bytes.Equal(enc, enc2) {
			t.Fatalf("second Encode differs from first:\n%s\n---\n%s", enc, enc2)
		}
		// Restore must reject gracefully or succeed — never panic.
		base, ok := specs[cp2.Source]
		if !ok {
			return
		}
		s := *base
		b, err := Build(&s)
		if err != nil {
			t.Fatalf("corpus spec %q no longer builds: %v", s.Name, err)
		}
		if err := b.Restore(cp2); err != nil {
			return
		}
		if b.Engine.Now() != cp2.Step {
			t.Fatalf("restored to step %d, checkpoint names %d", b.Engine.Now(), cp2.Step)
		}
		// A restored engine must be runnable.
		if left := s.Run.Steps - cp2.Step; left > 0 {
			b.Engine.Run(min(left, 64))
		}
	})
}

package scenario

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"aqt/internal/adversary"
)

// FuzzCheckpointLoad fuzzes the checkpoint decoder, seeded with real
// checkpoints generated from every checked-in scenario at two split
// points plus hand-picked rejects. The contract: any byte string is
// either rejected with a positioned *Error or survives an
// Encode → Decode → Encode fixed point; and an accepted document may
// always be offered to Restore on a fresh build of the scenario it
// names (rejection is fine, a panic is not).
func FuzzCheckpointLoad(f *testing.F) {
	// Hostile draw counts must not stall an exec on the RandomWR RNG
	// fast-forward; the cap still clears every corpus run by far.
	adversary.MaxRandomDraws.Store(1 << 20)

	corpus, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	specs := map[string]*Spec{}
	for _, path := range corpus {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		base, err := Parse(filepath.Base(path), data)
		if err != nil {
			f.Fatal(err)
		}
		specs[base.Name] = base
		for _, k := range []int64{1, base.Run.Steps / 2} {
			if k < 1 {
				continue
			}
			s := *base
			b, err := Build(&s)
			if err != nil {
				f.Fatal(err)
			}
			b.Engine.Run(k)
			cp, err := b.Checkpoint()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(cp.Encode())
		}
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"version": 1, "scenario": "x"}`))
	f.Add([]byte(`{"version": 3, "scenario": "x", "engine": {"version": 1}}`))
	f.Add([]byte(`{"version": 3, "scenario": "x", "engine": {"version": 1, "num_nodes": 2,
  "num_edges": 1, "policy": "FIFO", "now": 5, "started": true, "next_id": -1}}`))
	// Retired version-2 shapes: the per-packet latency list and its flag.
	f.Add([]byte(`{"version": 2, "scenario": "x", "engine": {"version": 1}, "has_latency": true, "latency": [3, 4]}`))
	f.Add([]byte(`{"version": 3, "scenario": "x", "engine": {"version": 1}, "latency": [-1]}`))

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
		base, ok := specs[cp2.Scenario]
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
		// A restored engine must be runnable.
		if left := s.Run.Steps - cp2.Engine.Now; left > 0 {
			b.Engine.Run(minI64(left, 64))
		}
	})
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

package scenario

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzScenarioLoad fuzzes the full Parse pipeline (strict walk →
// decode → compile), seeded from every checked-in scenario plus a few
// hand-picked rejects. The contract: any byte string is either
// rejected with a positioned *Error or decodes to a spec that survives
// an Encode → Parse round trip unchanged, and Parse accepts exactly
// what the token-Decoder reference walker (strict_test.go) accepts,
// rejecting with the same *Error. Parse must never panic —
// topology builders and adversary constructors are recover-guarded in
// the compiler, and the fuzzer holds them to it.
func FuzzScenarioLoad(f *testing.F) {
	corpus, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	if len(corpus) == 0 {
		f.Log("no scenarios/ corpus found; fuzzing from inline seeds only")
	}
	for _, path := range corpus {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(validBase))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version": 1, "name": "x", "topology": {"kind": "dag", "n": 12, "m": 30, "seed": 5},
  "policy": {"default": "LIS", "edges": {"#0": "FTG"}},
  "adversary": {"kind": "burst", "bursts": [{"start": 2, "period": 3, "burst": 2, "budget": 10, "route": ["#0"]}]},
  "run": {"steps": 50, "mode": "leap", "observers": ["recorder", "latency"]},
  "checks": {"conservation": true, "max_backlog": 100}}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"version": 1, "name": "x", "topology": {"kind": "ring", "n": -3}}`))
	// Duplicate keys: encoding/json would silently keep the last value;
	// the strict walker must reject.
	f.Add([]byte(`{"version": 1, "version": 1, "name": "x"}`))
	f.Add([]byte(`{"version": 1, "name": "x", "topology": {"kind": "ring", "n": 4, "n": 6},
  "policy": {"default": "FIFO"}, "adversary": {"kind": "none"}, "run": {"steps": 10}}`))
	// Bounded buffers: a valid block and two rejects (bad policy name,
	// drop without capacity).
	f.Add([]byte(`{"version": 1, "name": "x", "topology": {"kind": "line", "n": 3},
  "policy": {"default": "FIFO"}, "adversary": {"kind": "none"},
  "buffer": {"cap": 2, "drop": "ntg"},
  "run": {"steps": 10}, "checks": {"conservation": true, "max_dropped": -1}}`))
	f.Add([]byte(`{"version": 1, "name": "x", "topology": {"kind": "line", "n": 3},
  "policy": {"default": "FIFO"}, "adversary": {"kind": "none"},
  "buffer": {"cap": 2, "drop": "red"}, "run": {"steps": 10}}`))
	f.Add([]byte(`{"version": 1, "name": "x", "topology": {"kind": "line", "n": 3},
  "policy": {"default": "FIFO"}, "adversary": {"kind": "none"},
  "buffer": {"cap": 0, "drop": "tail"}, "run": {"steps": 10}}`))

	// Malformed JSON: truncations, bad scalars and misplaced
	// delimiters, each rejected at the Decoder's position.
	f.Add([]byte("{\n  \"version\": 1,\n  \"topology\": {\"kind\": \"ring\""))
	f.Add([]byte(`{"name": "a\u00e9\q", "run": {"observers": [1,,2], "steps": -0.5e+3}}`))
	f.Add([]byte(`{"policy": {"edges": {"g1.e1": "LIS", "g1\u002ee1": "NTG"}}} ]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := sameAsRef(data); err != nil {
			t.Fatal(err)
		}
		s, err := Parse("fuzz.json", data)
		if err != nil {
			var se *Error
			if !errors.As(err, &se) {
				t.Fatalf("rejection is %T, want *Error: %v", err, err)
			}
			return
		}
		// Accepted: Load∘Emit must be a fixed point. Encode the decoded
		// spec and parse it back; the second decode must be valid and
		// identical, and a second encode byte-identical.
		enc := s.Encode()
		s2, err := Parse("fuzz.json", enc)
		if err != nil {
			t.Fatalf("accepted spec fails to re-parse after Encode: %v\nencoded:\n%s", err, enc)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("Encode → Parse is not a fixed point:\nfirst:  %+v\nsecond: %+v", s, s2)
		}
		if enc2 := s2.Encode(); !bytes.Equal(enc, enc2) {
			t.Fatalf("second Encode differs from first:\n%s\n---\n%s", enc, enc2)
		}
	})
}

package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"aqt/internal/sim"
)

// maxFuzzSeed is the largest checked-in spec FuzzScenarioLoad is seeded
// with: a campaign seeded with the 1.5 MB E1 schedule spends its time
// on that input and its mutations (33 executions in 30 s).
// TestLargeSpecsLoad holds the larger specs to the same contract.
const maxFuzzSeed = 64 << 10

// corpusFile is one checked-in spec.
type corpusFile struct {
	name string
	data []byte
}

// corpusSpecs reads the checked-in specs, in file name order.
func corpusSpecs(t testing.TB) []corpusFile {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no scenarios: %v", err)
	}
	specs := make([]corpusFile, len(paths))
	for i, path := range paths {
		specs[i].name = filepath.Base(path)
		if specs[i].data, err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	return specs
}

// checkLoad is FuzzScenarioLoad's contract on one input: data is
// either rejected with a positioned *Error or decodes to a spec that
// survives an Encode → Parse round trip unchanged and whose checkpoint
// source is the digest of its json.Marshal encoding, and Parse agrees
// with the token-Decoder reference walker (strict_test.go).
func checkLoad(t *testing.T, data []byte) {
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
	checkSourceDigest(t, s)
}

// checkSourceDigest holds sourceDigest to its definition,
// sim.SourceDigest(json.Marshal(spec)).
func checkSourceDigest(t *testing.T, s *Spec) {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sourceDigest(s), sim.SourceDigest(data); got != want {
		t.Fatalf("sourceDigest = %s, want %s (json.Marshal digest)", got, want)
	}
}

// FuzzScenarioLoad fuzzes the full Parse pipeline (strict walk →
// decode → compile), seeded from the checked-in scenarios up to
// maxFuzzSeed bytes plus a few hand-picked rejects, under checkLoad's
// contract. Parse must never panic — topology builders and adversary
// constructors are recover-guarded in the compiler, and the fuzzer
// holds them to it.
func FuzzScenarioLoad(f *testing.F) {
	for _, c := range corpusSpecs(f) {
		if len(c.data) <= maxFuzzSeed {
			f.Add(c.data)
		}
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

	// Packet totals that overflow int64, and injection groups that do
	// not decode (positioned at the group).
	f.Add([]byte(replayTotalOverflow))
	f.Add([]byte(seedTotalOverflow))
	f.Add([]byte(strings.Replace(replayTotalOverflow, "[2, 0, 9223372036854775807, 0]", "[2, 0, 1.5, 0]", 1)))
	f.Add([]byte(strings.Replace(replayTotalOverflow, "[2, 0, 9223372036854775807, 0]", "[2, 0, 1]", 1)))

	f.Fuzz(checkLoad)
}

// TestLargeSpecsLoad holds the checked-in specs too large to seed
// FuzzScenarioLoad with to its contract.
func TestLargeSpecsLoad(t *testing.T) {
	n := 0
	for _, c := range corpusSpecs(t) {
		if len(c.data) > maxFuzzSeed {
			n++
			t.Run(c.name, func(t *testing.T) { checkLoad(t, c.data) })
		}
	}
	if n != 4 { // e1, e13, e2, e5
		t.Errorf("%d specs over %d bytes, want 4", n, maxFuzzSeed)
	}
}

package scenario

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"aqt/internal/adversary"
	"aqt/internal/graph"
	"aqt/internal/rational"
)

// validBase is a minimal valid spec; the error tests below mutate one
// aspect at a time. Line numbers in the expectations below refer to
// this layout.
const validBase = `{
  "version": 1,
  "name": "t",
  "topology": {"kind": "ring", "n": 4},
  "policy": {"default": "FIFO"},
  "adversary": {"kind": "none"},
  "run": {"steps": 10}
}
`

// Specs whose packet totals overflow int64: a count near MaxInt64
// used to wrap the running total negative and slip under the cap (the
// replay then panicked in Build; the seeds looped appending ~9.2e18
// packets inside Parse).
var (
	replayTotalOverflow = strings.Replace(validBase, `"adversary": {"kind": "none"}`,
		`"adversary": {"kind": "replay", "replay": {"routes": [["e1"]],
    "injections": [[1, 0, 5, 0], [2, 0, 9223372036854775807, 0]]}}`, 1)
	seedTotalOverflow = strings.Replace(validBase, `"adversary": {"kind": "none"}`,
		`"adversary": {"kind": "none"},
  "seeds": [{"route": ["e1"], "n": 5}, {"route": ["e1"], "n": 9223372036854775807}]`, 1)
)

func TestParseValid(t *testing.T) {
	s, err := Parse("base.json", []byte(validBase))
	if err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if s.Name != "t" || s.Topology.N != 4 {
		t.Fatalf("decoded spec wrong: %+v", s)
	}
}

// specErr parses data and requires an *Error with the given line,
// path, and message substring.
func specErr(t *testing.T, data, wantPath string, wantLine int, wantMsg string) {
	t.Helper()
	_, err := Parse("t.json", []byte(data))
	if err == nil {
		t.Fatalf("spec accepted; want error at %s line %d", wantPath, wantLine)
	}
	var se *Error
	if !errors.As(err, &se) {
		t.Fatalf("error is %T, want *Error: %v", err, err)
	}
	if se.Path != wantPath {
		t.Errorf("path = %q, want %q (err: %v)", se.Path, wantPath, err)
	}
	if se.Line != wantLine {
		t.Errorf("line = %d, want %d (err: %v)", se.Line, wantLine, err)
	}
	if !strings.Contains(se.Msg, wantMsg) {
		t.Errorf("msg = %q, want it to contain %q", se.Msg, wantMsg)
	}
	if !strings.HasPrefix(err.Error(), "t.json:") {
		t.Errorf("rendered error %q does not lead with the file", err)
	}
}

func TestParseErrors(t *testing.T) {
	t.Run("unknown top-level field", func(t *testing.T) {
		specErr(t, `{
  "version": 1,
  "polarity": 3,
  "name": "t"
}
`, "polarity", 3, `unknown field "polarity"`)
	})

	t.Run("unknown nested field", func(t *testing.T) {
		specErr(t, `{
  "version": 1,
  "name": "t",
  "topology": {
    "kind": "ring",
    "count": 4
  },
  "policy": {"default": "FIFO"},
  "adversary": {"kind": "none"},
  "run": {"steps": 10}
}
`, "topology.count", 6, `unknown field "count"`)
	})

	t.Run("duplicate top-level field", func(t *testing.T) {
		// encoding/json would silently keep the second value (last
		// wins); the strict walker must reject at the second occurrence.
		specErr(t, `{
  "version": 1,
  "name": "a",
  "name": "b",
  "topology": {"kind": "ring", "n": 4},
  "policy": {"default": "FIFO"},
  "adversary": {"kind": "none"},
  "run": {"steps": 10}
}
`, "name", 4, `duplicate field "name"`)
	})

	t.Run("duplicate nested field", func(t *testing.T) {
		specErr(t, `{
  "version": 1,
  "name": "t",
  "topology": {
    "kind": "ring",
    "n": 4,
    "n": 6
  },
  "policy": {"default": "FIFO"},
  "adversary": {"kind": "none"},
  "run": {"steps": 10}
}
`, "topology.n", 7, `duplicate field "n"`)
	})

	t.Run("duplicate field inside array element", func(t *testing.T) {
		specErr(t, strings.Replace(validBase, `"adversary": {"kind": "none"}`,
			`"adversary": {"kind": "script", "streams": [
    {"start": 1, "rate": "1/2", "rate": "1/3", "budget": 4, "route": ["e1"]}
  ]}`, 1),
			"adversary.streams[0].rate", 7, `duplicate field "rate"`)
	})

	t.Run("same key in sibling objects is fine", func(t *testing.T) {
		// Duplicate detection is per object, not per path prefix.
		if _, err := Parse("t.json", []byte(strings.Replace(validBase, `"adversary": {"kind": "none"}`,
			`"adversary": {"kind": "script", "streams": [
    {"start": 1, "rate": "1/2", "budget": 4, "route": ["e1"]},
    {"start": 1, "rate": "1/2", "budget": 4, "route": ["e2"]}
  ]}`, 1))); err != nil {
			t.Fatalf("sibling objects with equal keys rejected: %v", err)
		}
	})

	t.Run("type mismatch", func(t *testing.T) {
		_, err := Parse("t.json", []byte(`{
  "version": 1,
  "name": "t",
  "topology": {"kind": "ring", "n": 4},
  "policy": {"default": "FIFO"},
  "adversary": {"kind": "none"},
  "run": {"steps": "ten"}
}
`))
		var se *Error
		if !errors.As(err, &se) {
			t.Fatalf("want *Error, got %v", err)
		}
		if se.Line != 7 || !strings.Contains(se.Msg, "cannot decode") {
			t.Errorf("got %v; want a line-7 decode error", err)
		}
	})

	t.Run("trailing data", func(t *testing.T) {
		_, err := Parse("t.json", []byte(validBase+"{}\n"))
		var se *Error
		if !errors.As(err, &se) || !strings.Contains(se.Msg, "trailing data") {
			t.Errorf("got %v; want trailing data error", err)
		}
	})

	t.Run("bad version", func(t *testing.T) {
		specErr(t, strings.Replace(validBase, `"version": 1`, `"version": 2`, 1),
			"version", 2, "unsupported spec version 2")
	})

	t.Run("unknown topology kind", func(t *testing.T) {
		specErr(t, strings.Replace(validBase, `"kind": "ring"`, `"kind": "torus"`, 1),
			"topology.kind", 4, `unknown topology "torus"`)
	})

	t.Run("builder panic cited verbatim", func(t *testing.T) {
		specErr(t, strings.Replace(validBase, `"n": 4`, `"n": 1`, 1),
			"topology", 4, "graph: Ring needs n >= 2")
	})

	t.Run("unknown policy", func(t *testing.T) {
		specErr(t, strings.Replace(validBase, `"default": "FIFO"`, `"default": "fifo"`, 1),
			"policy.default", 5, `unknown policy "fifo"`)
	})

	t.Run("unknown run mode", func(t *testing.T) {
		specErr(t, strings.Replace(validBase, `"run": {"steps": 10}`, `"run": {"steps": 10, "mode": "warp"}`, 1),
			"run.mode", 7, `unknown run mode "warp"`)
	})

	t.Run("unknown observer", func(t *testing.T) {
		specErr(t, strings.Replace(validBase, `"run": {"steps": 10}`,
			`"run": {"steps": 10, "observers": ["recorder", "speed"]}`, 1),
			"run.observers[1]", 7, `unknown observer "speed"`)
	})

	t.Run("window observer without window block", func(t *testing.T) {
		specErr(t, strings.Replace(validBase, `"run": {"steps": 10}`,
			`"run": {"steps": 10, "observers": ["window"]}`, 1),
			"run.window", 7, "require each other")
	})

	t.Run("stray block for kind", func(t *testing.T) {
		specErr(t, strings.Replace(validBase, `"adversary": {"kind": "none"}`,
			`"adversary": {"kind": "none", "random": {"w": 10, "rate": "1/2", "maxlen": 1, "seed": 1}}`, 1),
			"adversary.random", 6, `none adversary does not take "random"`)
	})

	t.Run("sequence cannot nest", func(t *testing.T) {
		specErr(t, strings.Replace(validBase, `"adversary": {"kind": "none"}`,
			`"adversary": {"kind": "sequence", "phases": [
    {"until": 5, "adversary": {"kind": "sequence", "phases": [
      {"until": 3, "adversary": {"kind": "none"}}
    ]}}
  ]}`, 1),
			"adversary.phases[0].adversary", 7, "cannot nest another sequence")
	})

	t.Run("unknown edge in route", func(t *testing.T) {
		specErr(t, strings.Replace(validBase, `"adversary": {"kind": "none"}`,
			`"adversary": {"kind": "script", "streams": [
    {"start": 1, "rate": "1/2", "budget": 4, "route": ["e1", "nope"]}
  ]}`, 1),
			"adversary.streams[0].route[1]", 7, `unknown edge "nope"`)
	})

	t.Run("non-simple route", func(t *testing.T) {
		specErr(t, strings.Replace(validBase, `"adversary": {"kind": "none"}`,
			`"adversary": {"kind": "script", "streams": [
    {"start": 1, "rate": "1/2", "budget": 4, "route": ["e1", "e3"]}
  ]}`, 1),
			"adversary.streams[0].route", 7, "not a simple path")
	})

	t.Run("negative buffer cap", func(t *testing.T) {
		specErr(t, strings.Replace(validBase, `"adversary": {"kind": "none"}`,
			`"adversary": {"kind": "none"},
  "buffer": {"cap": -1}`, 1),
			"buffer.cap", 7, "cap must be in [0,")
	})

	t.Run("unknown drop policy", func(t *testing.T) {
		specErr(t, strings.Replace(validBase, `"adversary": {"kind": "none"}`,
			`"adversary": {"kind": "none"},
  "buffer": {"cap": 4, "drop": "red"}`, 1),
			"buffer.drop", 7, `unknown drop policy "red"`)
	})

	t.Run("replay total overflows", func(t *testing.T) {
		specErr(t, replayTotalOverflow, "adversary.replay.injections[1]", 7,
			"more than 4194304 replayed packets in total")
		var s Spec
		if err := json.Unmarshal([]byte(replayTotalOverflow), &s); err != nil {
			t.Fatal(err)
		}
		if _, err := Build(&s); err == nil {
			t.Error("Build accepted the overflowing replay")
		}
	})

	t.Run("seed total overflows", func(t *testing.T) {
		specErr(t, seedTotalOverflow, "seeds[1]", 7, "more than 2097152 seed packets in total")
	})

	t.Run("drop policy with unbounded cap", func(t *testing.T) {
		specErr(t, strings.Replace(validBase, `"adversary": {"kind": "none"}`,
			`"adversary": {"kind": "none"},
  "buffer": {"cap": 0, "drop": "tail"}`, 1),
			"buffer.drop", 7, "needs cap >= 1")
	})
}

// TestAdversaryMessagesVerbatim holds spec rejections to the exact
// messages the hand-wired constructors panic with: a scenario author
// debugging a bad spec sees the same diagnostics as a Go caller.
func TestAdversaryMessagesVerbatim(t *testing.T) {
	t.Run("stream", func(t *testing.T) {
		bad := adversary.Stream{Start: 1, Rate: rational.New(0, 1), Budget: 4,
			Route: []graph.EdgeID{0}}
		want := adversary.CheckStream(bad)
		if want == nil {
			t.Fatal("expected CheckStream to reject rate 0")
		}
		_, err := Parse("t.json", []byte(strings.Replace(validBase, `"adversary": {"kind": "none"}`,
			`"adversary": {"kind": "script", "streams": [
    {"start": 1, "rate": "0", "budget": 4, "route": ["e1"]}
  ]}`, 1)))
		var se *Error
		if !errors.As(err, &se) {
			t.Fatalf("want *Error, got %v", err)
		}
		if se.Msg != want.Error() {
			t.Errorf("spec error %q != constructor error %q", se.Msg, want.Error())
		}
	})

	t.Run("window rate", func(t *testing.T) {
		want := adversary.CheckWindowRate(2, rational.New(1, 3))
		if want == nil {
			t.Fatal("expected CheckWindowRate to reject (2, 1/3)")
		}
		_, err := Parse("t.json", []byte(strings.Replace(validBase, `"adversary": {"kind": "none"}`,
			`"adversary": {"kind": "random", "random": {"w": 2, "rate": "1/3", "maxlen": 1, "seed": 7}}`, 1)))
		var se *Error
		if !errors.As(err, &se) {
			t.Fatalf("want *Error, got %v", err)
		}
		if se.Msg != want.Error() {
			t.Errorf("spec error %q != constructor error %q", se.Msg, want.Error())
		}
	})
}

// TestValidateWithoutFile checks the Go-API path: semantic errors from
// a programmatically built spec carry paths but no file/line noise.
func TestValidateWithoutFile(t *testing.T) {
	s := &Spec{Version: Version, Name: "x",
		Topology:  TopologySpec{Kind: "ring", N: 4},
		Policy:    PolicySpec{Default: "NOPE"},
		Adversary: AdversarySpec{Kind: "none"},
		Run:       RunSpec{Steps: 5},
	}
	err := s.Validate()
	var se *Error
	if !errors.As(err, &se) {
		t.Fatalf("want *Error, got %v", err)
	}
	if se.Path != "policy.default" || se.File != "" {
		t.Errorf("got %+v; want path policy.default, empty file", se)
	}
}

// TestChecksCrossRequirements covers the check/observer coupling.
func TestChecksCrossRequirements(t *testing.T) {
	base := func() *Spec {
		return &Spec{Version: Version, Name: "x",
			Topology:  TopologySpec{Kind: "ring", N: 4},
			Policy:    PolicySpec{Default: "FIFO"},
			Adversary: AdversarySpec{Kind: "none"},
			Run:       RunSpec{Steps: 5},
		}
	}
	s := base()
	s.Checks = &ChecksSpec{MaxBacklog: 10}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "recorder") {
		t.Errorf("max_backlog without recorder: got %v", err)
	}
	s = base()
	s.Checks = &ChecksSpec{WindowCompliant: true}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "window") {
		t.Errorf("window_compliant without window: got %v", err)
	}
	s = base()
	s.Run.Observers = []string{"recorder", "recorder"}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate observer") {
		t.Errorf("duplicate observer: got %v", err)
	}
	s = base()
	s.Checks = &ChecksSpec{MaxDropped: 5}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "bounded buffer") {
		t.Errorf("max_dropped without buffer block: got %v", err)
	}
	s = base()
	s.Buffer = &BufferSpec{Cap: 2, Drop: "head"}
	s.Checks = &ChecksSpec{MaxDropped: -2}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), ">= -1") {
		t.Errorf("max_dropped below -1: got %v", err)
	}
	s = base()
	s.Buffer = &BufferSpec{Cap: 2, Drop: "ntg"}
	s.Checks = &ChecksSpec{MaxDropped: -1}
	if err := s.Validate(); err != nil {
		t.Errorf("bounded buffer with max_dropped -1 rejected: %v", err)
	}
}

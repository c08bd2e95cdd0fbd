package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// WriteJSONLFile writes the dumps to path in order — the cmd -trace
// files — and validates the written bytes against the JSONL schema,
// returning the number of events. A schema break is reported as an
// error; the file stays on disk for inspection.
func WriteJSONLFile(path string, dumps ...func(io.Writer) error) (int, error) {
	var buf bytes.Buffer
	for _, dump := range dumps {
		if err := dump(&buf); err != nil {
			return 0, err
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return 0, err
	}
	n, err := ValidateJSONL(&buf)
	if err != nil {
		return 0, fmt.Errorf("trace schema: %w", err)
	}
	return n, nil
}

// ValidateJSONL checks that r is a well-formed telemetry dump: every
// non-empty line is a JSON object with an integer "t" >= 0 and a known
// "kind"; packet kinds (inject/send/absorb/reroute/drop) must carry
// "pkt", "edge" and "hops", marker/failure lines must carry a
// non-empty "label", and leap lines must carry a positive "hops"
// (window length) plus a label. Two telemetry kinds extend the flight
// schema: "sample" lines (Sampler time series) need a series name in
// "label" and a value in "v"; "span" lines (SpanTracer) need
// pkt/edge/hops, a non-negative end-to-end latency in "aux", an
// outcome label (absorb|drop), and — when present — a "path" of at
// most min(hops, SpanMaxHops) [edge,t,wait] triples. It returns the
// number of validated events. The `make trace-smoke` and
// `make telemetry-smoke` targets run the cmd dumps through this.
func ValidateJSONL(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	n := 0
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var ev struct {
			T     *int64    `json:"t"`
			Kind  *string   `json:"kind"`
			Pkt   *int64    `json:"pkt"`
			Edge  *int64    `json:"edge"`
			Hops  *int      `json:"hops"`
			Aux   *int64    `json:"aux"`
			V     *int64    `json:"v"`
			Label string    `json:"label"`
			Path  [][]int64 `json:"path"`
		}
		if err := json.Unmarshal(raw, &ev); err != nil {
			return n, fmt.Errorf("line %d: %v", line, err)
		}
		if ev.T == nil || *ev.T < 0 {
			return n, fmt.Errorf("line %d: missing or negative \"t\"", line)
		}
		if ev.Kind == nil {
			return n, fmt.Errorf("line %d: missing \"kind\"", line)
		}
		switch *ev.Kind {
		case "inject", "send", "absorb", "reroute", "drop":
			if ev.Pkt == nil || ev.Edge == nil || ev.Hops == nil {
				return n, fmt.Errorf("line %d: %s event needs pkt/edge/hops", line, *ev.Kind)
			}
		case "marker", "failure":
			if ev.Label == "" {
				return n, fmt.Errorf("line %d: %s event needs a label", line, *ev.Kind)
			}
		case "leap":
			if ev.Hops == nil || *ev.Hops < 1 {
				return n, fmt.Errorf("line %d: leap event needs a positive hops window", line)
			}
			if ev.Label == "" {
				return n, fmt.Errorf("line %d: leap event needs a label", line)
			}
		case "sample":
			if ev.Label == "" {
				return n, fmt.Errorf("line %d: sample event needs a series name label", line)
			}
			if ev.V == nil {
				return n, fmt.Errorf("line %d: sample event needs a value \"v\"", line)
			}
		case "span":
			if ev.Pkt == nil || ev.Edge == nil || ev.Hops == nil || *ev.Hops < 0 {
				return n, fmt.Errorf("line %d: span event needs pkt/edge and non-negative hops", line)
			}
			if ev.Aux == nil || *ev.Aux < 0 {
				return n, fmt.Errorf("line %d: span event needs a non-negative latency \"aux\"", line)
			}
			if ev.Label != "absorb" && ev.Label != "drop" {
				return n, fmt.Errorf("line %d: span event label %q, want absorb|drop", line, ev.Label)
			}
			maxPath := *ev.Hops
			if maxPath > SpanMaxHops {
				maxPath = SpanMaxHops
			}
			if len(ev.Path) > maxPath {
				return n, fmt.Errorf("line %d: span path of %d hops, max min(hops=%d, %d)",
					line, len(ev.Path), *ev.Hops, SpanMaxHops)
			}
			for i, h := range ev.Path {
				if len(h) != 3 {
					return n, fmt.Errorf("line %d: span path[%d] has %d fields, want [edge,t,wait]", line, i, len(h))
				}
			}
		default:
			return n, fmt.Errorf("line %d: unknown kind %q", line, *ev.Kind)
		}
		n++
	}
	if err := sc.Err(); err != nil {
		return n, err
	}
	return n, nil
}

// Package scenario compiles versioned, declarative JSON descriptions
// of adversarial-queuing runs into a graph, an engine and an adversary.
//
// A spec names a topology (the builtin graph families and the paper's
// gadget constructions), a scheduling policy (global, or per-edge via
// sim.Config.PolicyFor), an adversary program (paced streams, periodic
// bursts, seeded random (w,r) traffic, temporal phase sequences, or an
// explicit oblivious injection schedule), an initial configuration,
// and a run block (horizon, run mode, observers, post-run checks).
//
// Compilation targets the existing adversary types — Script,
// BurstScript, RandomWR, Replay, Sequence — so every leap-mode
// StaticUntil horizon those types report is preserved: a spec-compiled
// run is eligible for exactly the same batch-advanced windows as its
// hand-wired original, and the differential tests in this package hold
// spec-compiled executions bit-identical (adversary.SameExecution) to
// the hand-wired experiment constructions under all three run modes.
//
// Validation is strict and line-precise: unknown fields are rejected
// at their position in the file, semantic errors cite the offending
// JSON path and line, and adversary parameter errors carry verbatim
// the messages the hand-wired constructors panic with
// (adversary.CheckStream, CheckBurstStream, CheckWindowRate, ...).
//
// Adaptive constructions (the Lemma 3.3 rerouting pumps, the Theorem
// 3.17 cycle) are emitted as replay specs: per Remark 1 of the paper
// the adaptive controller is "only a matter of representation" — the
// actual adversary is an oblivious injection sequence carrying each
// packet's final route, and under a historic policy (FIFO) the replay
// reproduces the adaptive execution buffer for buffer.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// Version is the spec format version this package reads and writes.
const Version = 1

// Spec is the root of a scenario file.
type Spec struct {
	Version int    `json:"version"`
	Name    string `json:"name"`
	// Experiment links the spec to the experiment ID (E1, B2, ...)
	// whose hand-wired construction it serializes, if any.
	Experiment string        `json:"experiment,omitempty"`
	Comment    string        `json:"comment,omitempty"`
	Topology   TopologySpec  `json:"topology"`
	Policy     PolicySpec    `json:"policy"`
	Adversary  AdversarySpec `json:"adversary"`
	// Buffer bounds every edge buffer (sim.Config.BufferCap); absent or
	// cap 0 means unbounded, the default.
	Buffer *BufferSpec `json:"buffer,omitempty"`
	// Seeds is the initial configuration, admitted in order at t = 0.
	Seeds []SeedSpec `json:"seeds,omitempty"`
	Run   RunSpec    `json:"run"`
	// Checks are evaluated after the run; a failed check makes the run
	// report (and `aqt scenario run`) fail without panicking.
	Checks *ChecksSpec `json:"checks,omitempty"`
}

// TopologySpec names one of the builtin graph families.
//
//	kind        parameters
//	line        n (edges e1..en)
//	ring        n (edges e1..en)
//	complete    n nodes (edges unnamed: use "#<id>" refs)
//	grid        rows, cols (edges unnamed)
//	twopaths    len1, len2 (edges p1_1.., p2_1..)
//	dag         n nodes, m edges, seed (edges unnamed)
//	chain       n, m, stitch — the paper's F^M_n / G_ε gadget chain
//	            (edges a1.., g<k>.e<i>, g<k>.f<i>, e0)
//	ladder      n rails (edges rail1.., cross1.. — the B2 graph)
type TopologySpec struct {
	Kind   string `json:"kind"`
	N      int    `json:"n,omitempty"`
	M      int    `json:"m,omitempty"`
	Rows   int    `json:"rows,omitempty"`
	Cols   int    `json:"cols,omitempty"`
	Len1   int    `json:"len1,omitempty"`
	Len2   int    `json:"len2,omitempty"`
	Stitch bool   `json:"stitch,omitempty"`
	Seed   int64  `json:"seed,omitempty"`
}

// BufferSpec bounds every edge buffer to cap packets and names the
// policy consulted at capacity: "tail" (reject the arrival), "head"
// (evict the oldest), or "ntg" (evict a packet with the fewest
// remaining hops, keeping the arrival unless it is the minimum).
// Cap 0 is the unbounded default and takes no drop policy.
type BufferSpec struct {
	Cap  int    `json:"cap"`
	Drop string `json:"drop,omitempty"`
}

// PolicySpec selects the scheduling policy: Default everywhere, with
// optional per-edge overrides (edge ref → policy name), compiled to
// sim.Config.PolicyFor.
type PolicySpec struct {
	Default string            `json:"default"`
	Edges   map[string]string `json:"edges,omitempty"`
}

// AdversarySpec describes the injection program.
//
//	kind      fields
//	none      —
//	script    streams (paced rate-r streams → adversary.Script)
//	burst     bursts (periodic bursts → adversary.BurstScript)
//	random    random ((w,r) random traffic → adversary.RandomWR)
//	replay    replay (oblivious schedule → adversary.Replay)
//	sequence  phases (temporal phases → adversary.Sequence)
type AdversarySpec struct {
	Kind    string       `json:"kind"`
	Streams []StreamSpec `json:"streams,omitempty"`
	Bursts  []BurstSpec  `json:"bursts,omitempty"`
	Random  *RandomSpec  `json:"random,omitempty"`
	Replay  *ReplaySpec  `json:"replay,omitempty"`
	Phases  []PhaseSpec  `json:"phases,omitempty"`
}

// StreamSpec is one paced injection stream (adversary.Stream). Rate is
// a rational ("7/10") or decimal ("0.7") string; budget < 0 means
// unbounded. Route entries are edge names, or "#<id>" for unnamed
// edges.
type StreamSpec struct {
	Name   string   `json:"name,omitempty"`
	Start  int64    `json:"start"`
	Rate   string   `json:"rate"`
	Budget int64    `json:"budget"`
	Route  []string `json:"route"`
	Tag    string   `json:"tag,omitempty"`
}

// BurstSpec is one periodic burst stream (adversary.BurstStream):
// every period steps from start, burst packets at once; budget < 0
// means unbounded.
type BurstSpec struct {
	Name   string   `json:"name,omitempty"`
	Start  int64    `json:"start"`
	Period int64    `json:"period"`
	Burst  int64    `json:"burst"`
	Budget int64    `json:"budget"`
	Route  []string `json:"route"`
	Tag    string   `json:"tag,omitempty"`
}

// RandomSpec parameterizes adversary.RandomWR: provably (w,r)-
// compliant random traffic with routes up to maxlen hops, seeded.
// The (w, rate) pair must be admissible: floor(rate·w) >= 1.
type RandomSpec struct {
	W        int64  `json:"w"`
	Rate     string `json:"rate"`
	MaxLen   int    `json:"maxlen"`
	Seed     int64  `json:"seed"`
	Attempts int    `json:"attempts,omitempty"`
}

// ReplaySpec is an explicit oblivious injection schedule
// (adversary.Replay): Routes is a route dictionary, Tags a tag
// dictionary, and Injections a list of run-length-encoded groups.
// Injection order within a step is enqueue order, so groups only merge
// consecutive identical (route, tag) injections.
type ReplaySpec struct {
	Routes     [][]string `json:"routes"`
	Tags       []string   `json:"tags,omitempty"`
	Injections []InjGroup `json:"injections"`
}

// MarshalJSON implements json.Marshaler with the bytes encoding/json
// writes for the struct, but formats the injection list itself:
// json.Marshal re-scans a marshaler's output in a pass of its own, so
// groups that marshal themselves cost one pass each, and this costs one
// for the whole replay block.
func (rp ReplaySpec) MarshalJSON() ([]byte, error) {
	routes, _ := json.Marshal(rp.Routes) // strings only: cannot fail
	b := append(make([]byte, 0, len(routes)+16*len(rp.Injections)+64), `{"routes":`...)
	b = append(b, routes...)
	if len(rp.Tags) > 0 { // omitempty
		tags, _ := json.Marshal(rp.Tags)
		b = append(append(b, `,"tags":`...), tags...)
	}
	b = append(b, `,"injections":`...)
	if rp.Injections == nil {
		return append(b, "null}"...), nil
	}
	b = append(b, '[')
	for i, gr := range rp.Injections {
		if i > 0 {
			b = append(b, ',')
		}
		b = gr.appendJSON(b)
	}
	return append(b, "]}"...), nil
}

// InjGroup is one run-length-encoded injection batch: N packets at
// step T with route Routes[Route], tagged Tags[Tag-1] (Tag 0 =
// untagged). It marshals compactly as the array [t, route, n, tag].
type InjGroup struct {
	T     int64
	Route int
	N     int64
	Tag   int
}

// MarshalJSON implements json.Marshaler ([t, route, n, tag]).
func (gr InjGroup) MarshalJSON() ([]byte, error) {
	return gr.appendJSON(make([]byte, 0, 32)), nil
}

// appendJSON appends [t,route,n,tag] to b, formatting without fmt:
// replay specs hold hundreds of thousands of groups.
func (gr InjGroup) appendJSON(b []byte) []byte {
	b = append(b, '[')
	for i, v := range [4]int64{gr.T, int64(gr.Route), gr.N, int64(gr.Tag)} {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, v, 10)
	}
	return append(b, ']')
}

// UnmarshalJSON implements json.Unmarshaler. A group of four plain
// integer literals is read straight from the bytes; anything else is
// decoded as a []int64, which either agrees or fails with its message.
// A failure is a *groupError, which Parse positions at the group.
func (gr *InjGroup) UnmarshalJSON(b []byte) error {
	if g, end, ok := parseGroup(b, 0); ok && end == len(b) {
		*gr = g
		return nil
	}
	var a []int64
	if err := json.Unmarshal(b, &a); err != nil {
		if e, ok := err.(*json.UnmarshalTypeError); ok {
			return &groupError{fmt.Sprintf("cannot decode %s into %s", e.Value, e.Type)}
		}
		return &groupError{err.Error()}
	}
	if len(a) != 4 {
		return &groupError{fmt.Sprintf("injection group needs [t, route, n, tag], got %d elements", len(a))}
	}
	gr.T, gr.Route, gr.N, gr.Tag = a[0], int(a[1]), a[2], int(a[3])
	return nil
}

// groupError is an injection group that does not decode.
type groupError struct{ msg string }

func (e *groupError) Error() string { return e.msg }

// parseGroup reads [t, route, n, tag] at b[i:]: four integer literals
// in int64 range (no fraction or exponent), with JSON whitespace
// around them, and returns the group and the index after its ']'. It
// declines (ok false) anything else.
func parseGroup(b []byte, i int) (InjGroup, int, bool) {
	if i == len(b) || b[i] != '[' {
		return InjGroup{}, i, false
	}
	var v [4]int64
	for k := range v {
		var ok bool
		if v[k], i, ok = parseInt(b, skipSpace(b, i+1)); !ok {
			return InjGroup{}, i, false
		}
		if i = skipSpace(b, i); i == len(b) || b[i] != ",,,]"[k] {
			return InjGroup{}, i, false
		}
	}
	return InjGroup{T: v[0], Route: int(v[1]), N: v[2], Tag: int(v[3])}, i + 1, true
}

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// parseInt reads the JSON integer literal at b[i:] (an optional '-',
// then 0 or a digit string without a leading 0) that fits an int64,
// and returns its value and end.
func parseInt(b []byte, i int) (int64, int, bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		if i-start == 19 { // 20 digits overflow an int64
			return 0, i, false
		}
		u = u*10 + uint64(b[i]-'0')
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	if i == start || b[start] == '0' && i-start > 1 || u > limit {
		return 0, i, false
	}
	if neg {
		u = -u
	}
	return int64(u), i, true
}

// PhaseSpec is one temporal phase of a sequence adversary: its inner
// adversary drives injections until the engine clock reaches Until
// (phases advance at the first step with now >= until). Untils must be
// strictly increasing; a phase's inner adversary cannot itself be a
// sequence.
type PhaseSpec struct {
	Name      string        `json:"name,omitempty"`
	Until     int64         `json:"until"`
	Adversary AdversarySpec `json:"adversary"`
}

// SeedSpec seeds N identical packets (route, tag) into the initial
// configuration. N 0 means 1. Seed order is admission order, which
// fixes packet IDs.
type SeedSpec struct {
	Route []string `json:"route"`
	N     int64    `json:"n,omitempty"`
	Tag   string   `json:"tag,omitempty"`
}

// RunSpec is the run block: horizon, run mode and observers.
//
// Modes: "step" (default, per-step observer dispatch), "quiet" (the
// observerless fast path; event observers still fire), "leap"
// (batch-advance provably static windows; results are identical).
//
// Observers: "sampler" (the obs.Sampler time series at ~512 samples
// per run plus the exact peak backlog; adds latency-quantile series
// when "meter" is also configured), "recorder" (an alias of "sampler"
// kept for older specs; listing both builds one sampler), "meter" (the
// obs metrics registry, whose latency histogram feeds the report's
// latency line), "latency" (an alias of "meter"; listing both builds
// one meter), "window" (the (w,r) WindowValidator — requires Window),
// "spans" (per-packet causal spans with per-edge residence histograms).
type RunSpec struct {
	Steps     int64       `json:"steps"`
	Mode      string      `json:"mode,omitempty"`
	Observers []string    `json:"observers,omitempty"`
	Window    *WindowSpec `json:"window,omitempty"`
}

// WindowSpec is the (w,r) pair the "window" observer validates
// against.
type WindowSpec struct {
	W    int64  `json:"w"`
	Rate string `json:"rate"`
}

// ChecksSpec lists post-run assertions. Zero-valued fields are not
// checked. MaxBacklog needs the "sampler" (or "recorder") observer;
// WindowCompliant needs the "window" observer; MaxDropped needs a
// bounded buffer block (an unbounded engine never drops).
type ChecksSpec struct {
	Conservation    bool  `json:"conservation,omitempty"`
	Drained         bool  `json:"drained,omitempty"`
	MinInjected     int64 `json:"min_injected,omitempty"`
	MaxResidence    int64 `json:"max_residence,omitempty"`
	MaxBacklog      int64 `json:"max_backlog,omitempty"`
	WindowCompliant bool  `json:"window_compliant,omitempty"`
	// MaxDropped bounds total drops; use -1 to assert zero drops
	// exactly (0 means "not checked").
	MaxDropped int64 `json:"max_dropped,omitempty"`
}

// Encode renders the spec in the canonical on-disk form: two-space
// indented JSON with a trailing newline, except that arrays holding
// only scalars (routes, injection groups) stay on one line — replay
// specs carry tens of thousands of those, and the standard indenter
// would put every element on its own line. Parse(Encode(s)) == s for
// every valid spec, and Encode is the byte-level fixed point the fuzz
// harness enforces.
func (s *Spec) Encode() []byte {
	flat, err := json.Marshal(s)
	if err != nil {
		// Spec contains only marshalable fields; this cannot fail.
		panic(fmt.Sprintf("scenario: encode: %v", err))
	}
	var buf bytes.Buffer
	w := walker{data: flat}
	w.render(&buf, "")
	buf.WriteByte('\n')
	return buf.Bytes()
}

// render writes the value at pos of compact JSON (json.Marshal's
// output, so valid and without whitespace) in Encode's layout; each
// scalar is copied as it stands.
func (w *walker) render(buf *bytes.Buffer, indent string) {
	open, start := w.data[w.pos], w.pos
	if open != '{' && open != '[' {
		w.scalar()
		buf.Write(w.data[start:w.pos])
		return
	}
	end := open + 2 // '}' or ']'
	oneLine := open == '[' && w.scalarArray()
	buf.WriteByte(open)
	n := 0
	for w.pos++; w.data[w.pos] != end; n++ {
		if n > 0 {
			w.pos++ // ','
			buf.WriteByte(',')
		}
		if !oneLine {
			buf.WriteString("\n" + indent + "  ")
		} else if n > 0 {
			buf.WriteByte(' ')
		}
		if open == '{' {
			k := w.pos
			w.scalar()
			buf.Write(w.data[k:w.pos])
			buf.WriteString(": ")
			w.pos++ // ':'
		}
		w.render(buf, indent+"  ")
	}
	if !oneLine && n > 0 {
		buf.WriteString("\n" + indent)
	}
	w.pos++
	buf.WriteByte(end)
}

// scalarArray reports whether the array at pos holds no object or
// array, so Encode keeps it on one line.
func (w *walker) scalarArray() bool {
	r := walker{data: w.data, pos: w.pos + 1}
	for ; r.data[r.pos] != ']'; r.pos++ {
		if c := r.data[r.pos]; c == '{' || c == '[' {
			return false
		}
		if r.scalar(); r.data[r.pos] == ']' {
			break
		}
	}
	return true
}

// SpanTracer coverage: end-to-end span capture with residence
// histograms, seeded ID sampling, the JSONL wire form (golden-pinned
// and schema-validated) and drain-window vetoes.
package obs_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"aqt/internal/graph"
	"aqt/internal/obs"
)

// TestSpanTracerEndToEnd: every packet of the single-edge burst
// workload is tracked (SampleEvery 1), so the tracer must complete one
// span per absorption, each a structurally consistent 1-hop absorb
// span, and the e1 residence histogram must hold exactly one wait per
// span.
func TestSpanTracerEndToEnd(t *testing.T) {
	e := burstEngine()
	st := obs.NewSpanTracer(obs.SpanConfig{SampleEvery: 1})
	st.Attach(e)
	e.Run(1000)
	if st.Missed() != 0 {
		t.Fatalf("%d sampled injections missed (live table too small for the workload)", st.Missed())
	}
	if got, want := st.DoneTotal(), uint64(e.Absorbed()); got != want {
		t.Fatalf("completed %d spans, engine absorbed %d", got, want)
	}
	if st.DoneTotal() == 0 {
		t.Fatal("workload absorbed nothing")
	}
	for i, sp := range st.Done() {
		if sp.Drop {
			t.Errorf("span %d: drop outcome in a lossless workload", i)
		}
		if sp.Hops != 1 || sp.NPath != 1 {
			t.Errorf("span %d: hops=%d npath=%d on a 1-edge route", i, sp.Hops, sp.NPath)
		}
		if sp.End < sp.Start {
			t.Errorf("span %d: ends at %d before start %d", i, sp.End, sp.Start)
		}
		if sp.NPath > 0 && sp.Path[sp.NPath-1].Edge != sp.Edge {
			t.Errorf("span %d: final path edge %d != span edge %d", i, sp.Path[sp.NPath-1].Edge, sp.Edge)
		}
	}
	var snap obs.Snapshot
	st.Registry().SnapshotInto(&snap)
	var observed int64
	for _, h := range snap.Histograms {
		observed += h.Count
	}
	if observed != int64(st.DoneTotal()) {
		t.Errorf("residence histograms hold %d waits, spans recorded %d hops", observed, st.DoneTotal())
	}
}

// TestSpanTracerSampling: a sparse seeded sample tracks a strict,
// deterministic subset — two identically seeded runs agree exactly,
// and a different seed picks a different population.
func TestSpanTracerSampling(t *testing.T) {
	run := func(seed uint64) *obs.SpanTracer {
		e := burstEngine()
		st := obs.NewSpanTracer(obs.SpanConfig{SampleEvery: 4, Seed: seed})
		st.Attach(e)
		e.Run(1000)
		return st
	}
	a, b := run(7), run(7)
	if a.DoneTotal() == 0 {
		t.Fatal("sparse sample tracked nothing (workload too small)")
	}
	if a.DoneTotal() >= uint64(burstAbsorbed(t)) {
		t.Errorf("SampleEvery=4 tracked %d of %d absorptions — not a strict subset", a.DoneTotal(), burstAbsorbed(t))
	}
	if !reflect.DeepEqual(a.Done(), b.Done()) {
		t.Error("identically seeded runs tracked different spans")
	}
	if c := run(8); c.DoneTotal() == a.DoneTotal() {
		ca, cc := a.Done(), c.Done()
		if reflect.DeepEqual(ca, cc) {
			t.Error("different seeds picked the identical sample population")
		}
	}
}

// burstAbsorbed runs the burst workload untraced and returns its
// absorption count (the denominator for sampling assertions).
func burstAbsorbed(t *testing.T) int64 {
	t.Helper()
	e := burstEngine()
	e.Run(1000)
	return e.Absorbed()
}

// TestSpanJSONGolden pins the exact JSONL line a span marshals to and
// the round trip back through UnmarshalJSON.
func TestSpanJSONGolden(t *testing.T) {
	sp := obs.Span{
		Pkt: 42, Start: 10, End: 25, Drop: false, Edge: graph.EdgeID(3),
		Hops: 2, NPath: 2,
	}
	sp.Path[0] = obs.SpanHop{Edge: 1, T: 14, Wait: 4}
	sp.Path[1] = obs.SpanHop{Edge: 3, T: 25, Wait: 9}
	line, err := json.Marshal(sp)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	want := `{"t":25,"kind":"span","pkt":42,"edge":3,"hops":2,"aux":15,"label":"absorb","path":[[1,14,4],[3,25,9]]}`
	if string(line) != want {
		t.Errorf("span line:\n got %s\nwant %s", line, want)
	}
	if n, err := obs.ValidateJSONL(bytes.NewReader(line)); err != nil || n != 1 {
		t.Errorf("golden line fails the schema: n=%d err=%v", n, err)
	}
	var back obs.Span
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !reflect.DeepEqual(back, sp) {
		t.Errorf("round trip differs:\n got %+v\nwant %+v", back, sp)
	}

	drop := obs.Span{Pkt: 7, Start: 3, End: 3, Drop: true, Edge: 0, Hops: 0, NPath: 0}
	line, err = json.Marshal(drop)
	if err != nil {
		t.Fatalf("Marshal drop: %v", err)
	}
	wantDrop := `{"t":3,"kind":"span","pkt":7,"edge":0,"hops":0,"aux":0,"label":"drop","path":[]}`
	if string(line) != wantDrop {
		t.Errorf("drop span line:\n got %s\nwant %s", line, wantDrop)
	}
}

// TestSpanUnmarshalRejects: every malformed wire-form class errors.
func TestSpanUnmarshalRejects(t *testing.T) {
	for _, bad := range []string{
		`{"t":5,"kind":"sample","pkt":1,"edge":0,"hops":0,"aux":0,"label":"absorb","path":[]}`,              // wrong kind
		`{"t":5,"kind":"span","pkt":1,"edge":0,"hops":0,"aux":0,"label":"evaporate","path":[]}`,             // bad label
		`{"t":5,"kind":"span","pkt":1,"edge":0,"hops":-1,"aux":0,"label":"absorb","path":[]}`,               // negative hops
		`{"t":5,"kind":"span","pkt":1,"edge":0,"hops":0,"aux":-2,"label":"absorb","path":[]}`,               // negative latency
		`{"t":5,"kind":"span","pkt":1,"edge":0,"hops":1,"aux":0,"label":"absorb","path":[[0,1,0],[1,2,0]]}`, // path > hops
		`{"t":5,"kind":"span","pkt":1,"edge":0,"hops":1,"aux":0,"label":"absorb","path":[[0,1]]}`,           // short triple
	} {
		var sp obs.Span
		if err := json.Unmarshal([]byte(bad), &sp); err == nil {
			t.Errorf("accepted invalid span line: %s", bad)
		}
	}
}

// TestSpanTracerDumpValidates: the JSONL dump of a traced run passes
// the schema with one line per retained span.
func TestSpanTracerDumpValidates(t *testing.T) {
	e := burstEngine()
	st := obs.NewSpanTracer(obs.SpanConfig{SampleEvery: 1})
	st.Attach(e)
	e.Run(1000)
	var buf bytes.Buffer
	if err := st.DumpJSONL(&buf); err != nil {
		t.Fatalf("DumpJSONL: %v", err)
	}
	n, err := obs.ValidateJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("schema: %v", err)
	}
	if want := len(st.Done()); n != want {
		t.Errorf("dump has %d lines, tracer retains %d spans", n, want)
	}
}

// TestSpanTracerVetoesDrains: with every packet tracked, a drain
// window always has tracked spans in flight, so the tracer must veto
// all drains (idle windows still leap) — and the leaped run's state
// must equal a stepped run's exactly.
func TestSpanTracerVetoesDrains(t *testing.T) {
	const steps = 1000
	le, se := burstEngine(), burstEngine()
	lt := obs.NewSpanTracer(obs.SpanConfig{SampleEvery: 1})
	stt := obs.NewSpanTracer(obs.SpanConfig{SampleEvery: 1})
	lt.Attach(le)
	stt.Attach(se)
	le.RunLeap(steps)
	se.Run(steps)
	if d := le.Leaps().Drain; d != 0 {
		t.Errorf("tracer with live spans accepted %d drain windows, want 0", d)
	}
	if le.Leaps().Idle == 0 {
		t.Error("idle windows must still leap with a span tracer attached")
	}
	if lv, sv := viewOf(lt), viewOf(stt); !reflect.DeepEqual(lv, sv) {
		t.Errorf("span tracer states differ after leap vs step:\nleap: %+v\nstep: %+v", lv, sv)
	}
}

// TestSpanTracerAcceptsDrainsWhenEmpty: a sample so sparse it tracks
// nothing leaves the live table empty, so every drain is attributable
// to untracked packets and must be accepted.
func TestSpanTracerAcceptsDrainsWhenEmpty(t *testing.T) {
	e := burstEngine()
	st := obs.NewSpanTracer(obs.SpanConfig{SampleEvery: 1 << 40, Seed: 1})
	st.Attach(e)
	e.RunLeap(1000)
	if st.DoneTotal() != 0 || st.Live() != 0 {
		t.Fatalf("astronomically sparse sample still tracked spans (done=%d live=%d)", st.DoneTotal(), st.Live())
	}
	if e.Leaps().Drain == 0 {
		t.Error("empty tracer must accept drain windows, engine leaped none")
	}
}

// SpanTracer builds per-packet causal spans — inject, every per-edge
// hop with its queueing wait, absorb or drop — for a seeded sample of
// packet IDs, from the same event hooks the flight recorder uses. A
// span is the per-packet latency *breakdown by edge* that no
// aggregate histogram gives: where exactly a Theorem 3.17 packet
// spent its residence. Hop waits additionally feed per-edge residence
// histograms, so the sampled population is summarizable without
// reading individual spans.
package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"aqt/internal/graph"
	"aqt/internal/packet"
	"aqt/internal/sim"
)

// SpanMaxHops bounds the per-hop detail retained in one span. Spans of
// longer routes keep the first SpanMaxHops hops plus the exact total
// hop count — fixed-size spans are what keeps recording alloc-free.
const SpanMaxHops = 32

// SpanHop is one recorded hop: the packet crossed Edge during the send
// substep of step T after waiting Wait steps in its buffer.
type SpanHop struct {
	Edge graph.EdgeID
	T    int64
	Wait int64
}

// Span is one packet's completed trajectory. The value is fixed-size
// (recording never allocates); Hops is the true hop count, which can
// exceed NPath when a route was longer than SpanMaxHops.
//
// Its JSON form is exactly the schema-validated "span" JSONL line:
//
//	{"t":<end>,"kind":"span","pkt":..,"edge":<last edge>,"hops":..,
//	 "aux":<end-start latency>,"label":"absorb"|"drop",
//	 "path":[[edge,t,wait],...]}
type Span struct {
	Pkt   int64
	Start int64 // injection step
	End   int64 // absorption or drop step
	Drop  bool  // outcome: false = absorbed
	Edge  graph.EdgeID
	Hops  int
	NPath int
	Path  [SpanMaxHops]SpanHop
}

// MarshalJSON renders the span as its JSONL line (see the type doc).
func (s Span) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"t":%d,"kind":"span","pkt":%d,"edge":%d,"hops":%d,"aux":%d,"label":%q,"path":[`,
		s.End, s.Pkt, int64(s.Edge), s.Hops, s.End-s.Start, s.outcome())
	for i := 0; i < s.NPath; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		h := &s.Path[i]
		fmt.Fprintf(&b, "[%d,%d,%d]", int64(h.Edge), h.T, h.Wait)
	}
	b.WriteString("]}")
	return b.Bytes(), nil
}

func (s Span) outcome() string {
	if s.Drop {
		return "drop"
	}
	return "absorb"
}

// UnmarshalJSON parses and validates the JSONL line form, returning
// errors, never panicking, on malformed input.
func (s *Span) UnmarshalJSON(data []byte) error {
	var w struct {
		T     int64     `json:"t"`
		Kind  string    `json:"kind"`
		Pkt   int64     `json:"pkt"`
		Edge  int64     `json:"edge"`
		Hops  int       `json:"hops"`
		Aux   int64     `json:"aux"`
		Label string    `json:"label"`
		Path  [][]int64 `json:"path"`
	}
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if w.Kind != "span" {
		return fmt.Errorf("span: kind %q, want \"span\"", w.Kind)
	}
	if w.Hops < 0 || w.Aux < 0 {
		return fmt.Errorf("span: negative hops (%d) or latency (%d)", w.Hops, w.Aux)
	}
	if len(w.Path) > SpanMaxHops || len(w.Path) > w.Hops {
		return fmt.Errorf("span: path of %d hops, max min(hops=%d, %d)", len(w.Path), w.Hops, SpanMaxHops)
	}
	switch w.Label {
	case "absorb", "drop":
		*s = Span{Pkt: w.Pkt, Start: w.T - w.Aux, End: w.T, Drop: w.Label == "drop",
			Edge: graph.EdgeID(w.Edge), Hops: w.Hops, NPath: len(w.Path)}
	default:
		return fmt.Errorf("span: label %q, want absorb|drop", w.Label)
	}
	for i, h := range w.Path {
		if len(h) != 3 {
			return fmt.Errorf("span: path[%d] has %d fields, want [edge,t,wait]", i, len(h))
		}
		s.Path[i] = SpanHop{Edge: graph.EdgeID(h[0]), T: h[1], Wait: h[2]}
	}
	return nil
}

// SpanConfig configures a SpanTracer.
type SpanConfig struct {
	// SampleEvery picks roughly one of every SampleEvery packet IDs via
	// a seeded hash (<= 1 means every packet). Sampling by ID, not by
	// time, keeps a packet's whole span together.
	SampleEvery int64
	// Seed varies which IDs the hash picks.
	Seed uint64
	// MaxLive bounds concurrently tracked in-flight spans (<= 0 means
	// 64). A sampled injection arriving at a full table is counted in
	// Missed and not tracked.
	MaxLive int
	// MaxDone bounds the keep-latest ring of completed spans (<= 0
	// means 256, min 16).
	MaxDone int
}

// SpanTracer records Spans for a sampled subset of packets. Register
// it with sim.Engine.AddEventObserver via Attach — it implements only
// event interfaces, so the engine's observerless step fast path stays
// intact, and recording is allocation-free (fixed-size span slots,
// preallocated tables). Hop waits feed per-edge residence histograms
// in a private registry (names "span.edge_wait.<edge>").
type SpanTracer struct {
	cfg       SpanConfig
	eng       *sim.Engine
	live      []Span
	done      []Span // keep-latest ring, FlightRecorder-style
	doneTotal uint64
	missed    uint64
	reg       *Registry
	edgeHists []*Histogram
}

// NewSpanTracer returns a tracer with the given configuration. Attach
// it to an engine with Attach.
func NewSpanTracer(cfg SpanConfig) *SpanTracer {
	if cfg.SampleEvery < 1 {
		cfg.SampleEvery = 1
	}
	if cfg.MaxLive <= 0 {
		cfg.MaxLive = 64
	}
	if cfg.MaxDone <= 0 {
		cfg.MaxDone = 256
	}
	if cfg.MaxDone < 16 {
		cfg.MaxDone = 16
	}
	return &SpanTracer{
		cfg:  cfg,
		live: make([]Span, 0, cfg.MaxLive),
		done: make([]Span, cfg.MaxDone),
		reg:  NewRegistry(),
	}
}

// Attach registers the tracer on e (event interfaces only) and
// prefetches one residence-histogram handle per edge so the event
// path never touches the registry map.
func (st *SpanTracer) Attach(e *sim.Engine) {
	st.eng = e
	g := e.Graph()
	st.edgeHists = make([]*Histogram, g.NumEdges())
	for eid := 0; eid < g.NumEdges(); eid++ {
		st.edgeHists[eid] = st.reg.Histogram("span.edge_wait." + g.EdgeName(graph.EdgeID(eid)))
	}
	e.AddEventObserver(st)
}

// Registry returns the per-edge residence-histogram registry.
func (st *SpanTracer) Registry() *Registry { return st.reg }

// Missed returns how many sampled injections were not tracked because
// the live table was full.
func (st *SpanTracer) Missed() uint64 { return st.missed }

// Live returns the number of currently tracked in-flight spans.
func (st *SpanTracer) Live() int { return len(st.live) }

// DoneTotal returns the lifetime number of completed spans.
func (st *SpanTracer) DoneTotal() uint64 { return st.doneTotal }

// tracked reports whether packet id is in the sampled population: a
// splitmix64-style finalizer over (id, seed), so the choice is
// deterministic, seed-varied and uniform across ID space.
func (st *SpanTracer) tracked(id packet.ID) bool {
	if st.cfg.SampleEvery <= 1 {
		return true
	}
	x := uint64(id) + st.cfg.Seed*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x%uint64(st.cfg.SampleEvery) == 0
}

// find returns the live slot index of pkt, or -1. Linear scan over at
// most MaxLive fixed-size slots — the table is small by construction.
func (st *SpanTracer) find(pkt int64) int {
	for i := range st.live {
		if st.live[i].Pkt == pkt {
			return i
		}
	}
	return -1
}

// OnInject implements sim.InjectionObserver: opens a span for sampled
// packets.
func (st *SpanTracer) OnInject(t int64, p *packet.Packet) {
	if !st.tracked(p.ID) {
		return
	}
	if len(st.live) == cap(st.live) {
		st.missed++
		return
	}
	st.live = append(st.live, Span{Pkt: int64(p.ID), Start: t, End: -1, Edge: graph.NoEdge})
}

// OnSend implements sim.SendObserver: records the hop and its queueing
// wait, and feeds the edge's residence histogram.
func (st *SpanTracer) OnSend(t int64, eid graph.EdgeID, p *packet.Packet) {
	if !st.tracked(p.ID) {
		return
	}
	i := st.find(int64(p.ID))
	if i < 0 {
		return
	}
	wait := t - p.ArrivedAt
	sp := &st.live[i]
	if sp.NPath < SpanMaxHops {
		sp.Path[sp.NPath] = SpanHop{Edge: eid, T: t, Wait: wait}
		sp.NPath++
	}
	sp.Hops++
	if int(eid) < len(st.edgeHists) {
		st.edgeHists[eid].Observe(wait)
	}
}

// OnAbsorb implements sim.AbsorptionObserver: closes the span with the
// absorb outcome.
func (st *SpanTracer) OnAbsorb(t int64, p *packet.Packet) {
	if !st.tracked(p.ID) {
		return
	}
	st.complete(int64(p.ID), t, p.Route[len(p.Route)-1], false)
}

// OnDrop implements sim.DropObserver: closes the span with the drop
// outcome at the buffer that discarded the packet.
func (st *SpanTracer) OnDrop(t int64, eid graph.EdgeID, p *packet.Packet) {
	if !st.tracked(p.ID) {
		return
	}
	st.complete(int64(p.ID), t, eid, true)
}

// complete moves live span pkt (if tracked) into the done ring.
func (st *SpanTracer) complete(pkt, t int64, eid graph.EdgeID, drop bool) {
	i := st.find(pkt)
	if i < 0 {
		return
	}
	sp := &st.live[i]
	sp.End, sp.Edge, sp.Drop = t, eid, drop
	st.done[st.doneTotal%uint64(len(st.done))] = *sp
	st.doneTotal++
	last := len(st.live) - 1
	st.live[i] = st.live[last]
	st.live = st.live[:last]
}

// AcceptLeap implements sim.LeapObserver. Idle windows carry no packet
// events, so nothing can be missed. A drain window absorbs packets at
// engine-chosen steps the tracer cannot attribute to individual spans,
// so it vetoes drains while any tracked span is in flight — and only
// then: with an empty live table every draining packet is untracked,
// and neither spans nor residence histograms lose an observation.
func (st *SpanTracer) AcceptLeap(kind sim.LeapKind) bool {
	return kind == sim.LeapIdle || len(st.live) == 0
}

// OnLeap implements sim.LeapObserver: accepted windows need no
// reconstruction (no tracked packet was involved).
func (st *SpanTracer) OnLeap(*sim.Engine, sim.LeapInfo) {}

// Done returns the retained completed spans in completion order (a
// copy; call off the hot path).
func (st *SpanTracer) Done() []Span {
	var out []Span
	st.DoneInto(&out)
	return out
}

// DoneInto copies the retained completed spans in completion order
// into *dst, reusing its backing storage; once *dst has grown to the
// ring capacity it allocates nothing.
func (st *SpanTracer) DoneInto(dst *[]Span) {
	d := (*dst)[:0]
	if cap(d) < len(st.done) {
		d = make([]Span, 0, len(st.done))
	}
	n := st.doneTotal
	if n > uint64(len(st.done)) {
		n = uint64(len(st.done))
	}
	start := st.doneTotal - n
	for i := uint64(0); i < n; i++ {
		d = append(d, st.done[(start+i)%uint64(len(st.done))])
	}
	*dst = d
}

// DumpJSONL writes the retained completed spans as schema-validated
// "span" JSONL lines, oldest first.
func (st *SpanTracer) DumpJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, sp := range st.Done() {
		line, err := json.Marshal(sp)
		if err != nil {
			return err
		}
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteResidenceText renders the per-edge residence histograms as a
// fixed-width summary, one line per edge with recorded hops.
func (st *SpanTracer) WriteResidenceText(w io.Writer) error {
	var snap Snapshot
	st.reg.SnapshotInto(&snap)
	for _, h := range snap.Histograms {
		if h.Count == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "%-28s hops %-8d mean_wait %-8s p99<=%d\n",
			h.Name, h.Count, strconv.FormatFloat(h.Mean(), 'f', 1, 64), h.Quantile(0.99)); err != nil {
			return err
		}
	}
	return nil
}

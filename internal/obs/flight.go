// Package obs is the observability layer of the simulator: a
// flight-recorder ring of structured events fed alloc-free by the
// engine's event hooks, a mergeable zero-alloc metrics registry
// (counters + log-bucketed histograms), and sweep-progress telemetry
// for the parallel probe layer.
//
// The design constraint throughout is that instrumentation must not
// give back the zero-alloc hot path: FlightRecorder registers via
// sim.Engine.AddEventObserver (event interfaces only), so Run keeps
// its observerless fast path, and recording one event is a fixed-size
// struct store into a preallocated ring — no allocation, no
// formatting. Formatting happens only at dump time.
package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"aqt/internal/graph"
	"aqt/internal/packet"
	"aqt/internal/sim"
)

// EventKind labels one flight-recorder event.
type EventKind uint8

// Flight-recorder event kinds.
const (
	EvInject EventKind = iota
	EvSend
	EvAbsorb
	EvReroute
	EvMarker
	EvFailure
	EvLeap
	EvDrop
)

var kindNames = [...]string{"inject", "send", "absorb", "reroute", "marker", "failure", "leap", "drop"}

// Labels of leap events, by window kind.
const (
	labelLeapIdle  = "leap.idle"
	labelLeapDrain = "leap.drain"
)

// String returns the JSONL name of the kind.
func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one fixed-size flight-recorder record. Which fields are
// meaningful depends on Kind:
//
//	inject:  Pkt, Edge (first route edge), Hops (route length), Label (stream name)
//	send:    Pkt, Edge (edge being crossed), Hops (remaining incl. current)
//	absorb:  Pkt, Edge (last route edge), Label (stream name)
//	reroute: Pkt, Edge (current edge), Hops (new route length), Aux (old route length)
//	drop:    Pkt, Edge (the full buffer), Hops (remaining incl. current), Label (stream name)
//	marker:  Label (annotation, e.g. an adversary phase name)
//	failure: Label (the invariant-violation message)
//	leap:    Hops (window length in steps; T is the window's last step),
//	         Label ("leap.idle" or "leap.drain")
//
// Label always stores a string that existed before the event fired
// (stream names, phase names built at construction time), so recording
// an Event copies a pointer, never allocates.
type Event struct {
	T     int64
	Kind  EventKind
	Pkt   int64
	Edge  graph.EdgeID
	Hops  int
	Aux   int
	Label string
}

// FlightRecorder is a fixed-capacity keep-latest ring of Events. It
// implements every sim event-observer interface; register it with
// sim.Engine.AddEventObserver so the engine's observerless Run fast
// path stays intact. Recording is O(1) and allocation-free.
//
// On OnFailure (an invariant violation reported through
// sim.Engine.NotifyFailure or CheckConservation) the recorder appends
// a failure event and, if AutoDump is set, dumps the ring as JSONL to
// it — once, on the first failure.
type FlightRecorder struct {
	// AutoDump, when non-nil, receives a JSONL dump of the ring on the
	// first failure event. Errors from the writer are stored in
	// DumpErr, not returned (OnFailure has no error path).
	AutoDump io.Writer
	// DumpErr records the error of the auto-dump, if any.
	DumpErr error

	ring   []Event
	total  uint64
	dumped bool
}

// NewFlightRecorder returns a recorder keeping the latest capacity
// events (min 16).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity < 16 {
		capacity = 16
	}
	return &FlightRecorder{ring: make([]Event, capacity)}
}

// record stores ev, overwriting the oldest event when full.
func (r *FlightRecorder) record(ev Event) {
	r.ring[r.total%uint64(len(r.ring))] = ev
	r.total++
}

// OnInject implements sim.InjectionObserver.
func (r *FlightRecorder) OnInject(t int64, p *packet.Packet) {
	r.record(Event{T: t, Kind: EvInject, Pkt: int64(p.ID),
		Edge: p.Route()[0], Hops: len(p.Route()), Label: p.SourceName()})
}

// OnSend implements sim.SendObserver.
func (r *FlightRecorder) OnSend(t int64, eid graph.EdgeID, p *packet.Packet) {
	r.record(Event{T: t, Kind: EvSend, Pkt: int64(p.ID),
		Edge: eid, Hops: p.RemainingHops()})
}

// OnAbsorb implements sim.AbsorptionObserver.
func (r *FlightRecorder) OnAbsorb(t int64, p *packet.Packet) {
	r.record(Event{T: t, Kind: EvAbsorb, Pkt: int64(p.ID),
		Edge: p.Route()[len(p.Route())-1], Label: p.SourceName()})
}

// OnReroute implements sim.RerouteObserver.
func (r *FlightRecorder) OnReroute(t int64, p *packet.Packet, oldRoute []graph.EdgeID) {
	r.record(Event{T: t, Kind: EvReroute, Pkt: int64(p.ID),
		Edge: p.CurrentEdge(), Hops: len(p.Route()), Aux: len(oldRoute), Label: p.SourceName()})
}

// OnDrop implements sim.DropObserver: a packet discarded at the full
// buffer of edge eid (bounded-buffer mode), with its remaining work in
// Hops — the same field OnSend uses, so a trace shows how far from its
// destination each casualty was.
func (r *FlightRecorder) OnDrop(t int64, eid graph.EdgeID, p *packet.Packet) {
	r.record(Event{T: t, Kind: EvDrop, Pkt: int64(p.ID),
		Edge: eid, Hops: p.RemainingHops(), Label: p.SourceName()})
}

// OnMarker implements sim.MarkerObserver: adversary phase markers and
// other Engine.Annotate labels land in the ring as marker events.
func (r *FlightRecorder) OnMarker(t int64, label string) {
	r.record(Event{T: t, Kind: EvMarker, Pkt: -1, Edge: graph.NoEdge, Label: label})
}

// Mark records a marker event directly — for harnesses that trace
// their own lifecycle without an engine (`aqt experiments`).
func (r *FlightRecorder) Mark(t int64, label string) { r.OnMarker(t, label) }

// AcceptLeap implements sim.LeapObserver. The recorder accepts both
// window kinds: a leaped window's per-step activity (the sends and
// absorptions of a drain) is summarized by one leap event instead of
// being recorded individually — the trade the ring makes anyway by
// evicting old events. Refusing would force the engine to step just to
// fill the ring with events a long run evicts moments later.
func (r *FlightRecorder) AcceptLeap(sim.LeapKind) bool { return true }

// OnLeap implements sim.LeapObserver: one event per leaped window,
// timestamped with the window's last step, its length in Hops.
func (r *FlightRecorder) OnLeap(e *sim.Engine, info sim.LeapInfo) {
	label := labelLeapIdle
	if info.Kind == sim.LeapDrain {
		label = labelLeapDrain
	}
	r.record(Event{T: info.To, Kind: EvLeap, Pkt: -1, Edge: graph.NoEdge,
		Hops: int(info.Steps()), Label: label})
}

// OnFailure implements sim.FailureObserver: it records a failure event
// and auto-dumps the ring to AutoDump on the first failure.
func (r *FlightRecorder) OnFailure(e *sim.Engine, reason string) {
	var t int64
	if e != nil {
		t = e.Now()
	}
	r.RecordFailure(t, reason)
}

// RecordFailure is OnFailure without an engine (harness-level traces).
func (r *FlightRecorder) RecordFailure(t int64, reason string) {
	r.record(Event{T: t, Kind: EvFailure, Pkt: -1, Edge: graph.NoEdge, Label: reason})
	if r.AutoDump != nil && !r.dumped {
		r.dumped = true
		r.DumpErr = r.DumpJSONL(r.AutoDump)
	}
}

// Len returns the number of events currently retained.
func (r *FlightRecorder) Len() int {
	if r.total < uint64(len(r.ring)) {
		return int(r.total)
	}
	return len(r.ring)
}

// Cap returns the ring capacity.
func (r *FlightRecorder) Cap() int { return len(r.ring) }

// Total returns the lifetime number of recorded events.
func (r *FlightRecorder) Total() uint64 { return r.total }

// Overwritten returns how many events were evicted by the keep-latest
// ring (Total − Len).
func (r *FlightRecorder) Overwritten() uint64 { return r.total - uint64(r.Len()) }

// Events returns the retained events in chronological order (a copy;
// call off the hot path).
func (r *FlightRecorder) Events() []Event {
	n := r.Len()
	out := make([]Event, 0, n)
	start := r.total - uint64(n)
	for i := uint64(0); i < uint64(n); i++ {
		out = append(out, r.ring[(start+i)%uint64(len(r.ring))])
	}
	return out
}

// EventsInto copies the retained events in chronological order into
// *dst, reusing its backing storage; once *dst has grown to the ring
// capacity it allocates nothing. The server publisher runs this at
// every sample boundary.
func (r *FlightRecorder) EventsInto(dst *[]Event) {
	d := (*dst)[:0]
	if cap(d) < len(r.ring) {
		d = make([]Event, 0, len(r.ring))
	}
	n := uint64(r.Len())
	start := r.total - n
	for i := uint64(0); i < n; i++ {
		d = append(d, r.ring[(start+i)%uint64(len(r.ring))])
	}
	*dst = d
}

// jsonEvent is the JSONL wire form of an Event.
type jsonEvent struct {
	T     int64  `json:"t"`
	Kind  string `json:"kind"`
	Pkt   *int64 `json:"pkt,omitempty"`
	Edge  *int64 `json:"edge,omitempty"`
	Hops  *int   `json:"hops,omitempty"`
	Aux   *int   `json:"aux,omitempty"`
	Label string `json:"label,omitempty"`
}

// DumpJSONL writes the retained events as one JSON object per line,
// oldest first. Packet fields are omitted on marker/failure lines, and
// leap lines carry only the window length (hops) and label;
// ValidateJSONL checks the inverse schema.
func (r *FlightRecorder) DumpJSONL(w io.Writer) error {
	return DumpEventsJSONL(w, r.Events())
}

// DumpEventsJSONL writes events in the flight-recorder JSONL wire form
// — the /trace shape, shared by the server (which serves published
// event copies, not the live ring) and DumpJSONL.
func DumpEventsJSONL(w io.Writer, events []Event) error {
	for _, ev := range events {
		je := jsonEvent{T: ev.T, Kind: ev.Kind.String(), Label: ev.Label}
		switch ev.Kind {
		case EvMarker, EvFailure:
		case EvLeap:
			hops := ev.Hops
			je.Hops = &hops
		default:
			pkt, edge, hops, aux := ev.Pkt, int64(ev.Edge), ev.Hops, ev.Aux
			je.Pkt, je.Edge, je.Hops = &pkt, &edge, &hops
			if ev.Kind == EvReroute {
				je.Aux = &aux
			}
		}
		line, err := json.Marshal(je)
		if err != nil {
			return err
		}
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}

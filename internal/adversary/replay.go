package adversary

import (
	"fmt"
	"sort"

	"aqt/internal/graph"
	"aqt/internal/packet"
	"aqt/internal/rational"
	"aqt/internal/sim"
)

// Recorder captures the complete injection schedule of an execution —
// including the routes as they stand after all Lemma 3.3 extensions —
// so the execution can be replayed by an *oblivious* adversary that
// injects every packet with its final route up front.
//
// This makes Remark 1 of the paper executable: the dynamic adversary
// used by the constructions "is only a matter of presentation"; the
// actual adversary is a plain rate-r injection sequence. Record a
// construction run, call Finish, and (a) validate the final-route
// schedule against the rate-r definition directly (no reroute
// charging needed), and (b) replay it against a fresh engine and
// observe the identical execution (for historic policies, claim (1)
// of Lemma 3.3).
//
// Packets are valid only until their OnAbsorb or OnDrop callbacks
// return, so the recorder snapshots each packet's final route and tag
// there; Finish snapshots the packets still queued. Tags set after
// injection (core's TagOld) are therefore recorded as they stand when
// the packet leaves the network.
type ScheduleRecorder struct {
	// rec[i] is the packet with ID firstID + i; IDs are dense in
	// admission order (seeds first). live[i] is that packet while it is
	// still in the network, nil once rec[i] holds its snapshot.
	rec     []RecordedInjection
	live    []*packet.Packet
	firstID packet.ID
	done    bool
}

// RecordedInjection is one packet of a finished recording. Route
// shares the engine's immutable route storage; treat it as read-only.
type RecordedInjection struct {
	Step  int64 // 0 = initial-configuration seed
	Route []graph.EdgeID
	Tag   string
}

// NewRecorder returns an empty recorder; attach it with AddObserver
// before seeding the engine.
func NewScheduleRecorder() *ScheduleRecorder { return &ScheduleRecorder{} }

// OnStep implements sim.Observer.
func (r *ScheduleRecorder) OnStep(*sim.Engine) {}

// OnInject implements sim.InjectionObserver.
func (r *ScheduleRecorder) OnInject(t int64, p *packet.Packet) {
	if r.done {
		panic("adversary: Recorder used after Finish")
	}
	if len(r.rec) == 0 {
		r.firstID = p.ID
	}
	r.rec = append(r.rec, RecordedInjection{Step: t})
	r.live = append(r.live, p)
}

// OnReroute implements sim.RerouteObserver. Nothing to store: the
// final route is read from the packet when it leaves the network or at
// Finish.
func (r *ScheduleRecorder) OnReroute(int64, *packet.Packet, []graph.EdgeID) {}

// OnAbsorb implements sim.AbsorptionObserver: snapshots the packet's
// final route and tag before the engine releases it.
func (r *ScheduleRecorder) OnAbsorb(_ int64, p *packet.Packet) { r.snapshot(p) }

// OnDrop implements sim.DropObserver, as OnAbsorb.
func (r *ScheduleRecorder) OnDrop(_ int64, _ graph.EdgeID, p *packet.Packet) { r.snapshot(p) }

// snapshot records p's route and tag, unless p was admitted before the
// recording began or after it finished.
func (r *ScheduleRecorder) snapshot(p *packet.Packet) {
	i := int(p.ID - r.firstID)
	if r.done || i < 0 || i >= len(r.live) || r.live[i] != p {
		return
	}
	r.rec[i].Route, r.rec[i].Tag = p.Route, p.Tag
	r.live[i] = nil
}

// Finish freezes the recording, snapshotting the final route of every
// packet still queued. Call it after the recorded run completes
// (further reroutes would not be seen).
func (r *ScheduleRecorder) Finish() []RecordedInjection {
	if r.done {
		return r.rec
	}
	for _, p := range r.live {
		if p != nil {
			r.snapshot(p)
		}
	}
	r.done = true
	r.live = nil
	return r.rec
}

// Len returns the number of recorded packets so far.
func (r *ScheduleRecorder) Len() int {
	return len(r.rec)
}

// Replay is an oblivious adversary that re-issues a finished
// recording: each packet is injected at its original step with its
// final route. Seeds (step 0) are not injected by Replay; pass them to
// the engine with SeedRecording before stepping.
type Replay struct {
	byStep map[int64][]packet.Injection
	last   int64
	steps  []int64 // distinct injection steps, increasing
	cursor int     // index of the first step not yet known to be past
	lastT  int64   // last step Inject ran at (0 before the first)
}

// NewReplay builds a Replay from a finished recording.
func NewReplay(rec []RecordedInjection) *Replay {
	rp := &Replay{byStep: make(map[int64][]packet.Injection)}
	for _, ri := range rec {
		if ri.Step == 0 {
			continue
		}
		rp.byStep[ri.Step] = append(rp.byStep[ri.Step], packet.Injection{
			Route: ri.Route,
			Tag:   ri.Tag,
		})
		if ri.Step > rp.last {
			rp.last = ri.Step
		}
	}
	for step := range rp.byStep {
		rp.steps = append(rp.steps, step)
	}
	sort.Slice(rp.steps, func(i, j int) bool { return rp.steps[i] < rp.steps[j] })
	return rp
}

// PreStep implements sim.Adversary.
func (*Replay) PreStep(*sim.Engine) {}

// Inject implements sim.Adversary.
func (rp *Replay) Inject(e *sim.Engine) []packet.Injection {
	rp.lastT = e.Now()
	return rp.byStep[e.Now()]
}

// StaticUntil implements sim.StaticAdversary: a recording is a pure
// schedule, so the replay is provably silent up to one step before the
// next recorded injection step after the last step Inject ran at
// (conservatively stale inside leaped windows, like BurstScript), and
// forever once the recording is exhausted.
func (rp *Replay) StaticUntil() int64 {
	for rp.cursor < len(rp.steps) && rp.steps[rp.cursor] <= rp.lastT {
		rp.cursor++
	}
	if rp.cursor == len(rp.steps) {
		return sim.Forever
	}
	return rp.steps[rp.cursor] - 1
}

// LastStep returns the last step with injections.
func (rp *Replay) LastStep() int64 { return rp.last }

// SeedRecording seeds a fresh engine with the recording's step-0
// packets (the initial configuration), final routes included.
func SeedRecording(e *sim.Engine, rec []RecordedInjection) {
	for _, ri := range rec {
		if ri.Step == 0 {
			e.Seed(packet.Injection{Route: ri.Route, Tag: ri.Tag})
		}
	}
}

// ValidateRecording checks the finished recording — final routes, at
// injection times — against the leaky-bucket rate-r definition: for
// every edge and every interval I, at most ceil(r·|I|) packets
// requiring the edge are injected during I. Seeds are excluded, as in
// RateValidator. maxPerEdge/maxWin bound the exact quadratic scan as
// in RateValidator.CheckBudget. Returns nil when compliant.
func ValidateRecording(rec []RecordedInjection, rate rational.Rat, maxPerEdge int, maxWin int64) error {
	u := newUsage()
	for _, ri := range rec {
		if ri.Step == 0 {
			continue
		}
		u.add(ri.Step, ri.Route)
	}
	u.sortAll()
	for e, ts := range u.times {
		e := graph.EdgeID(e)
		if len(ts) <= maxPerEdge {
			if err := checkAllIntervals(e, ts, rate); err != nil {
				return err
			}
			continue
		}
		if err := checkAnchoredIntervals(e, ts, rate, maxWin); err != nil {
			return err
		}
	}
	return nil
}

// DivergenceAt compares two engines after the same number of steps and
// returns a description of the first difference found in aggregate
// state (nil when identical). Used by the replay experiments to show
// the adaptive and oblivious presentations generate the same
// execution.
func DivergenceAt(a, b *sim.Engine) error {
	if a.Now() != b.Now() {
		return fmt.Errorf("time differs: %d vs %d", a.Now(), b.Now())
	}
	if a.Injected() != b.Injected() {
		return fmt.Errorf("t=%d: injected %d vs %d", a.Now(), a.Injected(), b.Injected())
	}
	if a.Absorbed() != b.Absorbed() {
		return fmt.Errorf("t=%d: absorbed %d vs %d", a.Now(), a.Absorbed(), b.Absorbed())
	}
	if a.Graph().NumEdges() != b.Graph().NumEdges() {
		return fmt.Errorf("different graphs")
	}
	for eid := 0; eid < a.Graph().NumEdges(); eid++ {
		la, lb := a.QueueLen(graph.EdgeID(eid)), b.QueueLen(graph.EdgeID(eid))
		if la != lb {
			return fmt.Errorf("t=%d: queue at edge %d differs: %d vs %d", a.Now(), eid, la, lb)
		}
	}
	return nil
}

// SortedSteps returns the distinct injection steps of a recording in
// increasing order (diagnostics).
func SortedSteps(rec []RecordedInjection) []int64 {
	seen := map[int64]bool{}
	var out []int64
	for _, ri := range rec {
		if !seen[ri.Step] {
			seen[ri.Step] = true
			out = append(out, ri.Step)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

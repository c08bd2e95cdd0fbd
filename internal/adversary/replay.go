package adversary

import (
	"cmp"
	"fmt"
	"slices"
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
	r.rec[i].Route, r.rec[i].Tag = p.Route(), p.Tag()
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

// Schedule is an oblivious injection schedule indexed by step. Add
// fills it; Replay seals it and serves it to any number of engine
// runs, each through its own cursor. Sealed, it is read-only.
type Schedule struct {
	// Before sealing, steps[k] and off[k] are the step and first
	// injection of the k-th run of Adds at one step. Sealed, steps
	// holds the distinct injection steps, increasing, and step
	// steps[k] injects inj[off[k]:off[k+1]].
	steps    []int64
	off      []int
	inj      []packet.Injection
	unsorted bool // a run's step precedes the one before it
	sealed   bool
}

// NewSchedule returns an empty schedule with room for n injections.
func NewSchedule(n int) *Schedule {
	return &Schedule{inj: make([]packet.Injection, 0, n)}
}

// Add appends n copies of inj at step (none when n < 1). Steps may
// come in any order; the injections of one step keep the order they
// were added in, which is their enqueue order. Add must not be called
// after Replay.
func (s *Schedule) Add(step int64, inj packet.Injection, n int64) {
	if n < 1 {
		return
	}
	if k := len(s.steps); k == 0 || s.steps[k-1] != step {
		s.unsorted = s.unsorted || k > 0 && s.steps[k-1] > step
		s.steps = append(s.steps, step)
		s.off = append(s.off, len(s.inj))
	}
	for ; n > 0; n-- {
		s.inj = append(s.inj, inj)
	}
}

// Replay returns a fresh Replay of s for one engine run. The first
// call seals s: runs added out of step order are stably sorted by step
// and runs of one step merged, once. Once sealed, s is only read, so
// its Replays may run on separate goroutines.
func (s *Schedule) Replay() *Replay {
	if !s.sealed {
		s.sealed = true
		s.off = append(s.off, len(s.inj))
		if s.unsorted {
			s.sort()
		}
	}
	return &Replay{sched: s}
}

func (s *Schedule) sort() {
	runs := make([]int, len(s.steps))
	for k := range runs {
		runs[k] = k
	}
	slices.SortStableFunc(runs, func(a, b int) int { return cmp.Compare(s.steps[a], s.steps[b]) })
	steps, off := make([]int64, 0, len(s.steps)), make([]int, 0, len(s.off))
	inj := make([]packet.Injection, 0, len(s.inj))
	for _, k := range runs {
		if n := len(steps); n == 0 || steps[n-1] != s.steps[k] {
			steps = append(steps, s.steps[k])
			off = append(off, len(inj))
		}
		inj = append(inj, s.inj[s.off[k]:s.off[k+1]]...)
	}
	s.steps, s.off, s.inj = steps, append(off, len(inj)), inj
}

// Replay is an oblivious adversary that re-issues a schedule: each
// packet is injected at its step with its final route. A Replay serves
// one engine run: its cursor only moves forward. Seeds (step 0) are
// not injected by Replay; pass them to the engine with SeedRecording
// before stepping.
type Replay struct {
	sched  *Schedule
	cursor int   // index of the first step not known to be past
	lastT  int64 // last step Inject ran at (0 before the first)
}

// NewReplay builds a Replay from a finished recording.
func NewReplay(rec []RecordedInjection) *Replay {
	s := NewSchedule(len(rec))
	for _, ri := range rec {
		if ri.Step != 0 {
			s.Add(ri.Step, packet.Injection{Route: ri.Route, Tag: ri.Tag}, 1)
		}
	}
	return s.Replay()
}

// PreStep implements sim.Adversary.
func (*Replay) PreStep(*sim.Engine) {}

// Inject implements sim.Adversary. The returned slice is the
// schedule's own storage, capped so an append cannot reach the next
// step's injections.
func (rp *Replay) Inject(e *sim.Engine) []packet.Injection {
	now, s := e.Now(), rp.sched
	rp.lastT = now
	for rp.cursor < len(s.steps) && s.steps[rp.cursor] < now {
		rp.cursor++
	}
	if rp.cursor == len(s.steps) || s.steps[rp.cursor] != now {
		return nil
	}
	end := s.off[rp.cursor+1]
	return s.inj[s.off[rp.cursor]:end:end]
}

// StaticUntil implements sim.StaticAdversary: a recording is a pure
// schedule, so the replay is provably silent up to one step before the
// next recorded injection step after the last step Inject ran at
// (conservatively stale inside leaped windows, like BurstScript), and
// forever once the recording is exhausted.
func (rp *Replay) StaticUntil() int64 {
	steps := rp.sched.steps
	for rp.cursor < len(steps) && steps[rp.cursor] <= rp.lastT {
		rp.cursor++
	}
	if rp.cursor == len(steps) {
		return sim.Forever
	}
	return steps[rp.cursor] - 1
}

// LastStep returns the last step with injections (0 when none).
func (rp *Replay) LastStep() int64 {
	if n := len(rp.sched.steps); n > 0 {
		return max(rp.sched.steps[n-1], 0)
	}
	return 0
}

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
		u.add(ri.Step, ri.Route, nil)
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

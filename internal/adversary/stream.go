// Package adversary implements the adversaries of adversarial queuing
// theory: scripted injection streams, the (w,r) windowed adversary of
// Borodin et al. (Definition 2.1 of the paper), the leaky-bucket
// rate-r adversary of Andrews et al., compliance validators for both,
// the on-line rerouting machinery of Lemma 3.3, and the initial-
// configuration reduction of Observation 4.4.
package adversary

import (
	"fmt"

	"aqt/internal/graph"
	"aqt/internal/packet"
	"aqt/internal/rational"
	"aqt/internal/sim"
)

// Stream describes one paced injection stream: starting at step Start,
// inject packets at exactly rate Rate (cumulatively floor(rate·k)
// packets over the stream's first k active steps) until Budget packets
// have been injected (Budget < 0 means unbounded).
//
// Exactly one of Route and RouteFn must be set. RouteFn receives the
// 0-based index of the packet within the stream, letting one stream
// emit position-dependent routes (Lemma 3.15 needs "the first n
// packets have path of length 1, the rest ...").
type Stream struct {
	Name    string
	Start   int64
	Rate    rational.Rat
	Budget  int64
	Route   []graph.EdgeID
	RouteFn func(k int64) []graph.EdgeID
	Tag     string
}

// runningStream couples a Stream with its pacing state.
type runningStream struct {
	Stream
	pacer *rational.CappedPacer
	count int64
}

func (rs *runningStream) done() bool { return rs.pacer.Done() }

// Script is an Adversary built from a set of Streams. Streams may be
// added at any time, including mid-run by phase controllers. The zero
// value is an empty script that injects nothing.
type Script struct {
	streams []*runningStream
	pre     func(e *sim.Engine) // optional PreStep hook (rerouting)
	out     []packet.Injection  // Inject's result, reused across calls
}

// NewScript returns a Script with the given initial streams.
func NewScript(streams ...Stream) *Script {
	s := &Script{}
	for _, st := range streams {
		s.AddStream(st)
	}
	return s
}

// AddStream registers a stream. It panics on an invalid specification.
func (s *Script) AddStream(st Stream) {
	if err := CheckStream(st); err != nil {
		panic(err)
	}
	budget := st.Budget
	if budget < 0 {
		budget = 1<<62 - 1
	}
	s.streams = append(s.streams, &runningStream{
		Stream: st,
		pacer:  rational.NewCappedPacer(st.Rate, budget),
	})
}

// SetPreStep installs a PreStep hook (used for Lemma 3.3 rerouting).
func (s *Script) SetPreStep(fn func(e *sim.Engine)) { s.pre = fn }

// PreStep implements sim.Adversary.
func (s *Script) PreStep(e *sim.Engine) {
	if s.pre != nil {
		s.pre(e)
	}
}

// Inject implements sim.Adversary.
func (s *Script) Inject(e *sim.Engine) []packet.Injection {
	t := e.Now()
	out := s.out[:0]
	n := 0
	for _, rs := range s.streams {
		if rs.done() {
			continue // drop exhausted streams below
		}
		s.streams[n] = rs
		n++
		if t < rs.Start {
			continue
		}
		for k := rs.pacer.Tick(); k > 0; k-- {
			route := rs.Route
			if rs.RouteFn != nil {
				route = rs.RouteFn(rs.count)
			}
			rs.count++
			out = append(out, packet.Injection{
				Route:      route,
				Tag:        rs.Tag,
				SourceName: rs.Name,
			})
		}
	}
	s.streams = s.streams[:n]
	s.out = out
	return out
}

// StaticUntil implements sim.StaticAdversary. A stream that has not
// started yet is provably silent through Start−1 and skipping those
// steps leaves it untouched (Inject returns before its pacer ticks).
// A started stream, by contrast, ticks its pacer every step — even
// steps yielding zero packets advance pacing state — so it pins the
// horizon into the past (Start−1 < now), disabling leaps until it
// exhausts its budget. A PreStep hook could do anything, so it
// disables leaping outright.
func (s *Script) StaticUntil() int64 {
	if s.pre != nil {
		return 0
	}
	h := sim.Forever
	for _, rs := range s.streams {
		if rs.done() {
			continue
		}
		if rs.Start-1 < h {
			h = rs.Start - 1
		}
	}
	return h
}

// Idle reports whether every stream has exhausted its budget.
func (s *Script) Idle() bool {
	for _, rs := range s.streams {
		if !rs.done() {
			return false
		}
	}
	return true
}

// PendingBudget returns the total number of packets the script still
// intends to inject.
func (s *Script) PendingBudget() int64 {
	var sum int64
	for _, rs := range s.streams {
		sum += rs.pacer.Remaining()
	}
	return sum
}

// Sequence chains adversaries: each phase runs until its Done
// condition reports true, then the next phase starts. It is the glue
// of the Theorem 3.17 iterative construction.
type Sequence struct {
	noState
	phases []Phase
	cur    int
	onSwap func(idx int, e *sim.Engine)
}

// Phase is one stage of a Sequence. Enter is called once when the
// phase becomes current (at the PreStep of its first step); its
// returned adversary then drives injections until Done fires, which is
// evaluated at the start of every step before delegation.
type Phase struct {
	Name  string
	Enter func(e *sim.Engine) sim.Adversary
	Done  func(e *sim.Engine) bool

	// Until, when set, points at the phase's leap horizon: an absolute
	// step H such that Done is guaranteed false for every step t <= H,
	// so the Sequence cannot advance inside (now, H]. Phases with a
	// known end time point it at the variable their Enter hook assigns
	// (the lemma drains and pumps set end = τ+…) — a pointer rather
	// than a closure so constructing a phase stays allocation-free; it
	// is only read after Enter ran. Leaving Until nil merely disables
	// leaping while the phase is current. See Sequence.StaticUntil.
	Until *int64

	adv sim.Adversary
}

// NewSequence returns a Sequence over the given phases.
func NewSequence(phases ...Phase) *Sequence {
	return &Sequence{phases: phases}
}

// OnPhaseChange installs a callback fired when a phase is entered.
func (q *Sequence) OnPhaseChange(fn func(idx int, e *sim.Engine)) { q.onSwap = fn }

// Current returns the current phase index (== len(phases) when done).
func (q *Sequence) Current() int { return q.cur }

// Finished reports whether all phases completed.
func (q *Sequence) Finished() bool { return q.cur >= len(q.phases) }

// advance enters phases until the current one is not yet done. Every
// phase entry is announced to the engine's MarkerObservers via
// Annotate, so a flight recorder sees the paper-level phase structure
// (the Lemma 3.6/3.13/3.15/3.16 names) interleaved with the packet
// events. Phase names are built once at construction, so annotating
// is allocation-free (and a no-op without marker observers).
func (q *Sequence) advance(e *sim.Engine) {
	for q.cur < len(q.phases) {
		ph := &q.phases[q.cur]
		if ph.adv == nil {
			e.Annotate(ph.Name)
			if q.onSwap != nil {
				q.onSwap(q.cur, e)
			}
			ph.adv = ph.Enter(e)
			if ph.adv == nil {
				ph.adv = sim.NopAdversary{}
			}
		}
		if ph.Done == nil || !ph.Done(e) {
			return
		}
		q.cur++
	}
}

// PreStep implements sim.Adversary.
func (q *Sequence) PreStep(e *sim.Engine) {
	q.advance(e)
	if q.cur < len(q.phases) {
		q.phases[q.cur].adv.PreStep(e)
	}
}

// Inject implements sim.Adversary.
func (q *Sequence) Inject(e *sim.Engine) []packet.Injection {
	if q.cur < len(q.phases) {
		return q.phases[q.cur].adv.Inject(e)
	}
	return nil
}

// StaticUntil implements sim.StaticAdversary: the schedule is static
// up to the sooner of the current phase's Done horizon (Until) and its
// inner adversary's own static horizon. Both must be known — a phase
// whose Enter has not yet run could do anything at its first PreStep,
// and advancing phases mid-window would skip Annotate markers and
// onSwap callbacks — so any missing piece reports "no guarantee".
// A finished Sequence is permanently silent.
func (q *Sequence) StaticUntil() int64 {
	if q.Finished() {
		return sim.Forever
	}
	ph := &q.phases[q.cur]
	if ph.adv == nil || ph.Until == nil {
		return 0
	}
	inner, ok := ph.adv.(sim.StaticAdversary)
	if !ok {
		return 0
	}
	h := *ph.Until
	if ih := inner.StaticUntil(); ih < h {
		h = ih
	}
	return h
}

// PhaseName returns the current phase's name, or "done".
func (q *Sequence) PhaseName() string {
	if q.Finished() {
		return "done"
	}
	return q.phases[q.cur].Name
}

// String implements fmt.Stringer.
func (q *Sequence) String() string {
	return fmt.Sprintf("Sequence(phase %d/%d: %s)", q.cur, len(q.phases), q.PhaseName())
}

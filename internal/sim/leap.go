// Leap mode: batch-advancing the engine over provably static windows.
//
// The paper's constructions spend most of their wall-clock in long
// deterministic stretches — the silent drain of Lemma 3.13, the idle
// tail after a Sequence finishes, the quiet intervals between the
// bursts of a Definition 2.1 (w,r) adversary. Inside such a stretch
// the step engine still pays a full stepCore per tick. Leap mode skips
// the ticks: when the adversary proves its schedule static over the
// next k steps (the StaticAdversary capability) and the network is in
// a regime whose evolution has a closed form, RunLeap advances the
// clock by k at once, updating per-edge queue lengths, injected/
// absorbed, the incremental max-queue tracker and StepStats exactly as
// k stepCore calls would have.
//
// Two window regimes are leapable:
//
//   - idle: the network is empty. Every step is a pure no-op; the
//     window is an O(1) clock jump.
//   - drain: every queued packet already sits in the buffer of the
//     LAST edge of its route (the engine maintains this as the
//     nonFinal == 0 invariant). Each step then sends one packet from
//     every nonempty buffer straight to absorption — no receives, no
//     cross-buffer interaction — so buffers drain independently and
//     the window collapses to one tight per-buffer loop that reuses
//     the exact per-step selection path (keyed-heap pops included, so
//     HeapSkips stays bit-identical). Drain windows are clamped to the
//     deepest buffer, so the network empties at exactly the step the
//     step engine would reach TotalQueued() == 0.
//
// Equivalence contract (gated by TestLeapEquivalence and the golden
// experiment tables): RunLeap(n) produces a bit-identical Snapshot
// (modulo Stats.Nanos) and identical per-edge queue lengths to Run(n).
// Leap bookkeeping lives in a separate LeapStats, NOT in StepStats,
// precisely so the Snapshot comparison stays byte-for-byte.
//
// Observers: a window is only leaped if every OnStep observer — and,
// for drain windows, every send/absorption event observer — implements
// LeapObserver and accepts the window's kind. Accepting observers get
// one OnLeap call per window, fired BEFORE the engine state mutates,
// so they can reconstruct their per-step observations from the
// pre-window state in closed form (obs.Sampler and obs.Meter do).
// Observers that cannot reconstruct (e.g. obs.Meter's latency
// histogram needs each absorption, so it refuses drains) simply refuse
// the kind and the engine falls back to stepping — correctness never
// depends on acceptance.
package sim

import (
	"math"
	"time"

	"aqt/internal/graph"
	"aqt/internal/packet"
)

// Forever is the StaticUntil horizon of an adversary that will never
// inject or reroute again.
const Forever int64 = math.MaxInt64

// StaticAdversary is the opt-in capability behind leap mode: an
// adversary that can prove its schedule static over a future window.
type StaticAdversary interface {
	Adversary

	// StaticUntil returns an absolute step horizon H with this
	// guarantee: for every step t with Now() < t <= H, PreStep would
	// observably do nothing (no reroutes, no phase changes, no
	// markers) and Inject would return nil — and skipping those calls
	// entirely leaves the adversary in an equivalent state (no pacing
	// or bookkeeping state advances on silent steps). H <= Now() means
	// "no guarantee right now" and disables leaping; Forever means the
	// adversary is permanently done.
	StaticUntil() int64
}

// StaticUntil implements StaticAdversary: a NopAdversary never acts.
func (NopAdversary) StaticUntil() int64 { return Forever }

// LeapKind labels the closed-form regime of a leaped window.
type LeapKind uint8

// Leapable window regimes.
const (
	// LeapIdle: the network is empty for the whole window.
	LeapIdle LeapKind = iota
	// LeapDrain: every queued packet sits on the final edge of its
	// route; each step absorbs one packet per nonempty buffer.
	LeapDrain
)

// String names the kind for reports.
func (k LeapKind) String() string {
	switch k {
	case LeapIdle:
		return "idle"
	case LeapDrain:
		return "drain"
	}
	return "leap(?)"
}

// LeapInfo describes one leaped window: the steps (From, To] were
// batch-advanced. From is the last executed step before the window.
type LeapInfo struct {
	From, To int64
	Kind     LeapKind
}

// Steps returns the number of steps the window covers.
func (li LeapInfo) Steps() int64 { return li.To - li.From }

// LeapObserver is the opt-in observer capability for leap mode.
// Observers registered via AddObserver or AddEventObserver that
// implement it may accept leaped windows; OnLeap fires once per window
// BEFORE the engine state mutates, so the pre-window state is still
// readable and per-step observations can be reconstructed in closed
// form.
type LeapObserver interface {
	// AcceptLeap reports whether the observer can account for a leaped
	// window of the given kind. Refusing makes the engine execute the
	// window step by step instead; it never loses events.
	AcceptLeap(kind LeapKind) bool
	// OnLeap is the closed-form replacement for the window's per-step
	// callbacks. The engine state is the pre-window state (end of step
	// info.From).
	OnLeap(e *Engine, info LeapInfo)
}

// LeapStats counts leap-mode activity. It is deliberately kept out of
// StepStats and Snapshot so leaped and stepped executions stay
// byte-identical there.
type LeapStats struct {
	Windows int64 // leaped windows
	Steps   int64 // steps covered by leaped windows
	Idle    int64 // idle windows
	Drain   int64 // drain windows
}

// Leaps returns the accumulated leap-mode counters.
func (e *Engine) Leaps() LeapStats { return e.leapStats }

// RunLeap executes n steps like Run, batch-advancing over provably
// static windows. The execution is bit-identical to Run(n) — same
// Snapshot (modulo Stats.Nanos), same per-edge queues, same keyed-heap
// counters; only the wall-clock accounting differs (StepStats.Nanos is
// charged once per batch, as in RunQuiet). OnStep observers see every
// executed step; leaped windows reach them as OnLeap calls instead.
func (e *Engine) RunLeap(n int64) {
	e.runLeap(n, nil)
}

// RunLeapUntil is RunUntil with leaping. pred is evaluated at entry
// (already-true costs zero steps, matching RunUntil), after every
// executed step and after every leaped window — never inside a
// window's interior. Callers must therefore use predicates that cannot
// first become true strictly inside a static window. The two families
// every runner here uses are safe by construction: phase predicates
// (Sequence.Finished) because a phase's Until horizon bounds the
// window, and emptiness predicates (TotalQueued() == 0) because drain
// windows are clamped to end exactly when the network empties.
func (e *Engine) RunLeapUntil(pred func(e *Engine) bool, maxSteps int64) bool {
	if pred == nil {
		panic("sim: RunLeapUntil needs a predicate")
	}
	return e.runLeap(maxSteps, pred)
}

func (e *Engine) runLeap(n int64, pred func(e *Engine) bool) bool {
	if pred != nil && pred(e) {
		return true
	}
	if n <= 0 {
		return false
	}
	observed := len(e.observers) > 0
	start := time.Now()
	defer func() { e.stats.Nanos += time.Since(start).Nanoseconds() }()
	// The capability check is hoisted out of the loop: with an adversary
	// that cannot prove static windows (RandomWR and friends) the loop
	// below is exactly Run's stepped loop, with no per-step leap probe.
	sa, static := e.adv.(StaticAdversary)
	for done := int64(0); done < n; {
		if static {
			if k, kind := e.leapWindow(sa, n-done); k > 0 {
				e.applyLeap(k, kind)
				done += k
				if pred != nil && pred(e) {
					return true
				}
				continue
			}
		}
		e.stepCore()
		done++
		if observed {
			for _, ob := range e.observers {
				ob.OnStep(e)
			}
		}
		if pred != nil && pred(e) {
			return true
		}
	}
	return false
}

// leapWindow returns the number of steps (0 = must step) the engine
// may batch-advance right now, and the window's regime. maxK > 0 caps
// the window (remaining run budget).
//
// Bounded buffers (Config.BufferCap > 0) need no extra guard here:
// both regimes are enqueue-free — idle windows hold no packets, and
// drain windows only move final-edge packets to absorption — and the
// static horizon rules out injections, so no step inside a leapable
// window can ever consult the drop policy. A window that could drop
// is by construction not leapable and falls back to stepping.
func (e *Engine) leapWindow(sa StaticAdversary, maxK int64) (int64, LeapKind) {
	h := sa.StaticUntil()
	if h <= e.now {
		return 0, LeapIdle
	}
	k := h - e.now
	if k > maxK || k < 0 { // k < 0: h == Forever overflowed the subtraction
		k = maxK
	}
	if e.TotalQueued() == 0 {
		if !e.leapAccepted(LeapIdle) {
			return 0, LeapIdle
		}
		return k, LeapIdle
	}
	if e.nonFinal != 0 {
		return 0, LeapIdle
	}
	// Clamp to the deepest buffer: the window then ends exactly at the
	// step the step engine would reach TotalQueued() == 0, so
	// emptiness predicates fire at the same time either way.
	if int64(e.curMax) < k {
		k = int64(e.curMax)
	}
	if !e.leapAccepted(LeapDrain) {
		return 0, LeapDrain
	}
	return k, LeapDrain
}

// acceptsLeap reports whether ob opted into leaped windows of kind.
func acceptsLeap(ob any, kind LeapKind) bool {
	lo, ok := ob.(LeapObserver)
	return ok && lo.AcceptLeap(kind)
}

// leapAccepted reports whether every observer that would have seen the
// window's per-step activity can account for it in closed form. Idle
// windows generate no events, so only OnStep observers matter; drain
// windows additionally absorb packets, so send and absorption event
// observers must opt in too (injection/reroute/marker observers see
// nothing either way — static windows have no such events).
func (e *Engine) leapAccepted(kind LeapKind) bool {
	for _, ob := range e.observers {
		if !acceptsLeap(ob, kind) {
			return false
		}
	}
	if kind == LeapDrain {
		for _, ob := range e.sendObs {
			if !acceptsLeap(ob, kind) {
				return false
			}
		}
		for _, ob := range e.absObs {
			if !acceptsLeap(ob, kind) {
				return false
			}
		}
	}
	return true
}

// applyLeap advances the engine over a static window of k steps in
// closed form. Accepting LeapObservers are notified BEFORE the state
// mutates.
func (e *Engine) applyLeap(k int64, kind LeapKind) {
	e.started = true
	info := LeapInfo{From: e.now, To: e.now + k, Kind: kind}
	for _, lo := range e.leapObs {
		if lo.AcceptLeap(kind) {
			lo.OnLeap(e, info)
		}
	}
	e.leapStats.Windows++
	e.leapStats.Steps += k
	if kind == LeapIdle {
		e.leapStats.Idle++
		e.now += k
		e.stats.Steps += k
		return
	}
	e.leapStats.Drain++
	// Every queued packet is on its final edge (nonFinal == 0), so the
	// next k steps never receive: buffers drain independently, one
	// packet per step each, through the exact per-step selection path.
	// Draining buffer-at-a-time instead of step-at-a-time keeps each
	// buffer's ring and heap hot in cache.
	keep := e.active[:0]
	for _, eid := range e.active {
		buf := &e.buffers[eid]
		l := buf.Len()
		if l == 0 {
			e.inAct[eid] = false
			continue
		}
		d := l
		if int64(d) > k {
			d = int(k)
		}
		for j := 1; j <= d; j++ {
			t := e.now + int64(j)
			var h packet.Handle
			switch {
			case e.keyed != nil:
				h = e.popKeyed(eid)
			case e.polFor != nil:
				h = buf.RemoveAt(e.polFor[eid].Select(buf, t))
			default:
				h = buf.RemoveAt(e.pol.Select(buf, t))
			}
			if res := t - e.slab.Get(h).ArrivedAt; res > e.maxResidence {
				e.maxResidence = res
			}
			e.absorbed++
			e.slab.Release(h)
		}
		// Bulk occupancy-histogram update: this edge moved from level l
		// to level l-d in one go (the step engine walked it through the
		// intermediate levels, with the same net effect).
		e.lenCnt[l]--
		e.lenCnt[l-d]++
		e.stats.Sends += int64(d)
		if l > d {
			keep = append(keep, eid)
		} else {
			e.inAct[eid] = false
		}
	}
	e.active = keep
	// All nonempty buffers shrank by min(len, k), so the new max is
	// exactly max(curMax - k, 0); which edge achieves it is unknown
	// until queried, as after any shrink.
	if int64(e.curMax) > k {
		e.curMax -= int(k)
		e.maxDirty = true
	} else {
		e.curMax = 0
		e.maxEdge, e.maxDirty = graph.NoEdge, false
	}
	e.now += k
	e.stats.Steps += k
}

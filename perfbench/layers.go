package main

import (
	"fmt"
	"sort"
	"time"

	"aqt/internal/buffer"
	"aqt/internal/graph"
	"aqt/internal/packet"
	"aqt/internal/policy"
	"aqt/internal/sim"
)

// sampleShift sets the share of a hot layer method's calls that are
// timed: one in 2^(64-sampleShift) = 64. Every call is counted; the
// layer's total time is estimated as calls × mean sampled duration,
// which keeps two clock reads off all but 1/64 of the engine's
// innermost calls. The calls to time are picked by hashing the call
// number, not by taking every 64th, so a periodic cost such as
// obs.Sampler's 64-step stride is neither always nor never sampled.
const sampleShift = 58

// clockCost is the cost of one time.Now/time.Since pair on this host,
// measured once at start-up and subtracted from every sampled call so
// cheap calls (FIFO.Select) are not charged the clock's own cost.
var clockCost = measureClockCost()

func measureClockCost() float64 {
	const n = 2001
	ds := make([]float64, n)
	for i := range ds {
		t := time.Now()
		ds[i] = float64(time.Since(t))
	}
	sort.Float64s(ds)
	return ds[n/2]
}

// callMeter counts the calls into one layer method and times a sample
// of them.
type callMeter struct {
	calls   int64
	sampled int64
	ns      int64
}

// tick counts a call and reports whether to time it.
func (c *callMeter) tick() bool {
	c.calls++
	return uint64(c.calls)*0x9e3779b97f4a7c15>>sampleShift == 0
}

func (c *callMeter) record(start time.Time) {
	c.sampled++
	c.ns += int64(time.Since(start))
}

// nsPerCall is the mean sampled duration, net of the clock's cost.
func (c *callMeter) nsPerCall() float64 {
	if c.sampled == 0 {
		return 0
	}
	v := float64(c.ns)/float64(c.sampled) - clockCost
	if v < 0 {
		return 0
	}
	return v
}

// totalNs estimates the time spent in all calls.
func (c *callMeter) totalNs() float64 { return c.nsPerCall() * float64(c.calls) }

func (c *callMeter) add(o callMeter) {
	c.calls += o.calls
	c.sampled += o.sampled
	c.ns += o.ns
}

// hotLayers collects the sampled timings of the calls the engine makes
// into the adversary, the policy and the per-step observers.
type hotLayers struct {
	preStep, inject callMeter
	selects, keys   callMeter
	scanLen         int64 // Σ buffer length over Select calls
	onStep          callMeter
	reroutes        int64
}

func (h *hotLayers) add(o *hotLayers) {
	h.preStep.add(o.preStep)
	h.inject.add(o.inject)
	h.selects.add(o.selects)
	h.keys.add(o.keys)
	h.scanLen += o.scanLen
	h.onStep.add(o.onStep)
	h.reroutes += o.reroutes
}

// calleeNs is the estimated time the engine spent inside wrapped calls.
func (h *hotLayers) calleeNs() float64 {
	return h.preStep.totalNs() + h.inject.totalNs() + h.selects.totalNs() + h.keys.totalNs() + h.onStep.totalNs()
}

// timedAdversary times PreStep and Inject and forwards the checkpoint
// methods, so a wrapped adversary checkpoints like the bare one.
type timedAdversary struct {
	inner sim.CheckpointableAdversary
	h     *hotLayers
}

// PreStep is timed on every call: the lemma phases do all their
// rerouting and validation in the PreStep that enters them, so its cost
// is too heavy-tailed to estimate from a sample.
func (a *timedAdversary) PreStep(e *sim.Engine) {
	t := time.Now()
	a.inner.PreStep(e)
	a.h.preStep.calls++
	a.h.preStep.record(t)
}

func (a *timedAdversary) Inject(e *sim.Engine) []packet.Injection {
	if !a.h.inject.tick() {
		return a.inner.Inject(e)
	}
	t := time.Now()
	inj := a.inner.Inject(e)
	a.h.inject.record(t)
	return inj
}

func (a *timedAdversary) CheckpointState() (sim.AdversaryState, error) {
	return a.inner.CheckpointState()
}

func (a *timedAdversary) RestoreState(e *sim.Engine, st sim.AdversaryState) error {
	return a.inner.RestoreState(e, st)
}

// timedStaticAdversary additionally forwards StaticUntil, so leap mode
// sees the same horizons through the wrapper.
type timedStaticAdversary struct {
	timedAdversary
	static sim.StaticAdversary
}

func (a *timedStaticAdversary) StaticUntil() int64 { return a.static.StaticUntil() }

// wrapAdversary returns adv behind a timing wrapper that implements
// exactly the engine-visible interfaces adv does.
func wrapAdversary(adv sim.CheckpointableAdversary, h *hotLayers) sim.Adversary {
	base := timedAdversary{inner: adv, h: h}
	if st, ok := adv.(sim.StaticAdversary); ok {
		return &timedStaticAdversary{timedAdversary: base, static: st}
	}
	return &base
}

// timedPolicy times Select and forwards Name and Traits, so validators
// that read the policy's classification (Lemma 3.3's historic check)
// see the bare policy's.
type timedPolicy struct {
	inner policy.Policy
	h     *hotLayers
}

func (p *timedPolicy) Name() string          { return p.inner.Name() }
func (p *timedPolicy) Traits() policy.Traits { return p.inner.Traits() }

func (p *timedPolicy) Select(q *buffer.Buffer, now int64) int {
	p.h.scanLen += int64(q.Len())
	if !p.h.selects.tick() {
		return p.inner.Select(q, now)
	}
	t := time.Now()
	i := p.inner.Select(q, now)
	p.h.selects.record(t)
	return i
}

// timedKeyedPolicy keeps policy.Keyed, so the engine still takes its
// keyed-heap path, and times SelectionKey.
type timedKeyedPolicy struct {
	timedPolicy
	keyed policy.Keyed
}

func (p *timedKeyedPolicy) SelectionKey(pk *packet.Packet) int64 {
	if !p.h.keys.tick() {
		return p.keyed.SelectionKey(pk)
	}
	t := time.Now()
	k := p.keyed.SelectionKey(pk)
	p.h.keys.record(t)
	return k
}

func wrapPolicy(pol policy.Policy, h *hotLayers) policy.Policy {
	base := timedPolicy{inner: pol, h: h}
	if k, ok := pol.(policy.Keyed); ok {
		return &timedKeyedPolicy{timedPolicy: base, keyed: k}
	}
	return &base
}

// timedObserver times OnStep.
type timedObserver struct {
	inner sim.Observer
	h     *hotLayers
}

func (o *timedObserver) OnStep(e *sim.Engine) {
	if !o.h.onStep.tick() {
		o.inner.OnStep(e)
		return
	}
	t := time.Now()
	o.inner.OnStep(e)
	o.h.onStep.record(t)
}

// timedLeapObserver forwards LeapObserver (obs.Sampler's set).
type timedLeapObserver struct {
	timedObserver
	leap sim.LeapObserver
}

func (o *timedLeapObserver) AcceptLeap(k sim.LeapKind) bool        { return o.leap.AcceptLeap(k) }
func (o *timedLeapObserver) OnLeap(e *sim.Engine, li sim.LeapInfo) { o.leap.OnLeap(e, li) }

// timedMeterObserver forwards LeapObserver, AbsorptionObserver and
// DropObserver (obs.Meter's set).
type timedMeterObserver struct {
	timedLeapObserver
	abs  sim.AbsorptionObserver
	drop sim.DropObserver
}

func (o *timedMeterObserver) OnAbsorb(t int64, p *packet.Packet) { o.abs.OnAbsorb(t, p) }
func (o *timedMeterObserver) OnDrop(t int64, eid graph.EdgeID, p *packet.Packet) {
	o.drop.OnDrop(t, eid, p)
}

// wrapObserver returns ob behind a wrapper that implements exactly the
// engine-visible interfaces ob does, so the engine wires the same event
// hooks and makes the same leap decisions. It panics on an interface
// set it has no wrapper for.
func wrapObserver(ob sim.Observer, h *hotLayers) sim.Observer {
	base := timedObserver{inner: ob, h: h}
	lo, leap := ob.(sim.LeapObserver)
	ao, abs := ob.(sim.AbsorptionObserver)
	do, drop := ob.(sim.DropObserver)
	_, inj := ob.(sim.InjectionObserver)
	_, rer := ob.(sim.RerouteObserver)
	_, send := ob.(sim.SendObserver)
	_, mark := ob.(sim.MarkerObserver)
	_, fail := ob.(sim.FailureObserver)
	switch {
	case inj || rer || send || mark || fail:
	case leap && abs && drop:
		return &timedMeterObserver{timedLeapObserver: timedLeapObserver{base, lo}, abs: ao, drop: do}
	case leap && !abs && !drop:
		return &timedLeapObserver{base, lo}
	case !leap && !abs && !drop:
		return &base
	}
	panic(fmt.Sprintf("perfbench: no timing wrapper for observer %T", ob))
}

// rerouteCounter counts Lemma 3.3 route changes; it is registered as an
// event-only observer, so it leaves the step loop and leap decisions
// untouched.
type rerouteCounter struct{ h *hotLayers }

func (r rerouteCounter) OnReroute(int64, *packet.Packet, []graph.EdgeID) { r.h.reroutes++ }

package adversary

import (
	"fmt"
	"slices"

	"aqt/internal/graph"
	"aqt/internal/packet"
	"aqt/internal/rational"
	"aqt/internal/sim"
)

// usage records, per edge, the times at which injected packets
// requiring that edge entered the system. Reroutes also register the
// newly added edges at the original injection time of the packet,
// because the rate constraint of Definition 2.1 / the rate-r adversary
// is about the routes packets "have to follow" — after a reroute, the
// packet's route includes the new edges, attributed to its injection.
// times is indexed by EdgeID and grows on demand; the checks scan it in
// ascending edge ID, so the violation they report is the same on every
// run of one execution: the lowest violating edge's earliest window.
type usage struct {
	times [][]int64
}

func newUsage() *usage {
	return &usage{}
}

// add charges t to each edge of route that old lacks (old is nil for an
// injection, a reroute's old route otherwise). It compares in place,
// allocation-free: old is a simple route and short enough that scanning
// it beats building a set.
func (u *usage) add(t int64, route, old []graph.EdgeID) {
	for i, e := range route {
		if slices.Contains(old, e) || slices.Contains(route[:i], e) {
			continue // an edge counts once per packet (routes are simple anyway)
		}
		if n := int(e) + 1; n > len(u.times) {
			u.times = append(u.times, make([][]int64, n-len(u.times))...)
		}
		u.times[e] = append(u.times[e], t)
	}
}

// sortAll sorts each edge's times: reroutes charge earlier injection
// times out of order.
func (u *usage) sortAll() {
	for _, ts := range u.times {
		slices.Sort(ts)
	}
}

// Violation describes one rate-constraint breach found by a validator.
type Violation struct {
	Edge   graph.EdgeID
	T1, T2 int64 // inclusive interval
	Count  int64 // packets requiring Edge injected in [T1,T2]
	Bound  int64 // allowed maximum
}

// Error renders the violation.
func (v Violation) Error() string {
	return fmt.Sprintf("edge %d: %d packets injected in [%d,%d], bound %d",
		v.Edge, v.Count, v.T1, v.T2, v.Bound)
}

// RateValidator is an engine observer that records every injection and
// reroute and can afterwards verify the execution against the leaky-
// bucket rate-r adversary definition: for every edge e and every time
// interval I, the number of packets injected during I whose routes
// require e is at most ceil(r·|I|).
//
// Initial-configuration seeds (injections at t = 0) are excluded: the
// model treats the initial configuration separately (section 4 of the
// paper, Observation 4.4).
type RateValidator struct {
	Rate rational.Rat
	u    *usage
}

// NewRateValidator returns a validator for the given rate.
func NewRateValidator(rate rational.Rat) *RateValidator {
	return &RateValidator{Rate: rate, u: newUsage()}
}

// OnStep implements sim.Observer.
func (rv *RateValidator) OnStep(*sim.Engine) {}

// AcceptLeap implements sim.LeapObserver: the validator only records
// injections and reroutes, and static windows contain neither, so
// leaped windows of either kind carry nothing to record.
func (rv *RateValidator) AcceptLeap(sim.LeapKind) bool { return true }

// OnLeap implements sim.LeapObserver (nothing to record).
func (rv *RateValidator) OnLeap(*sim.Engine, sim.LeapInfo) {}

// OnInject implements sim.InjectionObserver.
func (rv *RateValidator) OnInject(t int64, p *packet.Packet) {
	if t == 0 {
		return
	}
	rv.u.add(t, p.Route(), nil)
}

// OnReroute implements sim.RerouteObserver. The edges added by the
// reroute are charged to the packet's injection time.
func (rv *RateValidator) OnReroute(t int64, p *packet.Packet, oldRoute []graph.EdgeID) {
	if p.InjectedAt == 0 {
		return
	}
	rv.u.add(p.InjectedAt, p.Route(), oldRoute)
}

// Check verifies every interval between recorded injection times on
// every edge. A violating interval's endpoints always coincide with
// injection times, so checking those O(k²) intervals per edge is
// exact. Returns nil when compliant.
func (rv *RateValidator) Check() error {
	rv.u.sortAll()
	for e, ts := range rv.u.times {
		e := graph.EdgeID(e)
		for i := 0; i < len(ts); i++ {
			for j := i; j < len(ts); j++ {
				count := int64(j - i + 1)
				bound := rv.Rate.CeilMulInt(ts[j] - ts[i] + 1)
				if count > bound {
					return Violation{Edge: e, T1: ts[i], T2: ts[j], Count: count, Bound: bound}
				}
			}
		}
	}
	return nil
}

// CheckAndNotify is Check, but a violation is first reported to e's
// FailureObservers (sim.Engine.NotifyFailure) so a registered flight
// recorder auto-dumps the event tail before the caller acts on the
// error. e may be nil.
func (rv *RateValidator) CheckAndNotify(e *sim.Engine) error {
	err := rv.Check()
	if err != nil && e != nil {
		e.NotifyFailure("rate validator: " + err.Error())
	}
	return err
}

// CheckBudget limits the quadratic exact check to edges with at most
// maxPerEdge recorded injections and uses a linear sliding scan (all
// windows of every length up to maxWin) for busier edges. For the
// paper's constructions (single-edge streams at fixed rates) the
// linear scan at the stream's own granularity is tight in practice.
func (rv *RateValidator) CheckBudget(maxPerEdge int, maxWin int64) error {
	rv.u.sortAll()
	for e, ts := range rv.u.times {
		e := graph.EdgeID(e)
		if len(ts) <= maxPerEdge {
			if err := checkAllIntervals(e, ts, rv.Rate); err != nil {
				return err
			}
			continue
		}
		if err := checkAnchoredIntervals(e, ts, rv.Rate, maxWin); err != nil {
			return err
		}
	}
	return nil
}

func checkAllIntervals(e graph.EdgeID, ts []int64, rate rational.Rat) error {
	for i := 0; i < len(ts); i++ {
		for j := i; j < len(ts); j++ {
			count := int64(j - i + 1)
			bound := rate.CeilMulInt(ts[j] - ts[i] + 1)
			if count > bound {
				return Violation{Edge: e, T1: ts[i], T2: ts[j], Count: count, Bound: bound}
			}
		}
	}
	return nil
}

// checkAnchoredIntervals checks, for every injection i, the intervals
// [ts[i], ts[j]] with ts[j]-ts[i] <= maxWin, plus the full span. This
// is not exhaustive but catches every violation whose tight window is
// at most maxWin long.
func checkAnchoredIntervals(e graph.EdgeID, ts []int64, rate rational.Rat, maxWin int64) error {
	for i := 0; i < len(ts); i++ {
		for j := i; j < len(ts); j++ {
			width := ts[j] - ts[i] + 1
			if width > maxWin && j != len(ts)-1 {
				break
			}
			count := int64(j - i + 1)
			bound := rate.CeilMulInt(width)
			if count > bound {
				return Violation{Edge: e, T1: ts[i], T2: ts[j], Count: count, Bound: bound}
			}
			if width > maxWin {
				break
			}
		}
	}
	// Full span.
	if n := len(ts); n > 0 {
		count := int64(n)
		bound := rate.CeilMulInt(ts[n-1] - ts[0] + 1)
		if count > bound {
			return Violation{Edge: e, T1: ts[0], T2: ts[n-1], Count: count, Bound: bound}
		}
	}
	return nil
}

// EdgeInjections returns the recorded injection times for an edge
// (sorted copy), for tests and diagnostics.
func (rv *RateValidator) EdgeInjections(e graph.EdgeID) []int64 {
	rv.u.sortAll()
	if e < 0 || int(e) >= len(rv.u.times) {
		return []int64{}
	}
	return append([]int64{}, rv.u.times[e]...)
}

// WindowValidator verifies Definition 2.1: a (w,r) adversary may, in
// every window of w consecutive steps, inject at most floor(r·w)
// packets requiring any single edge. Like RateValidator it observes
// the execution and answers at Check time.
type WindowValidator struct {
	W    int64
	Rate rational.Rat
	u    *usage
}

// NewWindowValidator returns a validator for a (w,r) adversary.
func NewWindowValidator(w int64, rate rational.Rat) *WindowValidator {
	if err := CheckWindow(w); err != nil {
		panic(err)
	}
	return &WindowValidator{W: w, Rate: rate, u: newUsage()}
}

// OnStep implements sim.Observer.
func (wv *WindowValidator) OnStep(*sim.Engine) {}

// AcceptLeap implements sim.LeapObserver: like RateValidator, the
// window validator only records injections and reroutes, of which
// static windows have none.
func (wv *WindowValidator) AcceptLeap(sim.LeapKind) bool { return true }

// OnLeap implements sim.LeapObserver (nothing to record).
func (wv *WindowValidator) OnLeap(*sim.Engine, sim.LeapInfo) {}

// OnInject implements sim.InjectionObserver.
func (wv *WindowValidator) OnInject(t int64, p *packet.Packet) {
	if t == 0 {
		return
	}
	wv.u.add(t, p.Route(), nil)
}

// OnReroute implements sim.RerouteObserver; added edges charge the
// packet's injection time.
func (wv *WindowValidator) OnReroute(t int64, p *packet.Packet, oldRoute []graph.EdgeID) {
	if p.InjectedAt == 0 {
		return
	}
	wv.u.add(p.InjectedAt, p.Route(), oldRoute)
}

// Bound returns the per-window per-edge injection bound floor(r·w).
func (wv *WindowValidator) Bound() int64 { return wv.Rate.FloorMulInt(wv.W) }

// CheckAndNotify is Check with sim.Engine.NotifyFailure on violation,
// mirroring RateValidator.CheckAndNotify. e may be nil.
func (wv *WindowValidator) CheckAndNotify(e *sim.Engine) error {
	err := wv.Check()
	if err != nil && e != nil {
		e.NotifyFailure("window validator: " + err.Error())
	}
	return err
}

// Check verifies every w-window with a sliding two-pointer scan per
// edge — O(k) per edge. Returns nil when compliant.
func (wv *WindowValidator) Check() error {
	wv.u.sortAll()
	bound := wv.Bound()
	for e, ts := range wv.u.times {
		lo := 0
		for hi := range ts {
			for ts[hi]-ts[lo] >= wv.W {
				lo++
			}
			if count := int64(hi - lo + 1); count > bound {
				return Violation{Edge: graph.EdgeID(e), T1: ts[lo], T2: ts[hi], Count: count, Bound: bound}
			}
		}
	}
	return nil
}

package adversary

import (
	"fmt"
	"math"
	"slices"

	"aqt/internal/graph"
	"aqt/internal/packet"
	"aqt/internal/rational"
	"aqt/internal/sim"
)

// SharedEdge returns an edge common to the remaining routes of all the
// given packets, if one exists (the precondition of Lemma 3.3 on the
// rerouted set P0). Ties are resolved to the lowest edge ID.
//
// The candidates start as the first packet's remaining route and are
// narrowed by each further packet, so the cost is O(len(pkts)·L·C) for
// routes of length L and C surviving candidates, with no allocation
// for routes of up to 64 edges.
func SharedEdge(pkts []*packet.Packet) (graph.EdgeID, bool) {
	if len(pkts) == 0 {
		return graph.NoEdge, false
	}
	var buf [64]graph.EdgeID
	common := append(buf[:0], pkts[0].RemainingRoute()...)
	for _, p := range pkts[1:] {
		if len(common) == 0 {
			break
		}
		rem := p.RemainingRoute()
		n := 0
		for _, e := range common {
			if slices.Contains(rem, e) {
				common[n] = e
				n++
			}
		}
		common = common[:n]
	}
	if len(common) == 0 {
		return graph.NoEdge, false
	}
	return slices.Min(common), true
}

// Rerouter validates and performs Lemma 3.3 reroutes. It observes
// every injection so it can decide which edges are "new" to the
// current packet population (Definition 3.2): an edge is new to P(t)
// if no packet injected at time >= t* - ceil(1/r) uses it in its
// route, where t* is the minimum injection time over P(t).
//
// Use it as an engine observer and perform reroutes through
// ExtendBatch / ReplaceBatch; those check the lemma's preconditions
// (historic policy, shared edge, new edges) before mutating routes.
type Rerouter struct {
	Rate rational.Rat
	// lastUse[e] is the latest injection time of any packet whose
	// route (as first injected or later extended) includes e, or
	// neverUsed. It grows on demand to the highest edge ID seen.
	lastUse []int64
	// exts is ExtendBatch's per-packet scratch, reused across batches.
	exts [][]graph.EdgeID
}

// neverUsed marks an edge no recorded route includes. Injection times
// are non-negative, so it sits below every isNewAt threshold.
const neverUsed = math.MinInt64

// NewRerouter returns a Rerouter for a rate-r adversary.
func NewRerouter(rate rational.Rat) *Rerouter {
	if rate.Sign() <= 0 {
		panic("adversary: rerouter needs a positive rate")
	}
	return &Rerouter{Rate: rate}
}

// OnStep implements sim.Observer.
func (r *Rerouter) OnStep(*sim.Engine) {}

// AcceptLeap implements sim.LeapObserver: the rerouter tracks edge
// first-use from injections and reroutes only, so static windows (no
// injections, no reroutes) carry nothing to track.
func (r *Rerouter) AcceptLeap(sim.LeapKind) bool { return true }

// OnLeap implements sim.LeapObserver (nothing to track).
func (r *Rerouter) OnLeap(*sim.Engine, sim.LeapInfo) {}

// OnInject implements sim.InjectionObserver.
func (r *Rerouter) OnInject(t int64, p *packet.Packet) {
	r.note(t, p.Route)
}

// OnReroute implements sim.RerouteObserver: edges added by a reroute
// count as used at the packet's injection time (they become part of
// the adversary A' of Lemma 3.3, which injected the packet then).
func (r *Rerouter) OnReroute(t int64, p *packet.Packet, oldRoute []graph.EdgeID) {
	r.note(p.InjectedAt, p.Route)
}

func (r *Rerouter) note(t int64, route []graph.EdgeID) {
	for _, e := range route {
		for int(e) >= len(r.lastUse) {
			r.lastUse = append(r.lastUse, neverUsed)
		}
		if r.lastUse[e] < t {
			r.lastUse[e] = t
		}
	}
}

// IsNew reports whether edge e is new to the current packet population
// of the engine per Definition 3.2: no recorded route of a packet
// injected at or after tStar - ceil(1/r) uses e, where tStar is the
// minimum injection time among packets currently in the network.
func (r *Rerouter) IsNew(e *sim.Engine, edge graph.EdgeID) bool {
	tStar, any := minInjectionTime(e)
	if !any {
		return true
	}
	return r.isNewAt(r.threshold(tStar), edge)
}

// threshold is tStar - ceil(1/r): an edge last used before it is new.
func (r *Rerouter) threshold(tStar int64) int64 {
	return tStar - r.Rate.Inv().Ceil()
}

// isNewAt is IsNew with the threshold precomputed — batch callers
// compute it once instead of scanning every queued packet and
// inverting the rate per edge.
func (r *Rerouter) isNewAt(threshold int64, edge graph.EdgeID) bool {
	return int(edge) >= len(r.lastUse) || r.lastUse[edge] < threshold
}

func minInjectionTime(e *sim.Engine) (int64, bool) {
	min, any := int64(0), false
	e.ForEachQueued(func(_ graph.EdgeID, p *packet.Packet) {
		if !any || p.InjectedAt < min {
			min, any = p.InjectedAt, true
		}
	})
	return min, any
}

// ExtendBatch applies Lemma 3.3 to a set of packets: it verifies the
// preconditions — the engine's policy is historic, the packets'
// remaining routes share an edge, and every edge of every extension is
// new to the current population — and then extends each packet's route.
// ext receives each packet and returns its extension (nil to leave the
// packet alone). It returns an error (changing nothing) when a
// precondition fails.
func (r *Rerouter) ExtendBatch(e *sim.Engine, pkts []*packet.Packet, ext func(p *packet.Packet) []graph.EdgeID) error {
	if len(pkts) == 0 {
		return nil
	}
	if !e.Policy().Traits().Historic {
		return fmt.Errorf("adversary: policy %s is not historic; Lemma 3.3 does not apply", e.Policy().Name())
	}
	if _, ok := SharedEdge(pkts); !ok {
		return fmt.Errorf("adversary: rerouted packets share no common edge")
	}
	// With no packet in the network every edge is new; injection times
	// never reach MaxInt64, so that threshold admits every edge.
	threshold := int64(math.MaxInt64)
	if tStar, any := minInjectionTime(e); any {
		threshold = r.threshold(tStar)
	}
	exts := r.exts[:0]
	for _, p := range pkts {
		x := ext(p)
		exts = append(exts, x)
		for _, edge := range x {
			if !r.isNewAt(threshold, edge) {
				return fmt.Errorf("adversary: extension edge %d is not new to P(t)", edge)
			}
		}
	}
	r.exts = exts
	for i, p := range pkts {
		if len(exts[i]) > 0 {
			e.ExtendRoute(p, exts[i])
		}
	}
	return nil
}

// MustExtendBatch is ExtendBatch but panics on error; the paper's
// constructions use it because their preconditions hold by design.
// FailureObservers are notified before the panic, so a flight
// recorder captures the steps leading up to the Lemma 3.3 violation.
func (r *Rerouter) MustExtendBatch(e *sim.Engine, pkts []*packet.Packet, ext func(p *packet.Packet) []graph.EdgeID) {
	if err := r.ExtendBatch(e, pkts, ext); err != nil {
		e.NotifyFailure("rerouter: " + err.Error())
		panic(err)
	}
}

package core

import (
	"fmt"

	"aqt/internal/adversary"
	"aqt/internal/gadget"
	"aqt/internal/graph"
	"aqt/internal/packet"
	"aqt/internal/sim"
)

// Tags attached to the construction's packet populations, following
// the proof's vocabulary ("old packets", "new short packets", "new
// long packets").
const (
	TagOld   = "old"
	TagShort = "short"
	TagLong  = "long"
	TagFresh = "fresh"
)

// PumpReport records one application of the Lemma 3.6 adversary
// (gadget k → k+1) for the experiment tables.
type PumpReport struct {
	K   int   // source gadget index
	Tau int64 // paper time 0 (absolute engine step)

	// SIn is the measured S of C(S, F(k)) at entry.
	SIn int64
	// SPredicted is the paper's S' = floor(2S(1−R_n)).
	SPredicted int64
	// X is the part-(4) stream size.
	X int64
	// SMeasured is min(e-buffer total, ingress queue) on gadget k+1 at
	// exit — the S' actually available to the next pump.
	SMeasured int64
	// Exit is the full invariant report on gadget k+1 at exit.
	Exit gadget.InvariantReport
	// LeftInSource is the number of packets still in gadget k at exit
	// (the lemma says F is empty).
	LeftInSource int
	// Extended is the number of old packets whose routes were extended.
	Extended int
}

// GrowthFactor returns SMeasured / SIn.
func (r PumpReport) GrowthFactor() float64 {
	if r.SIn == 0 {
		return 0
	}
	return float64(r.SMeasured) / float64(r.SIn)
}

// String summarizes the report.
func (r PumpReport) String() string {
	return fmt.Sprintf("pump g%d→g%d: S=%d → S'=%d (predicted %d, ×%.4f)",
		r.K, r.K+1, r.SIn, r.SMeasured, r.SPredicted, r.GrowthFactor())
}

// PumpPhase builds the Lemma 3.6 adversary as a Sequence phase: given
// C(S, F(k)) with gadget k+1 empty, it pumps the configuration into
// C(S′, F(k+1)) over 2S+n steps, for S′ ≥ S(1+ε) when S ≥ S0.
//
// The measured S at entry parameterizes the streams (the adaptive
// compensation for floors/ceilings discussed in DESIGN.md). rr, when
// non-nil, validates the Lemma 3.3 rerouting preconditions. rep, when
// non-nil, is filled in as the phase runs.
func PumpPhase(p Params, c *gadget.Chain, k int, rr *adversary.Rerouter, rep *PumpReport) adversary.Phase {
	if k < 1 || k >= c.M {
		panic(fmt.Sprintf("core: pump needs 1 <= k < M, got k=%d M=%d", k, c.M))
	}
	if c.N != p.N {
		panic("core: chain was built with a different n than Params")
	}
	if rep == nil {
		rep = &PumpReport{}
	}
	var end int64

	enter := func(e *sim.Engine) sim.Adversary {
		tau := e.Now() - 1 // paper time 0
		inv := c.CheckInvariant(e, k, true)
		s := int64(inv.S())
		rep.K, rep.Tau, rep.SIn = k, tau, s
		rep.SPredicted = p.SPrime(s)
		rep.X = p.X(s)
		n := int64(p.N)
		end = tau + 2*s + n

		// Part (1): extend the routes of all packets stored in F(k) by
		// e'_1..e'_n, a'' (gadget k+1's e-path and egress).
		ext := append(append([]graph.EdgeID{}, c.EPath(k+1)...), c.Egress(k+1))
		old := collectGadgetPackets(e, c, k)
		rep.Extended = len(old)
		extendAll(e, rr, old, ext)
		for _, pk := range old {
			pk.SetTag(TagOld)
		}

		script := adversary.NewScript()
		// Part (2): short single-edge packets on each e'_i at rate r
		// during [i, i+t_i].
		for i := 1; i <= p.N; i++ {
			ti := p.Ti(s, i)
			script.AddStream(adversary.Stream{
				Name:   fmt.Sprintf("pump%d.short%d", k, i),
				Start:  tau + int64(i),
				Rate:   p.R,
				Budget: p.R.FloorMulInt(ti + 1),
				Route:  []graph.EdgeID{c.EPath(k + 1)[i-1]},
				Tag:    TagShort,
			})
		}
		// Part (3): rS long packets with route a,f_1..f_n,a',f'_1..f'_n,a''
		// during [1, S].
		longRoute := append(append([]graph.EdgeID{}, c.LongRoute(k)...), c.FPath(k+1)...)
		longRoute = append(longRoute, c.Egress(k+1))
		script.AddStream(adversary.Stream{
			Name:   fmt.Sprintf("pump%d.long", k),
			Start:  tau + 1,
			Rate:   p.R,
			Budget: p.R.FloorMulInt(s),
			Route:  longRoute,
			Tag:    TagLong,
		})
		// Part (4): X packets with route a',f'_1..f'_n,a'' in the first
		// X/r steps of [S+n+1, 2S+n].
		tailRoute := append([]graph.EdgeID{c.Ingress(k + 1)}, c.FPath(k+1)...)
		tailRoute = append(tailRoute, c.Egress(k+1))
		script.AddStream(adversary.Stream{
			Name:   fmt.Sprintf("pump%d.tail", k),
			Start:  tau + s + n + 1,
			Rate:   p.R,
			Budget: rep.X,
			Route:  tailRoute,
			Tag:    TagLong,
		})
		return script
	}

	done := func(e *sim.Engine) bool {
		if e.Now() <= end {
			return false
		}
		// State is now "end of step end": measure the exit condition.
		rep.Exit = c.CheckInvariant(e, k+1, true)
		rep.SMeasured = int64(rep.Exit.S())
		rep.LeftInSource = c.TotalQueuedInGadget(e, k)
		return true
	}

	return adversary.Phase{
		Name:  fmt.Sprintf("lemma3.6 pump g%d→g%d", k, k+1),
		Enter: enter,
		Done:  done,
		Until: &end,
	}
}

// collectGadgetPackets returns the packets buffered on gadget k's
// edges (ingress, e-path, f-path) whose remaining routes end at the
// gadget's egress, in deterministic order. The egress is the common
// edge Lemma 3.3 requires of the rerouted set P0; packets that do not
// end there are either discretization stragglers (single-edge short
// packets from the previous phase, a step or two from absorption) or —
// under non-FIFO policies, where the construction's invariants do not
// hold — packets already extended further, whose routes must not be
// touched again.
func collectGadgetPackets(e *sim.Engine, c *gadget.Chain, k int) []*packet.Packet {
	egress := c.Egress(k)
	edges := c.GadgetEdges(k)
	n := 0
	for _, eid := range edges {
		n += e.QueueLen(eid)
	}
	out := make([]*packet.Packet, 0, n)
	for _, eid := range edges {
		q := e.Queue(eid)
		q.Each(func(p *packet.Packet) bool {
			rem := p.RemainingRoute()
			if rem[len(rem)-1] == egress {
				out = append(out, p)
			}
			return true
		})
	}
	return out
}

// extendAll extends every packet's route by ext, through the Rerouter
// (validating Lemma 3.3) when provided.
func extendAll(e *sim.Engine, rr *adversary.Rerouter, pkts []*packet.Packet, ext []graph.EdgeID) {
	if len(pkts) == 0 {
		return
	}
	if rr != nil {
		rr.MustExtendBatch(e, pkts, func(*packet.Packet) []graph.EdgeID { return ext })
		return
	}
	for _, p := range pkts {
		e.ExtendRoute(p, ext)
	}
}

package core

import (
	"fmt"

	"aqt/internal/adversary"
	"aqt/internal/gadget"
	"aqt/internal/graph"
	"aqt/internal/packet"
	"aqt/internal/sim"
)

// BootstrapReport records one application of the Lemma 3.15 adversary.
type BootstrapReport struct {
	K   int   // gadget index (1 in the theorem)
	Tau int64 // paper time 0

	// QIn is the measured ingress queue at entry (the paper's 2S).
	QIn int64
	// S is QIn/2, the S of the lemma statement.
	S int64
	// SPredicted is S' = floor(2S(1−R_n)).
	SPredicted int64
	// SMeasured is min(e-buffer total, ingress queue) at exit.
	SMeasured int64
	// Exit is the invariant report on the gadget at exit.
	Exit gadget.InvariantReport
}

// GrowthFactor returns SMeasured / S.
func (r BootstrapReport) GrowthFactor() float64 {
	if r.S == 0 {
		return 0
	}
	return float64(r.SMeasured) / float64(r.S)
}

// String summarizes the report.
func (r BootstrapReport) String() string {
	return fmt.Sprintf("bootstrap g%d: 2S=%d → S'=%d (predicted %d, ×%.4f)",
		r.K, r.QIn, r.SMeasured, r.SPredicted, r.GrowthFactor())
}

// BootstrapPhase builds the Lemma 3.15 adversary: starting from 2S
// packets stored in the ingress edge of gadget k, all with remaining
// routes of length 1, it establishes C(S′, Fₙ) on gadget k by time
// τ + 2S + n, with S′ ≥ S(1+ε) for S > S0.
func BootstrapPhase(p Params, c *gadget.Chain, k int, rr *adversary.Rerouter, rep *BootstrapReport) adversary.Phase {
	if k < 1 || k > c.M {
		panic("core: bootstrap gadget index out of range")
	}
	if c.N != p.N {
		panic("core: chain was built with a different n than Params")
	}
	if rep == nil {
		rep = &BootstrapReport{}
	}
	var end int64

	enter := func(e *sim.Engine) sim.Adversary {
		tau := e.Now() - 1
		// Part (1): extend the stored packets' routes from a to
		// a, e_1..e_n, a'. Only packets whose remaining route is
		// exactly the ingress edge qualify (the lemma's precondition);
		// under non-FIFO policies other packets may sit here and must
		// be left alone.
		ext := append(append([]graph.EdgeID{}, c.EPath(k)...), c.Egress(k))
		var old []*packet.Packet
		e.Queue(c.Ingress(k)).Each(func(pk *packet.Packet) bool {
			if pk.RemainingHops() == 1 {
				old = append(old, pk)
			}
			return true
		})
		q2s := int64(len(old))
		s := q2s / 2
		rep.K, rep.Tau, rep.QIn, rep.S = k, tau, q2s, s
		sPrime := p.SPrime(s)
		rep.SPredicted = sPrime
		n := int64(p.N)
		end = tau + 2*s + n
		extendAll(e, rr, old, ext)
		for _, pk := range old {
			pk.SetTag(TagOld)
		}

		script := adversary.NewScript()
		// Part (2): short packets on e_i at rate r during [i, t_i].
		for i := 1; i <= p.N; i++ {
			ti := p.Ti(s, i)
			dur := ti - int64(i) + 1
			if dur < 0 {
				dur = 0
			}
			script.AddStream(adversary.Stream{
				Name:   fmt.Sprintf("boot%d.short%d", k, i),
				Start:  tau + int64(i),
				Rate:   p.R,
				Budget: p.R.FloorMulInt(dur),
				Route:  []graph.EdgeID{c.EPath(k)[i-1]},
				Tag:    TagShort,
			})
		}
		// Part (3): S'+n packets at rate r in the first (S'+n)/r steps
		// of [1, 2S]; the first n have the single-edge route a, the
		// rest a, f_1..f_n, a'.
		aOnly := []graph.EdgeID{c.Ingress(k)}
		long := c.LongRoute(k)
		script.AddStream(adversary.Stream{
			Name:   fmt.Sprintf("boot%d.long", k),
			Start:  tau + 1,
			Rate:   p.R,
			Budget: sPrime + n,
			RouteFn: func(j int64) []graph.EdgeID {
				if j < n {
					return aOnly
				}
				return long
			},
			Tag: TagLong,
		})
		return script
	}

	done := func(e *sim.Engine) bool {
		if e.Now() <= end {
			return false
		}
		rep.Exit = c.CheckInvariant(e, k, true)
		rep.SMeasured = int64(rep.Exit.S())
		return true
	}

	return adversary.Phase{
		Name:  fmt.Sprintf("lemma3.15 bootstrap g%d", k),
		Enter: enter,
		Done:  done,
		Until: &end,
	}
}

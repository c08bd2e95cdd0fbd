// Package stability implements the paper's section 4 — the stability
// theorems for greedy and time-priority protocols under (w,r)
// adversaries — together with the empirical machinery experiments
// need: divergence detection on queue-size series, instability
// threshold search, and the policy-zoo matrix.
//
// Theorem 4.1: with a (w,r) adversary at r <= 1/(d+1) (d = longest
// route length) and any greedy schedule, no packet stays in one buffer
// more than floor(w·r) steps. Theorem 4.3 relaxes the rate to 1/d for
// time-priority protocols (Definition 4.2), e.g. FIFO and LIS. Both
// bounds are independent of the network size — only the adversary's
// parameters enter.
package stability

import (
	"fmt"

	"aqt/internal/graph"
	"aqt/internal/obs"
	"aqt/internal/packet"
	"aqt/internal/policy"
	"aqt/internal/rational"
	"aqt/internal/sim"
)

// ResidenceBound returns the Theorem 4.1/4.3 bound floor(w·r) on the
// number of steps any packet spends in a single buffer.
func ResidenceBound(w int64, r rational.Rat) int64 {
	return r.FloorMulInt(w)
}

// GreedyRateBound returns the largest admissible rate 1/(d+1) of
// Theorem 4.1 for routes of length at most d.
func GreedyRateBound(d int) rational.Rat {
	if d < 1 {
		panic("stability: d must be >= 1")
	}
	return rational.New(1, int64(d+1))
}

// TimePriorityRateBound returns the 1/d bound of Theorem 4.3.
func TimePriorityRateBound(d int) rational.Rat {
	if d < 1 {
		panic("stability: d must be >= 1")
	}
	return rational.New(1, int64(d))
}

// InitialConfigResidenceBound returns the Corollary 4.5/4.6 bound for
// a system started with an S-initial-configuration under a (w,r)
// adversary with r < rateBound (1/(d+1) or 1/d):
//
//	floor( ceil((S+w+1)/(rateBound − r)) · rateBound ).
//
// It panics unless r < rateBound.
func InitialConfigResidenceBound(s, w int64, r, rateBound rational.Rat) int64 {
	diff := rateBound.Sub(r)
	if diff.Sign() <= 0 {
		panic("stability: corollary needs r < rate bound")
	}
	wStar := rational.FromInt(s + w + 1).Div(diff).Ceil()
	return rateBound.FloorMulInt(wStar)
}

// ResidenceResult reports one residence-bound check.
type ResidenceResult struct {
	Policy   string
	W        int64
	Rate     rational.Rat
	D        int // longest route length used
	Steps    int64
	Bound    int64 // floor(w·r)
	Measured int64 // max per-buffer residence, waiting packets included
	Injected int64
	Absorbed int64
}

// OK reports whether the theorem's bound held.
func (r ResidenceResult) OK() bool { return r.Measured <= r.Bound }

// String summarizes the result.
func (r ResidenceResult) String() string {
	verdict := "OK"
	if !r.OK() {
		verdict = "VIOLATED"
	}
	return fmt.Sprintf("%s w=%d r=%v d=%d: residence %d <= %d [%s] (%d injected, %d absorbed over %d steps)",
		r.Policy, r.W, r.Rate, r.D, r.Measured, r.Bound, verdict, r.Injected, r.Absorbed, r.Steps)
}

// CheckResidence runs pol on g under adv for the given number of steps
// and measures the maximum per-buffer residence, including packets
// still waiting at the end. d is the longest route length the
// adversary uses (for the report only).
func CheckResidence(g *graph.Graph, pol policy.Policy, adv sim.Adversary, w int64, rate rational.Rat, d int, steps int64) ResidenceResult {
	e := sim.New(g, pol, adv)
	// No observers and no per-step decisions: take the quiet hot loop.
	e.RunQuiet(steps)
	return ResidenceResult{
		Policy:   pol.Name(),
		W:        w,
		Rate:     rate,
		D:        d,
		Steps:    steps,
		Bound:    ResidenceBound(w, rate),
		Measured: e.MaxResidence(true),
		Injected: e.Injected(),
		Absorbed: e.Absorbed(),
	}
}

// Verdict classifies a queue-size series.
type Verdict int

// Verdicts.
const (
	// Stable: the backlog stopped growing (bounded buffers).
	Stable Verdict = iota
	// Diverging: the backlog keeps growing across run thirds.
	Diverging
	// Inconclusive: not enough signal (e.g. empty series).
	Inconclusive
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Stable:
		return "stable"
	case Diverging:
		return "diverging"
	default:
		return "inconclusive"
	}
}

// Classify inspects a total-queued series sampled over a run (an
// obs.Sampler's Backlog) and decides whether the system is stable. The
// rule compares backlog peaks over the last third of the run against
// the middle third: a growth ratio above growthThreshold (e.g. 1.25)
// means diverging; anything else is stable. Series shorter than 9
// samples are inconclusive.
func Classify(backlog []obs.Point, growthThreshold float64) Verdict {
	if len(backlog) < 9 {
		return Inconclusive
	}
	third := len(backlog) / 3
	peak := func(from, to int) int64 {
		var m int64
		for _, p := range backlog[from:to] {
			if p.V > m {
				m = p.V
			}
		}
		return m
	}
	mid := peak(third, 2*third)
	last := peak(2*third, len(backlog))
	if mid == 0 {
		if last == 0 {
			return Stable
		}
		return Diverging
	}
	if float64(last) >= growthThreshold*float64(mid) {
		return Diverging
	}
	return Stable
}

// RunReport is the outcome of a classified run: the verdict, the exact
// peak and final backlog, and the sampled backlog series.
type RunReport struct {
	Verdict    Verdict
	PeakTotal  int64
	FinalTotal int64
	Samples    []obs.Point
}

// newProbeSampler returns the sampler a probe classifies. Its series
// are bounded at 2^14 points so million-step stride-1 probes cannot
// grow memory with the horizon: past it the sampler doubles its
// effective stride in place. The peak stays exact, and every workload
// the repo's experiments run stays far below the bound, so their
// series — and Classify verdicts — are never downsampled.
func newProbeSampler(stride int64) *obs.Sampler {
	return obs.NewSampler(obs.SamplerConfig{Every: stride, MaxSamples: 1 << 14})
}

// Run runs eng for steps, sampling the backlog every stride steps, and
// classifies the series.
func Run(eng *sim.Engine, steps, stride int64, growthThreshold float64) RunReport {
	sam := newProbeSampler(stride)
	sam.Attach(eng)
	// RunLeap batch-advances provably static stretches (idle tails and
	// final-edge drains) when the adversary reports a horizon; with a
	// non-static adversary or extra observers it degrades to Run's
	// per-step execution, bit-identically either way. The sampler
	// reconstructs its samples and peak across leaped windows.
	eng.RunLeap(steps)
	return RunReport{
		Verdict:    Classify(sam.Backlog(), growthThreshold),
		PeakTotal:  sam.PeakTotal(),
		FinalTotal: eng.TotalQueued(),
		Samples:    sam.Backlog(),
	}
}

// MaxRouteLen returns d, the length of the longest route among all
// injected packets, tracked as an engine observer.
type MaxRouteLen struct {
	D int
}

// OnStep implements sim.Observer.
func (*MaxRouteLen) OnStep(*sim.Engine) {}

// OnInject implements sim.InjectionObserver.
func (m *MaxRouteLen) OnInject(_ int64, p *packet.Packet) {
	if len(p.Route()) > m.D {
		m.D = len(p.Route())
	}
}

// OnReroute implements sim.RerouteObserver (extensions lengthen
// routes).
func (m *MaxRouteLen) OnReroute(_ int64, p *packet.Packet, _ []graph.EdgeID) {
	if len(p.Route()) > m.D {
		m.D = len(p.Route())
	}
}

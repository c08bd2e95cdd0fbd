// Package baselines implements the comparison constructions the paper
// positions itself against.
//
// B1 — depth-limited instability thresholds. Prior FIFO instability
// constructions (Andrews et al., Borodin et al., Díaz et al.) live on
// constant-size networks with constant-length routes; the rate they can
// destabilize is bottlenecked by the depth of the slow-down pipeline
// they can build. In the vocabulary of this paper's gadget, a pipeline
// of depth n pumps (grows the queue) iff R_n = (1−r)/(1−rⁿ) < 1/2,
// i.e. iff rⁿ < 2r − 1, giving a per-depth threshold r*(n): r*(3) =
// (√5−1)/2 ≈ 0.618, decreasing towards 1/2 as n → ∞ — the paper's
// improvement over the ≈0.85/0.8357/0.749 constants of the prior
// constant-size constructions is exactly the move to unbounded depth.
// This package computes r*(n) exactly (bisection on the rational
// predicate) and verifies selected (n, r) pump runs empirically.
//
// B2 — NTG long-route starvation. Borodin et al. prove NTG (and LIFO,
// FFS) unstable at arbitrarily low rates using routes of length
// Θ(1/r); section 5 of this paper cites that to argue its 1/(d+1)
// stability bound is near-optimal. The ladder scenario here measures
// the mechanism those constructions amplify: NTG lets crossing traffic
// with short remaining routes starve long-route packets, so long-route
// residence grows with the crossing load while universally stable
// policies keep it flat.
package baselines

import (
	"fmt"
	"math/big"

	"aqt/internal/adversary"
	"aqt/internal/core"
	"aqt/internal/gadget"
	"aqt/internal/graph"
	"aqt/internal/obs"
	"aqt/internal/packet"
	"aqt/internal/policy"
	"aqt/internal/rational"
	"aqt/internal/sim"
	"aqt/internal/stability"
)

// PumpsAtDepth reports whether a depth-n pipeline pumps at rate r,
// i.e. whether rⁿ < 2r − 1 (equivalently R_n < 1/2). Evaluated with
// big rationals: rⁿ overflows int64 for the denominators bisection
// uses.
func PumpsAtDepth(r rational.Rat, n int) bool {
	if n < 1 || r.Sign() <= 0 || !r.Less(rational.FromInt(1)) {
		return false
	}
	rb := new(big.Rat).SetFrac64(r.Num(), r.Den())
	lhs := big.NewRat(1, 1)
	for i := 0; i < n; i++ {
		lhs.Mul(lhs, rb)
	}
	rhs := new(big.Rat).Sub(new(big.Rat).Add(rb, rb), big.NewRat(1, 1))
	return lhs.Cmp(rhs) < 0
}

// DepthThreshold returns r*(n), the infimum rate at which a depth-n
// pipeline pumps, by bisection to within 1/2^bits. r*(n) is strictly
// decreasing in n with limit 1/2; for n <= 2 no rate below 1 works and
// the function returns 1.
func DepthThreshold(n int, bits int) rational.Rat {
	if bits < 1 || bits > 30 {
		panic("baselines: bits out of range")
	}
	if n <= 2 {
		// rⁿ < 2r−1 requires (1−r)² < 0 for n = 2; impossible.
		return rational.FromInt(1)
	}
	lo, hi := int64(1<<(bits-1)), int64(1)<<bits // rates lo/2^bits .. 1
	den := int64(1) << bits
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if PumpsAtDepth(rational.New(mid, den), n) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return rational.New(hi, den)
}

// DepthPumpResult verifies one (n, r) pump empirically.
type DepthPumpResult struct {
	N         int
	Rate      rational.Rat
	S         int64
	Predicted int64 // S' = floor(2S(1−R_n))
	Measured  int64
	// ShouldPump is the exact rⁿ < 2r−1 predicate.
	ShouldPump bool
}

// Pumped reports whether the measured queue grew.
func (r DepthPumpResult) Pumped() bool { return r.Measured > r.S }

// String summarizes the result.
func (r DepthPumpResult) String() string {
	return fmt.Sprintf("depth n=%d r=%v: S=%d → %d (predicted %d, pump expected %v)",
		r.N, r.Rate, r.S, r.Measured, r.Predicted, r.ShouldPump)
}

// RunDepthPump seeds C(S, F) on a two-gadget chain of depth n and runs
// one Lemma 3.6 pump at the given rate, returning predicted and
// measured S′. S is chosen as max(4·S0-from-the-formula, 4n) capped at
// sCap to keep sweeps affordable (sCap <= 0 means no cap).
func RunDepthPump(r rational.Rat, n int, sCap int64) DepthPumpResult {
	p := core.ParamsFor(r, n)
	s := 4 * p.S0
	if sCap > 0 && s > sCap {
		s = sCap
	}
	if min := int64(4 * n); s < min {
		s = min
	}
	c := gadget.NewChain(n, 2, false)
	e := sim.New(c.G, policy.FIFO{}, nil)
	c.SeedInvariant(e, 1, int(s))
	var rep core.PumpReport
	seq := adversary.NewSequence(core.PumpPhase(p, c, 1, nil, &rep))
	e.SetAdversary(seq)
	e.RunLeapUntil(func(*sim.Engine) bool { return seq.Finished() }, 8*s+int64(8*n))
	return DepthPumpResult{
		N:          n,
		Rate:       r,
		S:          s,
		Predicted:  p.SPrime(s),
		Measured:   rep.SMeasured,
		ShouldPump: PumpsAtDepth(r, n),
	}
}

// PumpGrid runs RunDepthPump at every (rate, depth) probe point across
// a stability.SweepGridOpt worker pool (workers <= 0 means GOMAXPROCS).
// Each probe builds its own chain, engine and adversary — workers never
// share simulator state — and results come back in input order, so a
// sweep's output is identical at any worker count. A probe that panics
// reports it in its own GridResult instead of sinking the sweep.
// onProgress (nil = none) receives probe start/finish reports — the
// hook behind `aqt sweep -progress`.
func PumpGrid(points []stability.Point, sCap int64, workers int, onProgress obs.ProgressFunc) []stability.GridResult[stability.Point, DepthPumpResult] {
	return stability.SweepGridOpt(points, func(p stability.Point) DepthPumpResult {
		return RunDepthPump(p.Rate, p.Depth, sCap)
	}, workers, onProgress)
}

// LadderScenario is the B2 starvation workload: a directed rail of L
// edges carries an aged convoy of K long-route packets, while every
// rail edge receives continuous crossing traffic at rate r via a
// 2-hop route (cross_i, rail_i). At a rail buffer a crossing packet
// has 1 remaining hop and a convoy packet has >= 2, so NTG serves the
// crossing packet whenever one is present: the convoy leaks at rate
// 1−r and drains in about K/(1−r)·(1+o(1)) steps. Time-priority
// policies (FIFO, LIS) and FTG let the older convoy through first.
// This is the starvation mechanism the low-rate NTG instability of
// Borodin et al. amplifies recursively with routes of length Θ(1/r).
type LadderScenario struct {
	L         int
	K         int // convoy size seeded at the first rail buffer
	CrossRate rational.Rat
	Steps     int64 // simulation horizon (must exceed the drain time)
}

// LadderResult reports one policy's behaviour on the ladder.
type LadderResult struct {
	Policy       string
	L, K         int
	DrainTime    int64 // step at which the last convoy packet was absorbed (0 = never)
	MaxResidence int64 // max steps any packet waited in one buffer
	Delivered    int64 // convoy packets absorbed within the horizon
}

// Drained reports whether the whole convoy was delivered.
func (r LadderResult) Drained() bool { return r.Delivered == int64(r.K) }

// String summarizes the result.
func (r LadderResult) String() string {
	return fmt.Sprintf("%s L=%d K=%d: drain %d, residence %d, delivered %d/%d",
		r.Policy, r.L, r.K, r.DrainTime, r.MaxResidence, r.Delivered, r.K)
}

// Ladder returns the ladder graph: rail edges rail1..railL and a
// crossing source edge cross1..crossL into each rail tail node.
func Ladder(l int) *graph.Graph {
	g := graph.New()
	prev := g.AddNode("m0")
	for i := 1; i <= l; i++ {
		cur := g.AddNode(fmt.Sprintf("m%d", i))
		g.AddEdge(prev, cur, fmt.Sprintf("rail%d", i))
		src := g.AddNode(fmt.Sprintf("c%d", i))
		g.AddEdge(src, prev, fmt.Sprintf("cross%d", i))
		prev = cur
	}
	return g
}

// Build wires the ladder workload without running it: crossing script
// installed, convoy seeded at the first rail buffer.
func (sc LadderScenario) Build(pol policy.Policy) *sim.Engine {
	g := Ladder(sc.L)
	rail := make([]graph.EdgeID, sc.L)
	for i := 0; i < sc.L; i++ {
		rail[i] = g.MustEdge(fmt.Sprintf("rail%d", i+1))
	}
	script := adversary.NewScript()
	for i := 1; i <= sc.L; i++ {
		script.AddStream(adversary.Stream{
			Name:  fmt.Sprintf("cross%d", i),
			Start: 1, Rate: sc.CrossRate, Budget: -1,
			Route: []graph.EdgeID{g.MustEdge(fmt.Sprintf("cross%d", i)), rail[i-1]},
			Tag:   "cross",
		})
	}
	e := sim.New(g, pol, script)
	for j := 0; j < sc.K; j++ {
		e.Seed(packet.Injection{Route: rail, Tag: "convoy"})
	}
	return e
}

// Run executes the ladder under the given policy.
func (sc LadderScenario) Run(pol policy.Policy) LadderResult {
	e := sc.Build(pol)

	res := LadderResult{Policy: pol.Name(), L: sc.L, K: sc.K}
	inFlight := func() int64 {
		var n int64
		e.ForEachQueued(func(_ graph.EdgeID, p *packet.Packet) {
			if p.Tag() == "convoy" {
				n++
			}
		})
		return n
	}
	for e.Now() < sc.Steps {
		e.Step()
		if res.DrainTime == 0 && inFlight() == 0 {
			res.DrainTime = e.Now()
			break
		}
	}
	res.MaxResidence = e.MaxResidence(true)
	res.Delivered = int64(sc.K) - inFlight()
	return res
}

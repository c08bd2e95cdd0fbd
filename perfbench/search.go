package main

import (
	"math/rand"
	"sync"
	"time"

	"aqt/internal/adversary"
	"aqt/internal/baselines"
	"aqt/internal/core"
	"aqt/internal/gadget"
	"aqt/internal/policy"
	"aqt/internal/rational"
	"aqt/internal/sim"
	"aqt/internal/stability"
)

// The search workload recovers r*(n) for every depth n in
// [searchDepthMin, searchDepthMax] by bisecting the rate over
// (searchLo, searchHi] to 2^-searchBits, with one Lemma 3.6 pump as the
// probe, as experiment B1 does.
var (
	searchLo = rational.New(1, 2)
	searchHi = rational.New(9, 10)
)

const (
	searchDepthMin = 3
	searchDepthMax = 9
	// searchBits is the bisection resolution. At 2^-10 every depth's
	// bisected threshold lands within one grid step of r*(n); finer grids
	// resolve the finite-S pump's own error near r*(9) ≈ 0.501, which
	// at sCap ≈ 4000 exceeds 2^-12.
	searchBits    = 10
	searchWorkers = 2
	// searchSCap caps the pump's S; the seed jitters it by ±40.
	searchSCap = 4000
	// exactBits is the resolution of the algebraic reference r*(n).
	exactBits = 20
)

type searchJob struct {
	sCap  int64
	exact map[int]rational.Rat
}

func prepareSearch(seed int64) (job, error) {
	rng := rand.New(rand.NewSource(seed))
	j := &searchJob{sCap: searchSCap - 40 + rng.Int63n(81), exact: map[int]rational.Rat{}}
	for n := searchDepthMin; n <= searchDepthMax; n++ {
		j.exact[n] = baselines.DepthThreshold(n, exactBits)
	}
	return j, nil
}

// probeOut is one probe's result and measurements.
type probeOut struct {
	res                    baselines.DepthPumpResult
	counts                 counts
	leapSteps, leapWindows int64
	setup, run             time.Duration
	hot                    hotLayers
}

func (p *probeOut) verdict() stability.Verdict {
	if p.res.Pumped() {
		return stability.Diverging
	}
	return stability.Stable
}

// depthPump is baselines.RunDepthPump composed from its public parts,
// so the probe's set-up can be timed and its engine wrapped and read.
// The benchmark's tests hold it to RunDepthPump.
func depthPump(r rational.Rat, n int, sCap int64, traced bool) (probeOut, *sim.Engine) {
	var out probeOut
	t := time.Now()
	p := core.ParamsFor(r, n)
	s := 4 * p.S0
	if sCap > 0 && s > sCap {
		s = sCap
	}
	if min := int64(4 * n); s < min {
		s = min
	}
	c := gadget.NewChain(n, 2, false)
	var pol policy.Policy = policy.FIFO{}
	if traced {
		pol = wrapPolicy(pol, &out.hot)
	}
	e := sim.New(c.G, pol, nil)
	c.SeedInvariant(e, 1, int(s))
	out.setup = time.Since(t)

	t = time.Now()
	var rep core.PumpReport
	seq := adversary.NewSequence(core.PumpPhase(p, c, 1, nil, &rep))
	if traced {
		e.SetAdversary(wrapAdversary(seq, &out.hot))
	} else {
		e.SetAdversary(seq)
	}
	e.RunLeapUntil(func(*sim.Engine) bool { return seq.Finished() }, 8*s+int64(8*n))
	out.run = time.Since(t)

	out.res = baselines.DepthPumpResult{
		N:          n,
		Rate:       r,
		S:          s,
		Predicted:  p.SPrime(s),
		Measured:   rep.SMeasured,
		ShouldPump: baselines.PumpsAtDepth(r, n),
	}
	out.counts.addEngine(e)
	out.leapSteps, out.leapWindows = e.Leaps().Steps, e.Leaps().Windows
	return out, e
}

func (j *searchJob) run(b *batch) {
	start := time.Now()
	for n := searchDepthMin; n <= searchDepthMax; n++ {
		j.depth(b, n)
	}
	b.run = time.Since(start)
}

// depth bisects r*(n) with the parallel search, then replays the
// sequential search from the memoised verdicts: the probes it consumes
// are the useful ones, and its threshold must equal the parallel one.
func (j *searchJob) depth(b *batch, n int) {
	var mu sync.Mutex
	memo := map[rational.Rat]probeOut{}
	probe := func(r rational.Rat) stability.Verdict {
		out, _ := depthPump(r, n, j.sCap, b.traced)
		mu.Lock()
		defer mu.Unlock()
		memo[r] = out
		b.probesRun++
		b.units = append(b.units, ms(out.setup+out.run))
		b.probeSetup = append(b.probeSetup, ms(out.setup))
		b.setup += out.setup
		b.engine += out.run
		b.hops += out.counts.Hops
		b.packets += out.counts.Injections
		b.hot.add(&out.hot)
		return out.verdict()
	}
	var thr rational.Rat
	b.stage(func() { thr = stability.ParallelThresholdSearch(probe, searchLo, searchHi, searchBits, searchWorkers) })

	b.stage(func() {
		missing := false
		replay := func(r rational.Rat) stability.Verdict {
			out, ok := memo[r]
			if !ok {
				missing = true
				return stability.Inconclusive
			}
			b.probesUseful++
			b.counts.add(out.counts)
			b.leapSteps += out.leapSteps
			b.leapWindows += out.leapWindows
			return out.verdict()
		}
		seqThr := stability.ThresholdSearch(replay, searchLo, searchHi, searchBits)
		b.check(!missing && seqThr == thr, "search/n=%d: sequential replay gives %v, parallel %v", n, seqThr, thr)
		diff := thr.Sub(j.exact[n]).Float()
		if diff < 0 {
			diff = -diff
		}
		if diff > b.acc.ThresholdAbsErr {
			b.acc.ThresholdAbsErr = diff
		}
		b.check(diff <= 1.0/(1<<searchBits), "search/n=%d: bisected %v is %.6f from r*(n) = %v", n, thr, diff, j.exact[n])
	})
}

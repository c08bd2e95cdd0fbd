package main

import (
	"fmt"
	"math/rand"
	"time"

	"aqt/internal/adversary"
	"aqt/internal/gadget"
	"aqt/internal/obs"
	"aqt/internal/policy"
	"aqt/internal/rational"
	"aqt/internal/sim"
	"aqt/internal/stability"
)

// The random workload's (w,r) adversary. Routes have at most two hops,
// so r = 1/3 <= 1/(d+1) and Theorem 4.1 bounds every packet's stay in
// one buffer by floor(w·r) = 8 steps, under any greedy policy.
var randomRate = rational.New(1, 3)

const (
	randomW      = 24
	randomMaxLen = 2
	// randomSteps per policy, run in randomChunks equal slices; a slice
	// is the workload's unit job.
	randomSteps  = 120_000
	randomChunks = 40
	// randomSampleEvery is the obs.Sampler stride.
	randomSampleEvery = 64
)

// randomPolicies cover the keyed-heap path (LIS, NTG) and the scan path
// (FIFO).
var randomPolicies = []policy.Policy{policy.LIS{}, policy.NTG{}, policy.FIFO{}}

type randomJob struct {
	seeds []int64
}

// prepareRandom draws one RandomWR seed per policy.
func prepareRandom(seed int64) (job, error) {
	if stability.GreedyRateBound(randomMaxLen).Less(randomRate) {
		return nil, fmt.Errorf("random: rate %v is above Theorem 4.1's 1/(d+1)", randomRate)
	}
	rng := rand.New(rand.NewSource(seed))
	j := &randomJob{}
	for range randomPolicies {
		j.seeds = append(j.seeds, rng.Int63())
	}
	return j, nil
}

// randomNet is one engine of the workload with its telemetry stack.
type randomNet struct {
	eng     *sim.Engine
	meter   *obs.Meter
	sampler *obs.Sampler
	window  *adversary.WindowValidator
}

// newRandomNet builds the G_ε test chain under pol and a seeded
// RandomWR. With h non-nil the policy, the adversary and both step
// observers are wrapped in timing adapters.
func newRandomNet(pol policy.Policy, seed int64, h *hotLayers) *randomNet {
	g := gadget.NewChain(3, 3, true).G
	rw := adversary.NewRandomWR(g, randomW, randomRate, randomMaxLen, seed)
	n := &randomNet{
		meter:  obs.NewMeter(nil),
		window: adversary.NewWindowValidator(randomW, randomRate),
	}
	n.sampler = obs.NewSampler(obs.SamplerConfig{Every: randomSampleEvery, Meter: n.meter})
	if h == nil {
		n.eng = sim.New(g, pol, rw)
		n.eng.AddObserver(n.meter)
		n.sampler.Attach(n.eng)
	} else {
		n.eng = sim.New(g, wrapPolicy(pol, h), wrapAdversary(rw, h))
		n.eng.AddObserver(wrapObserver(n.meter, h))
		// Attach would register the bare sampler. The engine it latches
		// only matters for drain windows, which a meter-linked sampler
		// refuses anyway.
		n.eng.AddObserver(wrapObserver(n.sampler, h))
	}
	n.eng.AddEventObserver(n.window)
	return n
}

func (j *randomJob) run(b *batch) { j.exec(b) }

// exec runs one batch into b and returns its engines.
func (j *randomJob) exec(b *batch) []*randomNet {
	var h *hotLayers
	if b.traced {
		h = &b.hot
	}
	nets, setup := timedSetup(func() []*randomNet {
		nets := make([]*randomNet, len(randomPolicies))
		for i, pol := range randomPolicies {
			nets[i] = newRandomNet(pol, j.seeds[i], h)
		}
		return nets
	})
	b.setup = setup

	bound := stability.ResidenceBound(randomW, randomRate)
	start := time.Now()
	for i, n := range nets {
		for c := 0; c < randomChunks; c++ {
			d := b.engineStage(func() { n.eng.Run(randomSteps / randomChunks) })
			b.units = append(b.units, ms(d))
		}
		name := randomPolicies[i].Name()
		b.stage(func() {
			b.check(conserved(n.eng), "random/%s: conservation", name)
			err := n.window.Check()
			b.check(err == nil, "random/%s: (w,r) window: %v", name, err)
			res := n.eng.MaxResidence(true)
			b.check(res <= bound, "random/%s: residence %d above the Theorem 4.1 bound %d", name, res, bound)
		})
	}
	b.run = time.Since(start)

	for _, n := range nets {
		b.counts.addEngine(n.eng)
		b.leapSteps += n.eng.Leaps().Steps
		b.leapWindows += n.eng.Leaps().Windows
	}
	b.hops = b.counts.Hops
	b.packets = b.counts.Injections
	return nets
}

package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"aqt/internal/adversary"
	"aqt/internal/core"
	"aqt/internal/gadget"
	"aqt/internal/graph"
	"aqt/internal/packet"
	"aqt/internal/policy"
	"aqt/internal/rational"
	"aqt/internal/sim"
)

// pumpEps is the pump workload's ε: rate 3/4 on G_ε, gadget depth
// n = 10, S0 = 1284.
var pumpEps = rational.New(1, 4)

// pumpCycles is the number of Theorem 3.17 cycles per batch.
const pumpCycles = 2

type pumpJob struct {
	p     core.Params
	sStar int64
}

// preparePump perturbs the initial queue S* a little above 4·S0, the
// default of core.NewInstability.
func preparePump(seed int64) (job, error) {
	p := core.Solve(pumpEps)
	rng := rand.New(rand.NewSource(seed))
	return &pumpJob{p: p, sStar: 4*p.S0 + 1 + rng.Int63n(64)}, nil
}

// pumpNet is core.NewInstability with Validate set, composed from the
// public gadget and phase constructors so that the policy and each
// cycle's Sequence can be wrapped. The benchmark's tests hold it to
// core.Instability.RunCycle.
type pumpNet struct {
	p        core.Params
	chain    *gadget.Chain
	m        int
	eng      *sim.Engine
	rr       *adversary.Rerouter
	maxSteps int64
	cycles   []core.CycleRecord
}

func newPumpNet(p core.Params, sStar int64, pol policy.Policy) *pumpNet {
	m := p.MinMEmpirical(rational.FromInt(2))
	chain := gadget.NewChain(p.N, m, true)
	eng := sim.New(chain.G, pol, nil)
	rr := adversary.NewRerouter(p.R)
	eng.AddObserver(rr)
	eng.SeedN(int(sStar), packet.Injection{
		Route: []graph.EdgeID{chain.Ingress(1)},
		Tag:   core.TagFresh,
	})
	return &pumpNet{p: p, chain: chain, m: m, eng: eng, rr: rr, maxSteps: 64 * sStar * int64(m+2)}
}

// cycle runs one bootstrap → pumps → drain → stitch cycle, as
// core.Instability.RunCycle does. wrap, when non-nil, wraps the cycle's
// Sequence.
func (n *pumpNet) cycle(wrap func(*adversary.Sequence) sim.Adversary) (core.CycleRecord, bool) {
	rec := core.CycleRecord{Cycle: len(n.cycles) + 1}
	rec.S1 = int64(n.eng.QueueLen(n.chain.Ingress(1)))
	start := n.eng.Now()
	phases := make([]adversary.Phase, 0, n.m+2)
	rec.Pumps = make([]core.PumpReport, n.m-1)
	phases = append(phases, core.BootstrapPhase(n.p, n.chain, 1, n.rr, &rec.Bootstrap))
	for k := 1; k < n.m; k++ {
		phases = append(phases, core.PumpPhase(n.p, n.chain, k, n.rr, &rec.Pumps[k-1]))
	}
	phases = append(phases, core.DrainPhase(n.p, n.chain, &rec.Drain))
	phases = append(phases, core.StitchPhase(n.p, n.chain, &rec.Stitch))
	seq := adversary.NewSequence(phases...)
	var adv sim.Adversary = seq
	if wrap != nil {
		adv = wrap(seq)
	}
	n.eng.SetAdversary(adv)
	ok := n.eng.RunLeapUntil(func(*sim.Engine) bool { return seq.Finished() }, n.maxSteps)
	n.eng.SetAdversary(nil)
	rec.S2 = rec.Bootstrap.SMeasured
	rec.S3 = rec.Drain.QEgress
	rec.S4 = rec.Stitch.Fresh
	rec.Steps = n.eng.Now() - start
	n.cycles = append(n.cycles, rec)
	return rec, ok
}

func (j *pumpJob) run(b *batch) { j.exec(b) }

// exec runs one batch into b and returns the network it ran on.
func (j *pumpJob) exec(b *batch) *pumpNet {
	var pol policy.Policy = policy.FIFO{}
	var wrap func(*adversary.Sequence) sim.Adversary
	if b.traced {
		pol = wrapPolicy(pol, &b.hot)
		wrap = func(s *adversary.Sequence) sim.Adversary { return wrapAdversary(s, &b.hot) }
	}
	net, setup := timedSetup(func() *pumpNet { return newPumpNet(j.p, j.sStar, pol) })
	b.setup = setup
	if b.traced {
		net.eng.AddEventObserver(rerouteCounter{&b.hot})
	}

	start := time.Now()
	minPump := 1 + j.p.Eps.Float()
	b.acc.CycleGrowthMin = math.Inf(1)
	var maxQ int64
	for c := 0; c < pumpCycles; c++ {
		var rec core.CycleRecord
		var ok bool
		d := b.engineStage(func() { rec, ok = net.cycle(wrap) })
		b.units = append(b.units, ms(d))
		b.stage(func() {
			b.check(ok, "pump: cycle %d hit the step cap", rec.Cycle)
			b.check(rec.S4 > rec.S1, "pump: cycle %d did not grow: %v", rec.Cycle, rec)
			for _, pr := range rec.Pumps {
				b.check(pr.GrowthFactor() >= minPump, "pump: %v grew less than 1+ε", pr)
				if err := math.Abs(float64(pr.SMeasured-pr.SPredicted)) / float64(pr.SPredicted); err > b.acc.SPrimeRelErr {
					b.acc.SPrimeRelErr = err
				}
			}
			b.check(conserved(net.eng), "pump: conservation after cycle %d", rec.Cycle)
		})
		b.acc.CycleGrowthMin = math.Min(b.acc.CycleGrowthMin, rec.Growth())
		if q := int64(net.eng.MaxQueued()); q > maxQ {
			maxQ = q
		}
	}
	b.check(unstable(net.cycles), "pump: Unstable() is false")
	b.run = time.Since(start)

	b.counts.addEngine(net.eng)
	b.counts.MaxQueue = maxQ
	b.hops = net.eng.Stats().Sends
	b.packets = net.eng.Stats().Injections
	b.leapSteps, b.leapWindows = net.eng.Leaps().Steps, net.eng.Leaps().Windows
	return net
}

// unstable is core.Instability.Unstable over the recorded cycles.
func unstable(cs []core.CycleRecord) bool {
	ins := core.Instability{Cycles: cs}
	return ins.Unstable()
}

// conserved reports whether e.CheckConservation passes.
func conserved(e *sim.Engine) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", r)
			ok = false
		}
	}()
	e.CheckConservation()
	return true
}

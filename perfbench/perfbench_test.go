package main

import (
	"fmt"
	"os"
	"reflect"
	"testing"

	"aqt/internal/adversary"
	"aqt/internal/baselines"
	"aqt/internal/core"
	"aqt/internal/gadget"
	"aqt/internal/obs"
	"aqt/internal/policy"
	"aqt/internal/rational"
	"aqt/internal/sim"
)

// TestMain runs the tests from the repository root, where the benchmark
// itself runs (the corpus workload reads scenarios/ there).
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// TestPumpMatchesInstability holds the recomposed Theorem 3.17 cycle,
// bare and wrapped, to core.Instability.RunCycle.
func TestPumpMatchesInstability(t *testing.T) {
	j, _ := preparePump(1)
	pj := j.(*pumpJob)
	ref := core.NewInstability(pumpEps, core.InstabilityOptions{Validate: true, SStar: pj.sStar})
	if n := ref.RunCycles(pumpCycles); n != pumpCycles {
		t.Fatalf("reference ran %d of %d cycles", n, pumpCycles)
	}
	for _, traced := range []bool{false, true} {
		b := &batch{traced: traced}
		net := pj.exec(b)
		if b.failed != 0 {
			t.Errorf("traced=%v: %d of %d checks failed", traced, b.failed, b.checks)
		}
		if err := adversary.SameExecution(ref.Engine, net.eng); err != nil {
			t.Errorf("traced=%v: execution differs from core.Instability: %v", traced, err)
		}
		if !reflect.DeepEqual(ref.Cycles, net.cycles) {
			t.Errorf("traced=%v: cycle records differ:\nref %v\ngot %v", traced, ref.Cycles, net.cycles)
		}
		if traced && (b.hot.preStep.calls == 0 || b.hot.selects.calls == 0 || b.hot.reroutes == 0) {
			t.Errorf("traced run recorded no layer calls: %+v", b.hot)
		}
	}
}

// TestRandomMatchesBareEngine holds every engine of the random
// workload, with and without timing wrappers, to a bare engine under
// the same adversary, and the wrapped telemetry to the unwrapped.
func TestRandomMatchesBareEngine(t *testing.T) {
	j, _ := prepareRandom(1)
	rj := j.(*randomJob)
	plain := rj.exec(&batch{})
	tb := &batch{traced: true}
	traced := rj.exec(tb)
	if tb.hot.inject.calls == 0 || tb.hot.selects.calls == 0 || tb.hot.keys.calls == 0 || tb.hot.onStep.calls == 0 {
		t.Errorf("traced run recorded no layer calls: %+v", tb.hot)
	}
	for i, pol := range randomPolicies {
		g := gadget.NewChain(3, 3, true).G
		bare := sim.New(g, pol, adversary.NewRandomWR(g, randomW, randomRate, randomMaxLen, rj.seeds[i]))
		bare.RunQuiet(randomSteps)
		for _, n := range []*randomNet{plain[i], traced[i]} {
			if err := adversary.SameExecution(bare, n.eng); err != nil {
				t.Errorf("%s: execution differs from a bare engine: %v", pol.Name(), err)
			}
		}
		p, q := plain[i], traced[i]
		if !reflect.DeepEqual(p.meter.Registry().State(), q.meter.Registry().State()) {
			t.Errorf("%s: wrapped meter recorded differently", pol.Name())
		}
		if !reflect.DeepEqual(p.sampler.CheckpointState(), q.sampler.CheckpointState()) {
			t.Errorf("%s: wrapped sampler recorded differently", pol.Name())
		}
	}
}

// TestDepthPumpMatchesBaseline holds the recomposed search probe, bare
// and wrapped, to baselines.RunDepthPump.
func TestDepthPumpMatchesBaseline(t *testing.T) {
	for _, c := range []struct {
		r rational.Rat
		n int
	}{
		{rational.New(55, 100), 3},
		{rational.New(7, 10), 3},
		{rational.New(2101, 4096), 9},
		{rational.New(7, 10), 9},
	} {
		want := baselines.RunDepthPump(c.r, c.n, searchSCap)
		plain, pe := depthPump(c.r, c.n, searchSCap, false)
		traced, te := depthPump(c.r, c.n, searchSCap, true)
		if plain.res != want || traced.res != want {
			t.Errorf("r=%v n=%d: got %v / %v, want %v", c.r, c.n, plain.res, traced.res, want)
		}
		if err := adversary.SameExecution(pe, te); err != nil {
			t.Errorf("r=%v n=%d: wrapped probe diverges: %v", c.r, c.n, err)
		}
		if plain.leapWindows != traced.leapWindows || plain.leapSteps != traced.leapSteps {
			t.Errorf("r=%v n=%d: wrapped probe leaps differently", c.r, c.n)
		}
	}
}

// interfaceSet lists which engine-visible interfaces v implements.
func interfaceSet(v any) []bool {
	_, a := v.(sim.StaticAdversary)
	_, b := v.(sim.CheckpointableAdversary)
	_, c := v.(policy.Keyed)
	_, d := v.(sim.Observer)
	_, e := v.(sim.LeapObserver)
	_, f := v.(sim.InjectionObserver)
	_, g := v.(sim.RerouteObserver)
	_, h := v.(sim.AbsorptionObserver)
	_, i := v.(sim.SendObserver)
	_, j := v.(sim.MarkerObserver)
	_, k := v.(sim.FailureObserver)
	_, l := v.(sim.DropObserver)
	return []bool{a, b, c, d, e, f, g, h, i, j, k, l}
}

// TestWrappersKeepInterfaces checks that each wrapper exposes exactly
// the interfaces of what it wraps, and the policy's name and traits.
func TestWrappersKeepInterfaces(t *testing.T) {
	h := &hotLayers{}
	g := gadget.NewChain(3, 2, false).G
	for _, adv := range []sim.CheckpointableAdversary{
		adversary.NewSequence(),
		adversary.NewRandomWR(g, randomW, randomRate, randomMaxLen, 1),
	} {
		if got, want := interfaceSet(wrapAdversary(adv, h)), interfaceSet(adv); !reflect.DeepEqual(got, want) {
			t.Errorf("%T: wrapper interfaces %v, want %v", adv, got, want)
		}
	}
	for _, pol := range policy.All() {
		w := wrapPolicy(pol, h)
		if got, want := interfaceSet(w), interfaceSet(pol); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: wrapper interfaces %v, want %v", pol.Name(), got, want)
		}
		if w.Name() != pol.Name() || w.Traits() != pol.Traits() {
			t.Errorf("%s: wrapper reports %s %+v", pol.Name(), w.Name(), w.Traits())
		}
	}
	m := obs.NewMeter(nil)
	for _, ob := range []sim.Observer{m, obs.NewSampler(obs.SamplerConfig{Meter: m})} {
		if got, want := interfaceSet(wrapObserver(ob, h)), interfaceSet(ob); !reflect.DeepEqual(got, want) {
			t.Errorf("%T: wrapper interfaces %v, want %v", ob, got, want)
		}
	}
}

// TestDeterminism runs one batch of every workload twice on one seed,
// untraced and traced, and once on another: the exact counts and the
// accuracy results must repeat on the seed and move with it.
func TestDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload three times")
	}
	batchOf := func(t *testing.T, w workload, seed int64, traced bool) *batch {
		j, err := w.prepare(seed)
		if err != nil {
			t.Fatal(err)
		}
		b := &batch{traced: traced}
		j.run(b)
		if b.failed != 0 {
			t.Errorf("%s seed %d: %d of %d checks failed", w.name, seed, b.failed, b.checks)
		}
		return b
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, tr, other := batchOf(t, w, 1, false), batchOf(t, w, 1, true), batchOf(t, w, 2, false)
			if a.counts != tr.counts || a.acc != tr.acc {
				t.Errorf("traced batch differs: %+v %+v, untraced %+v %+v", tr.counts, tr.acc, a.counts, a.acc)
			}
			if a.counts == other.counts {
				t.Errorf("seeds 1 and 2 give the same counts %+v", a.counts)
			}
		})
	}
}

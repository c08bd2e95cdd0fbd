// Engine-observer coverage through the obs package: the flight
// recorder on the event hooks (inject, reroute, keep-latest capacity),
// the Sampler on the step hook (stride, exact peak between samples,
// bounded million-step series) and the Meter's end-to-end latency on
// the absorption hook. External package: obs imports sim.
package sim_test

import (
	"testing"

	"aqt/internal/graph"
	"aqt/internal/obs"
	"aqt/internal/packet"
	"aqt/internal/policy"
	"aqt/internal/sim"
)

// injectAt returns an adversary injecting inj at step t only.
func injectAt(t int64, inj ...packet.Injection) sim.Adversary {
	return sim.InjectFunc(func(e *sim.Engine) []packet.Injection {
		if e.Now() != t {
			return nil
		}
		return inj
	})
}

// injects filters a flight-recorder trace down to its inject events.
func injects(fr *obs.FlightRecorder) []obs.Event {
	var out []obs.Event
	for _, ev := range fr.Events() {
		if ev.Kind == obs.EvInject {
			out = append(out, ev)
		}
	}
	return out
}

func TestObserversFire(t *testing.T) {
	g := graph.Line(2)
	e := sim.New(g, policy.FIFO{}, injectAt(2, packet.InjNamed(g, "e1", "e2")))
	fr := obs.NewFlightRecorder(64)
	e.AddEventObserver(fr)
	sam := obs.NewSampler(obs.SamplerConfig{Every: 1})
	sam.Attach(e)
	e.Run(4)
	if evs := injects(fr); len(evs) != 1 || evs[0].T != 2 || evs[0].Hops != 2 {
		t.Errorf("inject events = %+v", evs)
	}
	if n := len(sam.Backlog()); n != 4 {
		t.Errorf("sampler points = %d, want 4", n)
	}
	if sam.PeakTotal() != 1 {
		t.Errorf("peak total = %d", sam.PeakTotal())
	}
}

func TestTracerRecordsReroutes(t *testing.T) {
	g := graph.Line(3)
	e := sim.New(g, policy.FIFO{}, nil)
	fr := obs.NewFlightRecorder(16)
	e.AddEventObserver(fr)
	p := e.Seed(packet.InjNamed(g, "e1"))
	e.ExtendRoute(p, []graph.EdgeID{g.MustEdge("e2")})
	evs := fr.Events()
	if len(evs) != 2 || evs[0].Kind != obs.EvInject || evs[1].Kind != obs.EvReroute {
		t.Fatalf("events = %+v", evs)
	}
	if evs[1].Aux != 1 || evs[1].Hops != 2 {
		t.Errorf("reroute event: old route length %d, new %d; want 1, 2", evs[1].Aux, evs[1].Hops)
	}
}

// TestTracerCap: the flight recorder keeps the latest events at its
// capacity and counts the rest as overwritten.
func TestTracerCap(t *testing.T) {
	g := graph.Line(1)
	e := sim.New(g, policy.FIFO{}, nil)
	fr := obs.NewFlightRecorder(16)
	e.AddEventObserver(fr)
	e.SeedN(20, packet.InjNamed(g, "e1"))
	if fr.Len() != 16 || fr.Total() != 20 || fr.Overwritten() != 4 {
		t.Fatalf("len %d, total %d, overwritten %d; want 16, 20, 4", fr.Len(), fr.Total(), fr.Overwritten())
	}
	evs := fr.Events()
	if first, last := evs[0].Pkt, evs[len(evs)-1].Pkt; last-first != 15 {
		t.Errorf("kept packets %d..%d, want the latest 16", first, last)
	}
}

func TestRecorderDefaultStride(t *testing.T) {
	if every := obs.NewSampler(obs.SamplerConfig{}).Every(); every != 1 {
		t.Errorf("default every = %d, want 1", every)
	}
}

// TestRecorderZeroValueStride: a zero or negative stride samples every
// step, and the clamp must not touch a configured stride.
func TestRecorderZeroValueStride(t *testing.T) {
	g := graph.Line(1)
	for _, tc := range []struct {
		every int64
		steps int64
		want  int
	}{{0, 3, 3}, {-5, 3, 3}, {2, 4, 2}} {
		e := sim.New(g, policy.FIFO{}, nil)
		e.SeedN(2, packet.InjNamed(g, "e1"))
		sam := obs.NewSampler(obs.SamplerConfig{Every: tc.every})
		sam.Attach(e)
		e.Run(tc.steps)
		pts := sam.Backlog()
		if len(pts) != tc.want || pts[len(pts)-1].T != tc.steps {
			t.Errorf("every=%d over %d steps: %d points ending at t=%d, want %d ending at %d",
				tc.every, tc.steps, len(pts), pts[len(pts)-1].T, tc.want, tc.steps)
		}
	}
}

// TestSamplerPeakTotalOffSample: three packets injected at step 1 put
// the backlog at its lifetime peak on an off-sample step (stride 2);
// by step 2 one has left. PeakTotal must still report 3, while the
// series holds only sampled steps.
func TestSamplerPeakTotalOffSample(t *testing.T) {
	g := graph.Line(1)
	e1 := packet.InjNamed(g, "e1")
	e := sim.New(g, policy.FIFO{}, injectAt(1, e1, e1, e1))
	sam := obs.NewSampler(obs.SamplerConfig{Every: 2})
	sam.Attach(e)
	e.Run(4)
	if sam.PeakTotal() != 3 {
		t.Errorf("PeakTotal = %d, want 3 (peak at off-sample step 1 missed)", sam.PeakTotal())
	}
	for _, p := range sam.Backlog() {
		if p.T%2 != 0 {
			t.Errorf("off-stride point at t=%d", p.T)
		}
		if p.V >= 3 {
			t.Errorf("sampled backlog %d at t=%d; the fixture must keep the peak off-sample", p.V, p.T)
		}
	}
}

// TestRecorderMaxSamplesMillionSteps: a million-step stride-1 run with
// a small MaxSamples bound keeps the retained series bounded and
// uniformly spaced while the peak stays exact — compared against a
// coarse-stride twin watching the same engine.
func TestRecorderMaxSamplesMillionSteps(t *testing.T) {
	const steps = 1_000_000
	g := graph.Line(1)
	e := sim.New(g, policy.FIFO{}, sim.InjectFunc(func(e *sim.Engine) []packet.Injection {
		// One packet per step keeps the queue busy; a 50-packet burst at
		// step 600_007 sets a lifetime peak on a step no coarse sample
		// will land on.
		n := 1
		if e.Now() == 600_007 {
			n = 50
		}
		inj := make([]packet.Injection, n)
		for i := range inj {
			inj[i] = packet.InjNamed(g, "e1")
		}
		return inj
	}))
	bounded := obs.NewSampler(obs.SamplerConfig{Every: 1, MaxSamples: 1024})
	coarse := obs.NewSampler(obs.SamplerConfig{Every: 4096, MaxSamples: 1 << 14})
	bounded.Attach(e)
	coarse.Attach(e)
	e.Run(steps)

	pts := bounded.Backlog()
	if len(pts) > 1024 {
		t.Errorf("retained %d points, MaxSamples is 1024", len(pts))
	}
	eff := bounded.EffectiveEvery()
	if eff <= 1 || eff&(eff-1) != 0 {
		t.Errorf("EffectiveEvery() = %d, want a power of two > 1", eff)
	}
	for _, p := range pts {
		if p.T%eff != 0 {
			t.Errorf("point at t=%d not aligned to effective stride %d", p.T, eff)
		}
	}
	if coarse.EffectiveEvery() != 4096 {
		t.Errorf("coarse twin downsampled to %d; it must keep every sample", coarse.EffectiveEvery())
	}
	// The peak is tracked every step, independent of sampling: both
	// samplers must agree, and both must have seen the burst.
	if bounded.PeakTotal() != coarse.PeakTotal() {
		t.Errorf("PeakTotal %d (bounded) != %d (coarse twin)", bounded.PeakTotal(), coarse.PeakTotal())
	}
	if bounded.PeakTotal() < 50 {
		t.Errorf("PeakTotal = %d, the step-600007 burst was missed", bounded.PeakTotal())
	}
	// The series still covers the whole run.
	if last := pts[len(pts)-1].T; last < steps-eff {
		t.Errorf("last retained point at t=%d, run ended at %d", last, steps)
	}
}

func TestAbsorptionObserverHook(t *testing.T) {
	g := graph.Line(2)
	var seen []packet.ID
	hook := absorbFunc(func(_ int64, p *packet.Packet) { seen = append(seen, p.ID) })
	e := sim.New(g, policy.FIFO{}, nil)
	e.AddObserver(hook)
	// Absorbed packets' slots are released, so the IDs are captured
	// while both packets are still queued.
	a := e.Seed(packet.InjNamed(g, "e1", "e2")).ID
	b := e.Seed(packet.InjNamed(g, "e1")).ID
	e.Run(4)
	if len(seen) != 2 {
		t.Fatalf("absorptions seen: %d", len(seen))
	}
	// b (single hop, queued second) is absorbed at step 2; a at step 3.
	if seen[0] != b || seen[1] != a {
		t.Errorf("absorption order = %v", seen)
	}
}

// absorbFunc adapts a function to Observer + AbsorptionObserver.
type absorbFunc func(t int64, p *packet.Packet)

func (absorbFunc) OnStep(*sim.Engine) {}

func (f absorbFunc) OnAbsorb(t int64, p *packet.Packet) { f(t, p) }

// TestLatencyObserverBasics: the Meter, as an absorption observer,
// records absorption time minus injection time for every absorbed
// packet, exactly in count/min/max/mean.
func TestLatencyObserverBasics(t *testing.T) {
	g := graph.Line(3)
	m := obs.NewMeter(nil)
	e := sim.New(g, policy.FIFO{}, nil)
	e.AddObserver(m)
	// Two packets over 3 hops, seeded at t=0: the first is absorbed at
	// step 3 (latency 3), the second queues one step behind at every
	// hop and is absorbed at step 4 (latency 4).
	e.SeedN(2, packet.InjNamed(g, "e1", "e2", "e3"))
	e.Run(6)
	ls := m.LatencySnapshot()
	if ls.Count != 2 || ls.Min != 3 || ls.Max != 4 || ls.Mean() != 3.5 {
		t.Errorf("latency count/min/max/mean = %d/%d/%d/%v, want 2/3/4/3.5", ls.Count, ls.Min, ls.Max, ls.Mean())
	}
	if p50 := ls.Quantile(0.5); p50 != 3 && p50 != 4 {
		t.Errorf("p50 = %d, want 3 or 4", p50)
	}
}

// TestLatencyObserverEmpty: before anything is absorbed the Meter
// reports an empty latency distribution with zero mean and quantiles.
func TestLatencyObserverEmpty(t *testing.T) {
	g := graph.Line(3)
	m := obs.NewMeter(nil)
	e := sim.New(g, policy.FIFO{}, nil)
	e.AddObserver(m)
	if ls := m.LatencySnapshot(); ls.Count != 0 || ls.Mean() != 0 || ls.Quantile(0.5) != 0 {
		t.Errorf("empty latency snapshot = %+v", ls)
	}
	// One packet seeded but not yet through its three hops.
	e.SeedN(1, packet.InjNamed(g, "e1", "e2", "e3"))
	e.Run(2)
	if ls := m.LatencySnapshot(); ls.Count != 0 {
		t.Errorf("latency count after 2 steps = %d, want 0", ls.Count)
	}
}

// TestLatencyPercentiles: ten packets through one edge have latencies
// 1..10; the Meter's quantiles are nearest-rank bucket upper bounds,
// clamped to the exact max.
func TestLatencyPercentiles(t *testing.T) {
	g := graph.Line(1)
	m := obs.NewMeter(nil)
	e := sim.New(g, policy.FIFO{}, nil)
	e.AddObserver(m)
	e.SeedN(10, packet.InjNamed(g, "e1"))
	e.Run(12)
	ls := m.LatencySnapshot()
	if ls.Count != 10 || ls.Min != 1 || ls.Max != 10 {
		t.Fatalf("latency count/min/max = %d/%d/%d, want 10/1/10", ls.Count, ls.Min, ls.Max)
	}
	// Rank 5 is latency 5, in bucket [4,8); ranks 9 and 10 fall in
	// [8,16), clamped to the max 10.
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.50, 7}, {0.90, 10}, {0.99, 10}} {
		if got := ls.Quantile(c.q); got != c.want {
			t.Errorf("p%v = %d, want %d", 100*c.q, got, c.want)
		}
	}
}

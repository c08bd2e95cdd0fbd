// Observers across a checkpoint: a restore replays the prefix on a
// fresh engine, so every observer attached to it must end a resumed run
// in exactly the state of a straight run — with no checkpoint state of
// its own.
package obs_test

import (
	"reflect"
	"testing"

	"aqt/internal/obs"
	"aqt/internal/sim"
)

var testSource = sim.SourceDigest([]byte("obs checkpoint tests"))

// resume checkpoints half through the wire format and restores it into
// fresh, whose observers then see the replayed prefix.
func resume(t *testing.T, half, fresh *sim.Engine) {
	t.Helper()
	cp, err := half.Checkpoint(testSource, sim.ModeStep)
	if err != nil {
		t.Fatalf("engine checkpoint: %v", err)
	}
	cp2, err := sim.DecodeCheckpoint(cp.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := fresh.Restore(cp2, testSource); err != nil {
		t.Fatalf("engine restore: %v", err)
	}
}

// spanView is everything a SpanTracer shows: its counters, retained
// spans and residence histograms.
type spanView struct {
	Missed, DoneTotal uint64
	Live              int
	Done              []obs.Span
	Hists             obs.RegistryState
}

func viewOf(st *obs.SpanTracer) spanView {
	return spanView{st.Missed(), st.DoneTotal(), st.Live(), st.Done(), st.Registry().State()}
}

// TestRegistryStateRoundTrip: a meter's registry — including metrics
// registered but never observed, whose registration shows in every
// snapshot — round-trips through a checkpoint: the resumed run ends
// with the straight run's contents.
func TestRegistryStateRoundTrip(t *testing.T) {
	const total, k = 1000, 333
	ref := burstEngine()
	rm := obs.NewMeter(nil)
	ref.AddObserver(rm)
	rm.Registry().Histogram("empty")
	ref.Run(total)

	half := burstEngine()
	half.Run(k)
	resumed := burstEngine()
	gm := obs.NewMeter(nil)
	resumed.AddObserver(gm)
	gm.Registry().Histogram("empty")
	resume(t, half, resumed)
	resumed.Run(total - k)
	if rs, gs := rm.Registry().State(), gm.Registry().State(); !reflect.DeepEqual(rs, gs) {
		t.Errorf("registries differ:\nref: %+v\ngot: %+v", rs, gs)
	}
}

// TestMeterStateFinishLatch: Finish on a resumed run folds the whole
// run's end state — prefix included — exactly once, however often it
// is called.
func TestMeterStateFinishLatch(t *testing.T) {
	const total, k = 700, 250
	ref := burstEngine()
	rm := obs.NewMeter(nil)
	ref.AddObserver(rm)
	ref.Run(total)
	rm.Finish(ref)

	half := burstEngine()
	half.Run(k)
	resumed := burstEngine()
	gm := obs.NewMeter(nil)
	resumed.AddObserver(gm)
	resume(t, half, resumed)
	resumed.Run(total - k)
	gm.Finish(resumed)
	gm.Finish(resumed)
	if rs, gs := rm.Registry().Snapshot(), gm.Registry().Snapshot(); !reflect.DeepEqual(rs, gs) {
		t.Errorf("finished registries differ:\nref: %+v\ngot: %+v", rs, gs)
	}
}

// TestSamplerStateRoundTrip: a sampler small enough to downsample,
// attached to an engine resumed mid-run, must agree with the straight
// run's exactly.
func TestSamplerStateRoundTrip(t *testing.T) {
	const total, k = 600, 251
	ref := burstEngine()
	rs := obs.NewSampler(obs.SamplerConfig{Every: 1, MaxSamples: 32})
	rs.Attach(ref)
	ref.Run(total)

	half := burstEngine()
	half.Run(k)
	resumed := burstEngine()
	gs := obs.NewSampler(obs.SamplerConfig{Every: 1, MaxSamples: 32})
	gs.Attach(resumed)
	resume(t, half, resumed)
	resumed.Run(total - k)
	if !reflect.DeepEqual(rs.CheckpointState(), gs.CheckpointState()) {
		t.Errorf("resumed sampler state differs from straight run:\nref: %+v\ngot: %+v",
			rs.CheckpointState(), gs.CheckpointState())
	}
}

// TestSpanStateRoundTrip: split mid-burst (live spans in flight), then
// finish — spans, counters and histograms must agree with the straight
// run's exactly.
func TestSpanStateRoundTrip(t *testing.T) {
	const total, k = 1000, 333 // k inside a burst so live spans exist
	ref := burstEngine()
	rt := obs.NewSpanTracer(obs.SpanConfig{SampleEvery: 2, Seed: 3})
	rt.Attach(ref)
	ref.Run(total)

	half := burstEngine()
	ht := obs.NewSpanTracer(obs.SpanConfig{SampleEvery: 2, Seed: 3})
	ht.Attach(half)
	half.Run(k)
	if ht.Live() == 0 {
		t.Fatal("no spans in flight at the split; test vacuous")
	}
	resumed := burstEngine()
	gt := obs.NewSpanTracer(obs.SpanConfig{SampleEvery: 2, Seed: 3})
	gt.Attach(resumed)
	resume(t, half, resumed)
	resumed.Run(total - k)
	if rv, gv := viewOf(rt), viewOf(gt); !reflect.DeepEqual(rv, gv) {
		t.Errorf("resumed tracer state differs from straight run:\nref: %+v\ngot: %+v", rv, gv)
	}
}

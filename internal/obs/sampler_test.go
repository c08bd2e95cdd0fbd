// Sampler coverage: series recording and stride-doubling, the leap
// closed forms (drain windows must be indistinguishable from stepping,
// meter-linked samplers must refuse them), state round trips with
// hostile-input rejection, and the JSONL wire form.
package obs_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"aqt/internal/obs"
	"aqt/internal/sim"
)

// sampledPair runs the burst workload twice — leaped and stepped —
// with identically configured samplers and returns both.
func sampledPair(t *testing.T, steps int64, cfg func(e *sim.Engine) obs.SamplerConfig) (leapS, stepS *obs.Sampler, leapE *sim.Engine) {
	t.Helper()
	le, se := burstEngine(), burstEngine()
	ls := obs.NewSampler(cfg(le))
	ss := obs.NewSampler(cfg(se))
	ls.Attach(le)
	ss.Attach(se)
	le.RunLeap(steps)
	se.Run(steps)
	return ls, ss, le
}

// TestSamplerRecordsTrajectory pins the basics: aligned series, the
// configured names, monotone timestamps on the base stride, and a
// backlog trajectory that actually moves under the burst workload.
func TestSamplerRecordsTrajectory(t *testing.T) {
	e := burstEngine()
	s := obs.NewSampler(obs.SamplerConfig{Every: 2})
	s.Attach(e)
	e.Run(200)
	series := s.Series()
	if len(series) != 6 {
		t.Fatalf("meterless sampler has %d series, want 6", len(series))
	}
	wantNames := []string{"backlog", "queue_max", "absorbed", "drops", "heap_skips", "heap_compactions"}
	sawNonzeroBacklog := false
	for i, sr := range series {
		if sr.Name != wantNames[i] {
			t.Errorf("series[%d] = %q, want %q", i, sr.Name, wantNames[i])
		}
		if len(sr.Points) != len(series[0].Points) {
			t.Errorf("series %q has %d points, %q has %d (must stay aligned)",
				sr.Name, len(sr.Points), series[0].Name, len(series[0].Points))
		}
		for j, p := range sr.Points {
			if p.T%s.EffectiveEvery() != 0 {
				t.Errorf("series %q point %d at t=%d off the effective stride %d",
					sr.Name, j, p.T, s.EffectiveEvery())
			}
			if p.T != series[0].Points[j].T {
				t.Errorf("series %q point %d at t=%d, misaligned with %d",
					sr.Name, j, p.T, series[0].Points[j].T)
			}
			if sr.Name == "backlog" && p.V > 0 {
				sawNonzeroBacklog = true
			}
		}
	}
	if !sawNonzeroBacklog {
		t.Error("burst workload recorded no nonzero backlog sample")
	}
}

// TestSamplerDownsamples: a run long enough to overflow MaxSamples
// must double the effective stride and keep every series within the
// bound, still aligned.
func TestSamplerDownsamples(t *testing.T) {
	e := burstEngine()
	s := obs.NewSampler(obs.SamplerConfig{Every: 1, MaxSamples: 16})
	s.Attach(e)
	e.Run(200)
	if s.EffectiveEvery() <= s.Every() {
		t.Fatalf("200 steps at every=1 with max 16 samples must downsample, effective still %d", s.EffectiveEvery())
	}
	for _, sr := range s.Series() {
		if len(sr.Points) > 16 {
			t.Errorf("series %q retains %d points, max 16", sr.Name, len(sr.Points))
		}
		for _, p := range sr.Points {
			if p.T%s.EffectiveEvery() != 0 {
				t.Errorf("series %q keeps off-stride point t=%d (effective %d)", sr.Name, p.T, s.EffectiveEvery())
			}
		}
	}
}

// TestSamplerLeapEquivalence is the drain closed form's gate: a
// meterless sampler accepts drain windows (no keyed tombstones in the
// FIFO burst workload), and the leaped run's full sampler state must
// equal the stepped run's bit for bit.
func TestSamplerLeapEquivalence(t *testing.T) {
	ls, ss, le := sampledPair(t, 1000, func(*sim.Engine) obs.SamplerConfig {
		return obs.SamplerConfig{Every: 1, MaxSamples: 64}
	})
	if le.Leaps().Drain == 0 {
		t.Fatal("meterless sampler should accept drain windows, engine leaped none")
	}
	if le.Leaps().Idle == 0 {
		t.Fatal("burst workload leaped no idle windows")
	}
	lst, sst := ls.CheckpointState(), ss.CheckpointState()
	if !reflect.DeepEqual(lst, sst) {
		t.Errorf("sampler states differ after leap vs step:\nleap: %+v\nstep: %+v", lst, sst)
	}
}

// TestSamplerWithMeterRefusesDrains: linking a meter makes the latency
// quantiles part of the sample vector, which no closed form can track
// through a drain — the sampler must veto them (idle windows remain
// fine) and still match a stepped run exactly.
func TestSamplerWithMeterRefusesDrains(t *testing.T) {
	const steps = 1000
	le, se := burstEngine(), burstEngine()
	lm, sm := obs.NewMeter(nil), obs.NewMeter(nil)
	le.AddObserver(lm)
	se.AddObserver(sm)
	ls := obs.NewSampler(obs.SamplerConfig{Every: 1, MaxSamples: 64, Meter: lm})
	ss := obs.NewSampler(obs.SamplerConfig{Every: 1, MaxSamples: 64, Meter: sm})
	ls.Attach(le)
	ss.Attach(se)
	le.RunLeap(steps)
	se.Run(steps)
	if d := le.Leaps().Drain; d != 0 {
		t.Errorf("meter-linked sampler accepted %d drain windows, want 0", d)
	}
	if le.Leaps().Idle == 0 {
		t.Error("idle windows must still leap with a meter-linked sampler")
	}
	if len(ls.Series()) != 8 {
		t.Errorf("meter-linked sampler has %d series, want 8", len(ls.Series()))
	}
	lst, sst := ls.CheckpointState(), ss.CheckpointState()
	if !reflect.DeepEqual(lst, sst) {
		t.Errorf("meter-linked sampler states differ after leap vs step:\nleap: %+v\nstep: %+v", lst, sst)
	}
}

// TestSamplerDumpJSONLValidates: the dump is schema-valid, one line
// per retained point, carrying the "sample" kind.
func TestSamplerDumpJSONLValidates(t *testing.T) {
	e := burstEngine()
	s := obs.NewSampler(obs.SamplerConfig{Every: 4})
	s.Attach(e)
	e.Run(300)
	var buf bytes.Buffer
	if err := s.DumpJSONL(&buf); err != nil {
		t.Fatalf("DumpJSONL: %v", err)
	}
	want := 0
	for _, sr := range s.Series() {
		want += len(sr.Points)
	}
	n, err := obs.ValidateJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("schema: %v", err)
	}
	if n != want {
		t.Errorf("dump has %d valid lines, sampler retains %d points", n, want)
	}
	if want == 0 {
		t.Fatal("empty dump")
	}
	if !strings.Contains(buf.String(), `"kind":"sample"`) {
		t.Error("dump carries no sample lines")
	}
}

// TestSamplerStateRoundTrip: checkpoint mid-run, restore onto a fresh
// same-shaped sampler, finish both — the series must agree exactly.
func TestSamplerStateRoundTrip(t *testing.T) {
	const total, k = 600, 251
	ref := burstEngine()
	rs := obs.NewSampler(obs.SamplerConfig{Every: 1, MaxSamples: 32})
	rs.Attach(ref)
	ref.Run(total)

	half := burstEngine()
	hs := obs.NewSampler(obs.SamplerConfig{Every: 1, MaxSamples: 32})
	hs.Attach(half)
	half.Run(k)
	st := hs.CheckpointState()

	resumed := burstEngine()
	cp, err := half.Checkpoint()
	if err != nil {
		t.Fatalf("engine checkpoint: %v", err)
	}
	if err := resumed.Restore(cp); err != nil {
		t.Fatalf("engine restore: %v", err)
	}
	gs := obs.NewSampler(obs.SamplerConfig{Every: 1, MaxSamples: 32})
	gs.Attach(resumed)
	if err := gs.RestoreState(st); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	resumed.Run(total - k)
	if !reflect.DeepEqual(rs.CheckpointState(), gs.CheckpointState()) {
		t.Errorf("resumed sampler state differs from straight run:\nref: %+v\ngot: %+v",
			rs.CheckpointState(), gs.CheckpointState())
	}
}

// TestSamplerStateRejects: every malformed-state class is refused with
// an error (states are reachable from fuzzed checkpoint files).
func TestSamplerStateRejects(t *testing.T) {
	mk := func() obs.SamplerState {
		s := obs.NewSampler(obs.SamplerConfig{Every: 2, MaxSamples: 16})
		e := burstEngine()
		s.Attach(e)
		e.Run(40)
		return s.CheckpointState()
	}
	cases := []struct {
		name string
		mut  func(st *obs.SamplerState)
	}{
		{"every below 1", func(st *obs.SamplerState) { st.Every = 0 }},
		{"max_samples too small", func(st *obs.SamplerState) { st.MaxSamples = 15 }},
		{"max_samples too large", func(st *obs.SamplerState) { st.MaxSamples = 1 << 21 }},
		{"negative factor", func(st *obs.SamplerState) { st.Factor = -2 }},
		{"factor not a power of two", func(st *obs.SamplerState) { st.Factor = 6 }},
		{"every×factor overflows", func(st *obs.SamplerState) { st.Every, st.Factor = 4, 1<<62 }},
		{"negative peak_total", func(st *obs.SamplerState) { st.PeakTotal = -1 }},
		{"points off the effective stride", func(st *obs.SamplerState) {
			for i := range st.Series {
				p := append([]obs.Point(nil), st.Series[i].Points...)
				p[len(p)-1].T++
				st.Series[i].Points = p
			}
		}},
		{"series dropped", func(st *obs.SamplerState) { st.Series = st.Series[:len(st.Series)-1] }},
		{"series renamed", func(st *obs.SamplerState) { st.Series[0].Name = "bogus" }},
		{"too many points", func(st *obs.SamplerState) {
			st.MaxSamples = 16
			pts := make([]obs.Point, 17)
			for i := range pts {
				pts[i] = obs.Point{T: int64(i + 1), V: 0}
			}
			for i := range st.Series {
				st.Series[i].Points = pts
			}
			st.Series[0].Points = pts
		}},
		{"misaligned lengths", func(st *obs.SamplerState) {
			st.Series[1].Points = st.Series[1].Points[:len(st.Series[1].Points)-1]
		}},
		{"non-increasing time", func(st *obs.SamplerState) {
			p := append([]obs.Point(nil), st.Series[0].Points...)
			p[1].T = p[0].T
			st.Series[0].Points = p
		}},
		{"misaligned timestamps", func(st *obs.SamplerState) {
			p := append([]obs.Point(nil), st.Series[0].Points...)
			p[1].T++
			st.Series[0].Points = p
		}},
	}
	for _, tc := range cases {
		st := mk()
		if len(st.Series[0].Points) < 3 {
			t.Fatalf("%s: fixture too short (%d points)", tc.name, len(st.Series[0].Points))
		}
		tc.mut(&st)
		fresh := obs.NewSampler(obs.SamplerConfig{Every: 2, MaxSamples: 16})
		if err := fresh.RestoreState(st); err == nil {
			t.Errorf("%s: malformed state accepted", tc.name)
		}
	}
	// The unmutated fixture must restore cleanly (the cases above fail
	// for their stated reason, not because the fixture is broken).
	fresh := obs.NewSampler(obs.SamplerConfig{Every: 2, MaxSamples: 16})
	if err := fresh.RestoreState(mk()); err != nil {
		t.Errorf("pristine state rejected: %v", err)
	}
}

// TestSamplerRestoreOverflowingStride is the regression test for a
// hostile state that used to be accepted: every 4 × factor 2^62 wraps
// the effective stride to 0, and the next Step panicked with an integer
// divide by zero. It must be refused, leaving a sampler that still
// steps.
func TestSamplerRestoreOverflowingStride(t *testing.T) {
	s := obs.NewSampler(obs.SamplerConfig{})
	names := []string{"backlog", "queue_max", "absorbed", "drops", "heap_skips", "heap_compactions"}
	st := obs.SamplerState{Every: 4, MaxSamples: 512, Factor: 1 << 62}
	for _, name := range names {
		st.Series = append(st.Series, obs.SeriesState{Name: name})
	}
	if err := s.RestoreState(st); err == nil {
		t.Fatal("state with every×factor overflowing int64 accepted")
	}
	e := burstEngine()
	s.Attach(e)
	e.Run(10)
	if s.PeakTotal() == 0 || len(s.Backlog()) != 10 {
		t.Errorf("sampler unusable after the rejected restore: peak %d, %d points", s.PeakTotal(), len(s.Backlog()))
	}
}

// TestValidateJSONLSampleLines pins the schema rules for sample lines.
func TestValidateJSONLSampleLines(t *testing.T) {
	ok := `{"t":10,"kind":"sample","label":"backlog","v":5}`
	if n, err := obs.ValidateJSONL(strings.NewReader(ok)); err != nil || n != 1 {
		t.Errorf("valid sample line rejected: n=%d err=%v", n, err)
	}
	for _, bad := range []string{
		`{"t":10,"kind":"sample","v":5}`,                   // no label
		`{"t":10,"kind":"sample","label":"backlog"}`,       // no value
		`{"kind":"sample","label":"backlog","v":5}`,        // no t
		`{"t":-1,"kind":"sample","label":"backlog","v":5}`, // negative t
	} {
		if _, err := obs.ValidateJSONL(strings.NewReader(bad)); err == nil {
			t.Errorf("schema accepted invalid sample line: %s", bad)
		}
	}
}

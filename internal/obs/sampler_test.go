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

package stability

import (
	"reflect"
	"strings"
	"testing"

	"aqt/internal/adversary"
	"aqt/internal/graph"
	"aqt/internal/policy"
	"aqt/internal/rational"
	"aqt/internal/sim"
)

// drainingProbe mirrors TestRunClassifiesDrainingSystem: a random
// (w,r) adversary well under the stability bound.
func drainingProbe() *sim.Engine {
	g := graph.Ring(6)
	adv := adversary.NewRandomWR(g, 20, rational.New(1, 6), 2, 5)
	return sim.New(g, policy.LIS{}, adv)
}

// overloadProbe mirrors TestRunClassifiesOverload: a paced script well
// past server capacity on one edge.
func overloadProbe() *sim.Engine {
	g := graph.Line(4)
	adv := adversary.NewScript(
		adversary.Stream{Name: "a", Start: 1, Rate: rational.New(9, 10), Budget: -1,
			Route: []graph.EdgeID{g.MustEdge("e1"), g.MustEdge("e2")}},
		adversary.Stream{Name: "b", Start: 1, Rate: rational.New(9, 10), Budget: -1,
			Route: []graph.EdgeID{g.MustEdge("e1"), g.MustEdge("e2"), g.MustEdge("e3")}},
	)
	return sim.New(g, policy.FIFO{}, adv)
}

// TestProbePauseResume: for both a draining and an overloaded probe,
// pausing at several points — persisting through the wire format —
// and resuming must reproduce Run's report exactly.
func TestProbePauseResume(t *testing.T) {
	cases := []struct {
		name  string
		build func() *sim.Engine
		steps int64
	}{
		{"draining", drainingProbe, 3000},
		{"overload", overloadProbe, 2000},
	}
	const stride, growth = 10, 1.25
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			want := Run(tc.build(), tc.steps, stride, growth)
			for _, at := range []int64{1, tc.steps / 2, tc.steps - 1, tc.steps} {
				pc, err := PauseRun(tc.build(), tc.steps, stride, at, growth)
				if err != nil {
					t.Fatalf("PauseRun(at=%d): %v", at, err)
				}
				pc2, err := DecodeProbeCheckpoint(pc.Encode())
				if err != nil {
					t.Fatalf("decode(at=%d): %v", at, err)
				}
				got, err := ResumeRun(tc.build(), pc2)
				if err != nil {
					t.Fatalf("ResumeRun(at=%d): %v", at, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("at=%d: resumed report differs:\nwant: %+v\ngot:  %+v", at, want, got)
				}
			}
		})
	}
}

// TestThresholdSearchWithResumedProbes runs the same rate bisection
// twice — once with straight Run probes, once with probes that pause
// mid-run, persist, and resume — and requires identical thresholds and
// identical probe sequences. This is the mid-bisection persistence the
// checkpoint machinery exists for.
func TestThresholdSearchWithResumedProbes(t *testing.T) {
	build := func(r rational.Rat) *sim.Engine {
		g := graph.Line(4)
		adv := adversary.NewScript(
			adversary.Stream{Name: "a", Start: 1, Rate: r, Budget: -1,
				Route: []graph.EdgeID{g.MustEdge("e1"), g.MustEdge("e2")}},
			adversary.Stream{Name: "b", Start: 1, Rate: r, Budget: -1,
				Route: []graph.EdgeID{g.MustEdge("e2"), g.MustEdge("e3")}},
		)
		return sim.New(g, policy.FIFO{}, adv)
	}
	const steps, stride, growth = 1500, 10, 1.25
	lo, hi := rational.New(1, 4), rational.FromInt(1)

	var directSeq []rational.Rat
	direct := ThresholdSearch(func(r rational.Rat) Verdict {
		directSeq = append(directSeq, r)
		return Run(build(r), steps, stride, growth).Verdict
	}, lo, hi, 6)

	var resumedSeq []rational.Rat
	resumed := ThresholdSearch(func(r rational.Rat) Verdict {
		resumedSeq = append(resumedSeq, r)
		pc, err := PauseRun(build(r), steps, stride, steps/3, growth)
		if err != nil {
			t.Fatalf("PauseRun(%v): %v", r, err)
		}
		pc2, err := DecodeProbeCheckpoint(pc.Encode())
		if err != nil {
			t.Fatalf("decode(%v): %v", r, err)
		}
		rep, err := ResumeRun(build(r), pc2)
		if err != nil {
			t.Fatalf("ResumeRun(%v): %v", r, err)
		}
		return rep.Verdict
	}, lo, hi, 6)

	if !direct.Eq(resumed) {
		t.Errorf("threshold with resumed probes %v != direct %v", resumed, direct)
	}
	if !reflect.DeepEqual(directSeq, resumedSeq) {
		t.Errorf("probe sequences differ:\ndirect:  %v\nresumed: %v", directSeq, resumedSeq)
	}
}

// TestProbeCheckpointRejects covers the probe document's own error
// paths on top of the engine document's validation.
func TestProbeCheckpointRejects(t *testing.T) {
	if _, err := PauseRun(drainingProbe(), 100, 10, 0, 1.25); err == nil {
		t.Error("pauseAt=0 accepted")
	}
	if _, err := PauseRun(drainingProbe(), 100, 10, 101, 1.25); err == nil {
		t.Error("pauseAt past the horizon accepted")
	}
	for _, doc := range []string{
		`{}`,
		`not json`,
		`{"version": 3, "engine": {"version": 1}, "sampler": {"every": 1}, "remaining": 0, "growth": 1}`,
		`{"version": 2, "engine": {"version": 1, "num_nodes": 2, "num_edges": 1, "policy": "FIFO"},
		  "sampler": {"every": 1}, "remaining": -4, "growth": 1}`,
	} {
		if _, err := DecodeProbeCheckpoint([]byte(doc)); err == nil {
			t.Errorf("accepted %q", doc)
		}
	}
	// A version-1 document (the retired recorder state) is refused by
	// version, with an error rather than a panic.
	pc, err := PauseRun(drainingProbe(), 100, 10, 50, 1.25)
	if err != nil {
		t.Fatal(err)
	}
	pc.Version = 1
	if _, err := DecodeProbeCheckpoint(pc.Encode()); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Errorf("version-1 probe checkpoint: error %v, want an unsupported-version error", err)
	}
	if _, err := ResumeRun(drainingProbe(), pc); err == nil {
		t.Error("ResumeRun accepted a version-1 probe checkpoint")
	}
}

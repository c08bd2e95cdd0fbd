package adversary

import (
	"math/rand"
	"reflect"
	"testing"

	"aqt/internal/graph"
	"aqt/internal/packet"
	"aqt/internal/rational"
	"aqt/internal/sim"
)

func TestRecorderCapturesSchedule(t *testing.T) {
	g := graph.Line(2)
	rec := NewScheduleRecorder()
	s := NewScript(Stream{Start: 2, Rate: rational.FromInt(1), Budget: 3, Route: rt(g, "e1")})
	e := sim.New(g, fifo(), s)
	e.AddObserver(rec)
	e.Seed(packet.Inj(rt(g, "e2")...))
	e.Run(6)
	out := rec.Finish()
	if len(out) != 4 {
		t.Fatalf("recorded %d injections, want 4", len(out))
	}
	if out[0].Step != 0 || len(out[0].Route) != 1 {
		t.Errorf("seed record wrong: %+v", out[0])
	}
	steps := SortedSteps(out)
	if len(steps) != 4 || steps[0] != 0 || steps[1] != 2 || steps[3] != 4 {
		t.Errorf("steps = %v", steps)
	}
	// Finish is idempotent.
	if len(rec.Finish()) != 4 || rec.Len() != 4 {
		t.Error("Finish not idempotent")
	}
}

func TestRecorderCapturesFinalRoutes(t *testing.T) {
	g := graph.Line(3)
	rec := NewScheduleRecorder()
	e := sim.New(g, fifo(), nil)
	e.AddObserver(rec)
	p := e.Seed(packet.Inj(rt(g, "e1")...))
	e.ExtendRoute(p, rt(g, "e2", "e3"))
	out := rec.Finish()
	if len(out[0].Route) != 3 {
		t.Errorf("final route length %d, want 3 (extension included)", len(out[0].Route))
	}
}

func TestRecorderPanicsAfterFinish(t *testing.T) {
	rec := NewScheduleRecorder()
	rec.Finish()
	defer func() {
		if recover() == nil {
			t.Error("OnInject after Finish did not panic")
		}
	}()
	rec.OnInject(1, &packet.Packet{})
}

func TestReplayReproducesExecution(t *testing.T) {
	// Record a run with reroutes, then replay with final routes on a
	// fresh engine: under a historic policy the executions must agree
	// step for step (Lemma 3.3 claim (1) / Remark 1).
	g := graph.Line(4)
	rate := rational.New(3, 5)

	build := func() (*sim.Engine, *ScheduleRecorder) {
		rec := NewScheduleRecorder()
		s := NewScript(Stream{Start: 1, Rate: rate, Budget: 12, Route: rt(g, "e1", "e2")})
		e := sim.New(g, fifo(), s)
		e.AddObserver(rec)
		e.SeedN(5, packet.Inj(rt(g, "e1")...))
		return e, rec
	}
	orig, rec := build()
	// Mid-run, extend the seeds' routes (they all share e1; e3/e4 are
	// new edges).
	var seeds []*packet.Packet
	orig.ForEachQueued(func(_ graph.EdgeID, p *packet.Packet) {
		if p.InjectedAt == 0 {
			seeds = append(seeds, p)
		}
	})
	for _, p := range seeds {
		orig.ExtendRoute(p, rt(g, "e2", "e3"))
	}
	orig.Run(40)
	schedule := rec.Finish()

	replayEng := sim.New(g, fifo(), NewReplay(schedule))
	SeedRecording(replayEng, schedule)
	for replayEng.Now() < orig.Now() {
		replayEng.Step()
	}
	if err := DivergenceAt(orig, replayEng); err != nil {
		t.Errorf("replay diverged: %v", err)
	}
}

func TestReplayStepLockstep(t *testing.T) {
	// Lockstep comparison at every step, not only at the end.
	g := graph.Line(3)
	rate := rational.New(1, 2)
	rec := NewScheduleRecorder()
	s := NewScript(Stream{Start: 1, Rate: rate, Budget: 10, Route: rt(g, "e1", "e2", "e3")})
	orig := sim.New(g, fifo(), s)
	orig.AddObserver(rec)
	orig.Run(30)
	schedule := rec.Finish()

	a := sim.New(g, fifo(), NewScript(Stream{Start: 1, Rate: rate, Budget: 10, Route: rt(g, "e1", "e2", "e3")}))
	b := sim.New(g, fifo(), NewReplay(schedule))
	SeedRecording(b, schedule)
	for i := 0; i < 30; i++ {
		a.Step()
		b.Step()
		if err := DivergenceAt(a, b); err != nil {
			t.Fatalf("step %d: %v", i+1, err)
		}
	}
}

func TestValidateRecording(t *testing.T) {
	g := graph.Line(2)
	rate := rational.New(1, 2)
	rec := NewScheduleRecorder()
	s := NewScript(Stream{Start: 1, Rate: rate, Budget: 20, Route: rt(g, "e1")})
	e := sim.New(g, fifo(), s)
	e.AddObserver(rec)
	e.Run(60)
	schedule := rec.Finish()
	if err := ValidateRecording(schedule, rate, 100, 100); err != nil {
		t.Errorf("compliant recording flagged: %v", err)
	}
	// The same schedule fails a lower-rate check.
	if err := ValidateRecording(schedule, rational.New(1, 4), 100, 100); err == nil {
		t.Error("overloaded recording not flagged")
	}
}

func TestDivergenceAtDetectsDifferences(t *testing.T) {
	g := graph.Line(2)
	a := sim.New(g, fifo(), nil)
	b := sim.New(g, fifo(), nil)
	a.Step()
	if err := DivergenceAt(a, b); err == nil {
		t.Error("time difference not detected")
	}
	b.Step()
	if err := DivergenceAt(a, b); err != nil {
		t.Errorf("identical engines flagged: %v", err)
	}
	a.SetAdversary(nil)
	b2 := sim.New(g, fifo(), nil)
	b2.Seed(packet.Inj(rt(g, "e1")...))
	b2.Step()
	a.Step()
	b2.Step()
	a.Step()
	if err := DivergenceAt(a, b2); err == nil {
		t.Error("injection difference not detected")
	}
}

func TestReplayLastStep(t *testing.T) {
	rec := []RecordedInjection{
		{Step: 0, Route: []graph.EdgeID{0}},
		{Step: 5, Route: []graph.EdgeID{0}},
		{Step: 3, Route: []graph.EdgeID{0}},
	}
	rp := NewReplay(rec)
	if rp.LastStep() != 5 {
		t.Errorf("LastStep = %d", rp.LastStep())
	}
}

// TestReplayMatchesByStepMap holds the step-indexed Replay to a naive
// by-step map of the same schedule: recordings with steps out of order
// and interleaved and with step-0 seeds, Schedules filled run by run
// out of step order, and several Replays sharing one Schedule.
func TestReplayMatchesByStepMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.Line(4)
	routes := [][]graph.EdgeID{rt(g, "e1"), rt(g, "e2", "e3"), rt(g, "e4")}
	draw := func(minStep int) RecordedInjection {
		return RecordedInjection{Step: int64(minStep + rng.Intn(60-minStep)),
			Route: routes[rng.Intn(len(routes))], Tag: string(rune('a' + rng.Intn(3)))}
	}
	for trial := 0; trial < 50; trial++ {
		var rec []RecordedInjection
		for i := rng.Intn(40); i > 0; i-- {
			rec = append(rec, draw(0))
		}
		checkReplays(t, rng, rec, NewReplay(rec))

		sched := NewSchedule(0)
		var added []RecordedInjection
		for i := rng.Intn(15); i > 0; i-- {
			ri, n := draw(1), 1+rng.Intn(3)
			sched.Add(ri.Step, packet.Injection{Route: ri.Route, Tag: ri.Tag}, int64(n))
			for ; n > 0; n-- {
				added = append(added, ri)
			}
		}
		checkReplays(t, rng, added, sched.Replay(), sched.Replay(), sched.Replay())
	}
}

// checkReplays steps one engine clock past rec's last step and, at
// each step, calls Inject and then StaticUntil on every replay: on the
// first at every step, on the others at a random half of the steps, as
// leap windows skip steps. Each result must equal the by-step map of
// rec's non-seed injections.
func checkReplays(t *testing.T, rng *rand.Rand, rec []RecordedInjection, rps ...*Replay) {
	t.Helper()
	byStep := map[int64][]packet.Injection{}
	for _, ri := range rec {
		if ri.Step != 0 {
			byStep[ri.Step] = append(byStep[ri.Step], packet.Injection{Route: ri.Route, Tag: ri.Tag})
		}
	}
	// horizon is StaticUntil's value after an Inject at step last.
	horizon := func(last int64) int64 {
		h := int64(sim.Forever)
		for step := range byStep {
			if step > last {
				h = min(h, step-1)
			}
		}
		return h
	}
	for k, rp := range rps {
		if got := rp.StaticUntil(); got != horizon(0) {
			t.Fatalf("replay %d fresh: StaticUntil %d, want %d", k, got, horizon(0))
		}
	}
	e := sim.New(graph.Line(1), fifo(), nil)
	for e.Now() < 64 {
		e.Step()
		now := e.Now()
		for k, rp := range rps {
			if k > 0 && rng.Intn(2) == 0 {
				continue
			}
			if got := rp.Inject(e); !reflect.DeepEqual(got, byStep[now]) {
				t.Fatalf("replay %d at t=%d: Inject %v, want %v", k, now, got, byStep[now])
			}
			if got := rp.StaticUntil(); got != horizon(now) {
				t.Fatalf("replay %d at t=%d: StaticUntil %d, want %d", k, now, got, horizon(now))
			}
		}
	}
}

package adversary

import (
	"reflect"
	"strings"
	"testing"

	"aqt/internal/graph"
	"aqt/internal/policy"
	"aqt/internal/rational"
	"aqt/internal/sim"
)

// testSource names the engines of these tests for their checkpoints.
var testSource = sim.SourceDigest([]byte("adversary checkpoint tests"))

// resume checkpoints half through the wire format and restores the
// checkpoint into fresh, which replays the prefix.
func resume(t *testing.T, half, fresh *sim.Engine) error {
	t.Helper()
	cp, err := half.Checkpoint(testSource, sim.ModeStep)
	if err != nil {
		t.Fatalf("Checkpoint at k=%d: %v", half.Now(), err)
	}
	cp2, err := sim.DecodeCheckpoint(cp.Encode())
	if err != nil {
		t.Fatalf("decode at k=%d: %v", half.Now(), err)
	}
	return fresh.Restore(cp2, testSource)
}

// splitCompare runs build() for total steps directly and as a k-split
// checkpoint/restore pair, requiring identical executions. It returns
// the restored engine for further inspection.
func splitCompare(t *testing.T, build func() *sim.Engine, total, k int64) *sim.Engine {
	t.Helper()
	direct := build()
	direct.Run(total)
	half := build()
	half.Run(k)
	resumed := build()
	if err := resume(t, half, resumed); err != nil {
		t.Fatalf("restore at k=%d: %v", k, err)
	}
	resumed.Run(total - k)
	if err := SameExecution(direct, resumed); err != nil {
		t.Fatalf("k=%d: %v", k, err)
	}
	return resumed
}

// TestScriptCheckpointAcrossCompaction: stream "a" exhausts its budget
// early and is compacted out of Script.streams; checkpoints taken both
// before and after the compaction must resume exactly.
func TestScriptCheckpointAcrossCompaction(t *testing.T) {
	g := graph.Line(6)
	build := func() *sim.Engine {
		return sim.New(g, policy.FIFO{}, NewScript(
			Stream{Name: "a", Start: 1, Rate: rational.New(1, 1), Budget: 5,
				Route: []graph.EdgeID{g.MustEdge("e1"), g.MustEdge("e2")}},
			Stream{Name: "b", Start: 40, Rate: rational.New(1, 3), Budget: -1,
				Route: []graph.EdgeID{g.MustEdge("e3"), g.MustEdge("e4")}},
		))
	}
	for _, k := range []int64{1, 3, 20, 60} { // 3: "a" live; 20: compacted, "b" unstarted; 60: "b" live
		splitCompare(t, build, 120, k)
	}
}

// TestScriptCheckpointStateErrors: a checkpoint restores only into a
// fresh engine that replays to the recorded state. A script with
// another program, or with an extra stream, reaches another state and
// fails the digest check; a script with a PreStep hook, which a state
// encoding could not carry, replays like any other.
func TestScriptCheckpointStateErrors(t *testing.T) {
	g := graph.Line(3)
	a := Stream{Name: "a", Start: 1, Rate: rational.New(1, 2), Budget: 10, Route: []graph.EdgeID{g.MustEdge("e1")}}
	mk := func(streams ...Stream) *sim.Engine { return sim.New(g, policy.FIFO{}, NewScript(streams...)) }
	half := mk(a)
	half.Run(20)

	faster := a
	faster.Rate = rational.New(2, 3)
	extra := Stream{Name: "b", Start: 1, Rate: rational.New(1, 2), Budget: 10, Route: []graph.EdgeID{g.MustEdge("e2")}}
	for name, target := range map[string]*sim.Engine{
		"other rate":   mk(faster),
		"extra stream": mk(a, extra),
	} {
		if err := resume(t, half, target); err == nil || !strings.Contains(err.Error(), "digest") {
			t.Errorf("%s: restore error %v, want a digest mismatch", name, err)
		}
	}
	ran := mk(a)
	ran.Run(1)
	if err := resume(t, half, ran); err == nil {
		t.Error("restore into an engine that has already run accepted")
	}

	hooks := 0
	withHook := func() *sim.Engine {
		s := NewScript(a)
		s.SetPreStep(func(*sim.Engine) { hooks++ })
		return sim.New(g, policy.FIFO{}, s)
	}
	splitCompare(t, withHook, 40, 20)
	if hooks != 40+20+40 {
		t.Errorf("PreStep hook ran %d times, want once per step of each run (100)", hooks)
	}
}

// TestReplayCheckpointCursor: a Replay adversary must resume from
// splits at every phase — before, during and after the recorded
// schedule.
func TestReplayCheckpointCursor(t *testing.T) {
	g := graph.Line(5)
	rec := []RecordedInjection{
		{Step: 2, Route: rt(g, "e1", "e2")},
		{Step: 2, Route: rt(g, "e2", "e3")},
		{Step: 7, Route: rt(g, "e1")},
		{Step: 31, Route: rt(g, "e3", "e4")},
	}
	build := func() *sim.Engine {
		return sim.New(g, policy.LIS{}, NewReplay(rec))
	}
	for _, k := range []int64{1, 5, 30, 50} {
		splitCompare(t, build, 80, k)
	}
}

// TestSequenceCheckpointPhases: a two-phase Sequence (paced script,
// then bursts) must resume from splits inside either phase and on the
// boundary, under step and leap replays alike.
func TestSequenceCheckpointPhases(t *testing.T) {
	g := graph.Line(5)
	build := func() *sim.Engine {
		p1End, p2End := int64(30), int64(90)
		seq := NewSequence(
			Phase{
				Name: "pump",
				Enter: func(*sim.Engine) sim.Adversary {
					return NewScript(Stream{Name: "p", Start: 1, Rate: rational.New(2, 3), Budget: -1,
						Route: rt(g, "e1", "e2")})
				},
				Done:  func(e *sim.Engine) bool { return e.Now() >= p1End },
				Until: &p1End,
			},
			Phase{
				Name: "burst",
				Enter: func(*sim.Engine) sim.Adversary {
					return NewBurstScript(BurstStream{Name: "q", Start: 1, Period: 8, Burst: 3, Budget: -1,
						Route: rt(g, "e3", "e4")})
				},
				Done:  func(e *sim.Engine) bool { return e.Now() >= p2End },
				Until: &p2End,
			},
		)
		return sim.New(g, policy.FIFO{}, seq)
	}
	for _, k := range []int64{1, 15, 30, 31, 70, 100} {
		splitCompare(t, build, 120, k)
		half := build()
		half.RunLeap(k)
		cp, err := half.Checkpoint(testSource, sim.ModeLeap)
		if err != nil {
			t.Fatal(err)
		}
		leaped := build()
		if err := leaped.Restore(cp, testSource); err != nil {
			t.Fatalf("leap replay to k=%d: %v", k, err)
		}
	}
}

// TestRandomWRCheckpointDrawReplay: a restore replays the RandomWR RNG
// draws from the seed; splits at many points must leave the value
// stream — and hence the injection schedule — untouched.
func TestRandomWRCheckpointDrawReplay(t *testing.T) {
	build := func() *sim.Engine {
		g := graph.Ring(7)
		return sim.New(g, policy.NTG{}, NewRandomWR(g, 24, rational.New(1, 3), 3, 42))
	}
	for _, k := range []int64{1, 17, 100, 399} {
		splitCompare(t, build, 400, k)
	}
}

// TestRandomWRCheckpointSeedMismatch: a checkpoint of one seed's run
// must refuse to restore into an engine whose adversary has another
// seed: the replay draws another schedule and fails the digest check.
func TestRandomWRCheckpointSeedMismatch(t *testing.T) {
	g := graph.Ring(4)
	half := sim.New(g, policy.FIFO{}, NewRandomWR(g, 10, rational.New(1, 2), 2, 7))
	half.Run(20)
	other := sim.New(g, policy.FIFO{}, NewRandomWR(g, 10, rational.New(1, 2), 2, 8))
	if err := resume(t, half, other); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Errorf("seed mismatch: restore error %v, want a digest mismatch", err)
	}
}

// TestWindowUsageRestoreRejects: a (w,r) violation whose window
// straddles the checkpoint split is still rejected after a restore —
// the validator on the resumed engine saw the replayed prefix, and its
// usage equals the straight run's.
func TestWindowUsageRestoreRejects(t *testing.T) {
	g := graph.Line(3)
	build := func() (*sim.Engine, *WindowValidator) {
		// 4 packets on e1 in steps 8..11: over floor(10·1/4) = 2 in any
		// 10-step window.
		e := sim.New(g, policy.FIFO{}, NewBurstScript(BurstStream{
			Name: "b", Start: 8, Period: 1, Burst: 1, Budget: 4, Route: rt(g, "e1")}))
		wv := NewWindowValidator(10, rational.New(1, 4))
		e.AddObserver(wv)
		return e, wv
	}
	direct, directWV := build()
	direct.Run(30)
	if directWV.Check() == nil {
		t.Fatal("straight run passed the window check; test vacuous")
	}
	half, _ := build()
	half.Run(9) // two of the four packets are in
	resumed, wv := build()
	if err := resume(t, half, resumed); err != nil {
		t.Fatal(err)
	}
	resumed.Run(21)
	if wv.Check() == nil {
		t.Error("violation straddling the split accepted after restore")
	}
	directWV.u.sortAll()
	wv.u.sortAll()
	if !reflect.DeepEqual(directWV.u.times, wv.u.times) {
		t.Errorf("window usage differs:\ndirect:  %v\nresumed: %v", directWV.u.times, wv.u.times)
	}
}

// TestAdversaryKindMismatch: Sequence and RandomWR keep the two
// state-checkpoint methods only for perfbench's wrappers, and refuse
// every state; no other adversary carries them.
func TestAdversaryKindMismatch(t *testing.T) {
	g := graph.Line(3)
	for _, a := range []sim.CheckpointableAdversary{NewSequence(), NewRandomWR(g, 4, rational.New(1, 2), 1, 1)} {
		if _, err := a.CheckpointState(); err == nil {
			t.Errorf("%T produced a state", a)
		}
		if err := a.RestoreState(nil, sim.AdversaryState{Kind: "nope", Data: []byte(`{}`)}); err == nil {
			t.Errorf("%T accepted a state", a)
		}
	}
	for _, a := range []sim.Adversary{
		NewScript(Stream{Name: "a", Start: 1, Rate: rational.New(1, 2), Budget: 1, Route: rt(g, "e1")}),
		NewBurstScript(BurstStream{Name: "b", Start: 1, Period: 2, Burst: 1, Budget: 1, Route: rt(g, "e1")}),
		NewReplay(nil),
		sim.NopAdversary{},
	} {
		if _, ok := a.(sim.CheckpointableAdversary); ok {
			t.Errorf("%T still carries the state-checkpoint methods", a)
		}
	}
}

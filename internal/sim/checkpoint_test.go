package sim_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"aqt/internal/adversary"
	"aqt/internal/graph"
	"aqt/internal/obs"
	"aqt/internal/packet"
	"aqt/internal/policy"
	"aqt/internal/rational"
	"aqt/internal/sim"
)

// burstEngine builds a small bounded line network under a burst script
// hot enough to overflow the buffers, for drop-accounting tests.
func burstEngine(pol policy.Policy, cap int, drop sim.DropPolicy) *sim.Engine {
	g := graph.Line(5)
	adv := adversary.NewBurstScript(adversary.BurstStream{
		Name: "hot", Start: 1, Period: 4, Burst: 6, Budget: -1,
		Route: []graph.EdgeID{g.MustEdge("e1"), g.MustEdge("e2"), g.MustEdge("e3")},
	})
	return sim.NewWithConfig(g, pol, adv, sim.Config{BufferCap: cap, Drop: drop})
}

// testSource names the engines of these tests; each test builds its
// engines one way, so one source serves them all.
var testSource = sim.SourceDigest([]byte("sim checkpoint tests"))

// roundTrip checkpoints e through the full wire format and restores
// onto fresh, failing the test on any stage error.
func roundTrip(t *testing.T, e, fresh *sim.Engine) {
	t.Helper()
	cp, err := e.Checkpoint(testSource, sim.ModeStep)
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	data := cp.Encode()
	if len(data) > 512 {
		t.Fatalf("checkpoint is %d bytes, want <= 512", len(data))
	}
	cp2, err := sim.DecodeCheckpoint(data)
	if err != nil {
		t.Fatalf("DecodeCheckpoint: %v", err)
	}
	if data2 := cp2.Encode(); !bytes.Equal(data, data2) {
		t.Fatal("Encode -> Decode -> Encode is not a fixed point")
	}
	if err := fresh.Restore(cp2, testSource); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if err := adversary.SameExecution(e, fresh); err != nil {
		t.Fatalf("restored engine differs at the checkpoint: %v", err)
	}
}

// TestCheckpointRoundTripUnit exercises the three structurally distinct
// engine shapes — unbounded FIFO, keyed NTG with live tombstones, and a
// bounded drop-ntg buffer with real drops — through a mid-run
// checkpoint split, requiring full execution equivalence.
func TestCheckpointRoundTripUnit(t *testing.T) {
	cases := []struct {
		name  string
		build func() *sim.Engine
	}{
		{"fifo-unbounded", func() *sim.Engine {
			g := graph.Ring(6)
			return sim.New(g, policy.FIFO{}, adversary.NewBurstScript(adversary.BurstStream{
				Name: "b", Start: 1, Period: 8, Burst: 3, Budget: -1,
				Route: []graph.EdgeID{g.MustEdge("e1"), g.MustEdge("e2")},
			}))
		}},
		{"ntg-keyed", func() *sim.Engine {
			return burstEngine(policy.NTG{}, 0, nil)
		}},
		{"lis-droptail", func() *sim.Engine {
			return burstEngine(policy.LIS{}, 2, sim.DropTail{})
		}},
		{"ntg-dropntg", func() *sim.Engine {
			return burstEngine(policy.NTG{}, 2, sim.DropNTG{})
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			const total, k = 400, 157
			direct := tc.build()
			direct.Run(total)
			half := tc.build()
			half.Run(k)
			resumed := tc.build()
			roundTrip(t, half, resumed)
			resumed.Run(total - k)
			if err := adversary.SameExecution(direct, resumed); err != nil {
				t.Fatalf("resumed run diverges: %v", err)
			}
		})
	}
}

// TestCheckpointDropAccounting is the per-edge drop property test: at
// every checkpoint split of a dropping run, the restored engine's
// DropsAt sums must equal both Stats().Drops and Dropped(), and keep
// doing so as the run continues.
func TestCheckpointDropAccounting(t *testing.T) {
	for _, k := range []int64{1, 37, 100, 250, 399} {
		k := k
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			half := burstEngine(policy.FIFO{}, 2, sim.DropTail{})
			half.Run(k)
			resumed := burstEngine(policy.FIFO{}, 2, sim.DropTail{})
			roundTrip(t, half, resumed)
			for _, stage := range []int64{0, 400 - k} {
				resumed.Run(stage)
				var sum int64
				for eid := 0; eid < resumed.Graph().NumEdges(); eid++ {
					sum += resumed.DropsAt(graph.EdgeID(eid))
				}
				if sum != resumed.Dropped() || sum != resumed.Stats().Drops {
					t.Fatalf("after +%d steps: per-edge drop sum %d, Dropped %d, Stats.Drops %d",
						stage, sum, resumed.Dropped(), resumed.Stats().Drops)
				}
			}
			if resumed.Dropped() == 0 {
				t.Fatal("workload never dropped; property vacuous")
			}
		})
	}
}

// TestCheckpointRecorderDownsampled runs a million steps with a small
// MaxSamples bound so an obs.Sampler goes through several power-of-two
// downsampling rounds, splits at an interior step, and requires the
// resumed sampler's full state — series, stride, factor, peak — to
// match the uninterrupted run exactly: the replayed prefix reaches the
// resumed engine's sampler like any other steps.
func TestCheckpointRecorderDownsampled(t *testing.T) {
	if testing.Short() {
		t.Skip("1e6-step run")
	}
	build := func() (*sim.Engine, *obs.Sampler) {
		g := graph.Ring(4)
		e := sim.New(g, policy.FIFO{}, adversary.NewBurstScript(adversary.BurstStream{
			Name: "b", Start: 1, Period: 16, Burst: 2, Budget: -1,
			Route: []graph.EdgeID{g.MustEdge("e1"), g.MustEdge("e2")},
		}))
		sam := obs.NewSampler(obs.SamplerConfig{Every: 3, MaxSamples: 64})
		sam.Attach(e)
		return e, sam
	}
	const total, k = 1_000_000, 333_333
	direct, directRec := build()
	direct.Run(total)

	half, _ := build()
	half.Run(k)
	resumed, resumedRec := build()
	roundTrip(t, half, resumed)
	resumed.Run(total - k)

	if err := adversary.SameExecution(direct, resumed); err != nil {
		t.Fatalf("resumed run diverges: %v", err)
	}
	if ds, rs := directRec.CheckpointState(), resumedRec.CheckpointState(); !reflect.DeepEqual(ds, rs) {
		t.Fatalf("sampler state differs after 1e6 steps:\ndirect:  %+v\nresumed: %+v", ds, rs)
	}
	if directRec.PeakTotal() == 0 {
		t.Fatal("run never queued a packet; peak comparison vacuous")
	}
	if directRec.EffectiveEvery() == 3 {
		t.Fatal("run never downsampled; property vacuous")
	}
}

// TestCheckpointRejections covers the restore-side error paths: a
// checkpoint must not restore onto an already-run engine or one of
// another source, an engine built differently under the same source
// fails the digest check, and corrupt documents are rejected with
// *CheckpointErrors.
func TestCheckpointRejections(t *testing.T) {
	g := graph.Line(5)
	mkAdv := func() sim.Adversary {
		return adversary.NewBurstScript(adversary.BurstStream{
			Name: "b", Start: 1, Period: 4, Burst: 2, Budget: -1,
			Route: []graph.EdgeID{g.MustEdge("e1")},
		})
	}
	src := sim.New(g, policy.FIFO{}, mkAdv())
	src.Run(50)
	cp, err := src.Checkpoint(testSource, sim.ModeStep)
	if err != nil {
		t.Fatal(err)
	}

	reject := func(name string, target *sim.Engine, source, wantSub string) {
		t.Helper()
		err := target.Restore(cp, source)
		if _, ok := err.(*sim.CheckpointError); !ok || !strings.Contains(err.Error(), wantSub) {
			t.Errorf("%s: error %v, want a *CheckpointError containing %q", name, err, wantSub)
		}
	}
	ran := sim.New(g, policy.FIFO{}, mkAdv())
	ran.Run(1)
	reject("already-run target", ran, testSource, "must not have run")
	reject("source mismatch", sim.New(g, policy.FIFO{}, mkAdv()), sim.SourceDigest([]byte("other")), "source")
	// The same source over a different build: the replay reaches
	// another state and the digest check names the step and both
	// digests.
	digest := fmt.Sprintf("state at step 50 replays to %%s, checkpoint records %s", cp.Digest)
	for name, target := range map[string]*sim.Engine{
		"policy":     sim.New(g, policy.LIS{}, mkAdv()),
		"graph":      sim.New(graph.Line(7), policy.FIFO{}, mkAdv()),
		"adversary":  sim.New(g, policy.FIFO{}, sim.NopAdversary{}),
		"buffer cap": sim.NewWithConfig(g, policy.FIFO{}, mkAdv(), sim.Config{BufferCap: 1, Drop: sim.DropTail{}}),
	} {
		if name == "policy" {
			// FIFO and LIS agree on this single-stream line; seed an
			// older packet so they part ways.
			target.Seed(packet.Injection{Route: []graph.EdgeID{g.MustEdge("e1"), g.MustEdge("e2")}, Tag: "seed"})
		}
		err := target.Restore(cp, testSource)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf(digest, target.Digest())) {
			t.Errorf("%s mismatch: error %v, want the digest mismatch at step 50", name, err)
		}
	}

	corrupt := []struct {
		name, doc, wantSub string
	}{
		{"bad version", `{"version": 9}`, "version"},
		{"retired version", `{"version": 1, "num_nodes": 2, "engine": {}}`, "version 1"},
		{"trailing data", string(cp.Encode()) + `{"x":1}`, "trailing"},
		{"unknown field", `{"version": 4, "bogus": true}`, "bogus"},
		{"negative step", strings.Replace(string(cp.Encode()), `"step": 50`, `"step": -50`, 1), "negative step"},
		{"unknown mode", strings.Replace(string(cp.Encode()), `"mode": "step"`, `"mode": "warp"`, 1), "warp"},
		{"short digest", strings.Replace(string(cp.Encode()), cp.Digest, cp.Digest[:10], 1), "digest"},
		{"upper-case source", strings.Replace(string(cp.Encode()), cp.Source, strings.ToUpper(cp.Source), 1), "source"},
		{"oversized", `{"version": 4, "source": "` + strings.Repeat("0", 5000) + `"}`, "limit"},
	}
	for _, tc := range corrupt {
		_, err := sim.DecodeCheckpoint([]byte(tc.doc))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if _, ok := err.(*sim.CheckpointError); !ok {
			t.Errorf("%s: error is %T, want *CheckpointError: %v", tc.name, err, err)
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q missing %q", tc.name, err, tc.wantSub)
		}
	}
}

// TestCheckpointMidStepRefused: an engine inside a step's substeps (an
// injection hook fires mid-inject) must refuse to checkpoint rather
// than name a state no replay stops at. OnStep, by contrast, fires
// between steps, where checkpointing is legal.
func TestCheckpointMidStepRefused(t *testing.T) {
	g := graph.Line(3)
	adv := adversary.NewBurstScript(adversary.BurstStream{
		Name: "b", Start: 1, Period: 1, Burst: 1, Budget: -1,
		Route: []graph.EdgeID{g.MustEdge("e1")},
	})
	e := sim.New(g, policy.FIFO{}, adv)
	var midErr, stepErr error
	e.AddObserver(&injProbe{onInject: func(en *sim.Engine) {
		_, midErr = en.Checkpoint(testSource, sim.ModeStep)
	}, onStep: func(en *sim.Engine) {
		_, stepErr = en.Checkpoint(testSource, sim.ModeStep)
	}, e: e})
	e.Run(2)
	if midErr == nil || !strings.Contains(midErr.Error(), "mid-step") {
		t.Fatalf("mid-inject checkpoint error = %v, want mid-step refusal", midErr)
	}
	if stepErr != nil {
		t.Fatalf("between-steps checkpoint refused: %v", stepErr)
	}
}

type injProbe struct {
	e        *sim.Engine
	onInject func(*sim.Engine)
	onStep   func(*sim.Engine)
}

func (p *injProbe) OnStep(e *sim.Engine)               { p.onStep(e) }
func (p *injProbe) OnInject(t int64, _ *packet.Packet) { p.onInject(p.e) }

// TestCheckpointRandomWindowed round-trips the RandomWR adversary plus
// a ladder of WindowValidators, across several split points: the
// restored run must match the direct run, the validator at the
// adversary's own (w,r) must pass, and every tighter one must reach the
// direct run's verdict — the replayed prefix reaches the validators
// like any other injections.
func TestCheckpointRandomWindowed(t *testing.T) {
	const total, w = 600, 40
	rates := []rational.Rat{rational.New(1, 2), rational.New(2, 5), rational.New(1, 3), rational.New(1, 4)}
	build := func() (*sim.Engine, []*adversary.WindowValidator) {
		g := graph.Ring(8)
		e := sim.New(g, policy.LIS{}, adversary.NewRandomWR(g, w, rates[0], 4, 99))
		var wvs []*adversary.WindowValidator
		for _, r := range rates {
			wv := adversary.NewWindowValidator(w, r)
			e.AddObserver(wv)
			wvs = append(wvs, wv)
		}
		return e, wvs
	}
	verdicts := func(wvs []*adversary.WindowValidator) (v []bool) {
		for _, wv := range wvs {
			v = append(v, wv.Check() == nil)
		}
		return v
	}
	direct, directWVs := build()
	direct.Run(total)
	want := verdicts(directWVs)
	if !want[0] || want[len(want)-1] {
		t.Fatalf("verdicts %v: want the adversary's own rate to pass and the tightest to fail", want)
	}
	for _, k := range []int64{1, 299, 599} {
		half, _ := build()
		half.Run(k)
		resumed, wvs := build()
		roundTrip(t, half, resumed)
		resumed.Run(total - k)
		if err := adversary.SameExecution(direct, resumed); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if got := verdicts(wvs); !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: validator verdicts %v, direct run's %v", k, got, want)
		}
	}
}

// TestCheckpointDeterministicEncoding: two checkpoints of identical
// runs must encode byte-identically (the format has no map iteration,
// timestamps or other nondeterminism), across random workloads, and
// runs of different lengths must not.
func TestCheckpointDeterministicEncoding(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		steps := int64(100 + rng.Intn(400))
		build := func() *sim.Engine {
			return burstEngine(policy.NTG{}, 3, sim.DropNTG{})
		}
		a, b := build(), build()
		a.Run(steps)
		b.Run(steps)
		ca, errA := a.Checkpoint(testSource, sim.ModeQuiet)
		cb, errB := b.Checkpoint(testSource, sim.ModeQuiet)
		if errA != nil || errB != nil {
			t.Fatalf("seed %d: %v / %v", seed, errA, errB)
		}
		if !bytes.Equal(ca.Encode(), cb.Encode()) {
			t.Fatalf("seed %d: identical runs encode differently", seed)
		}
		b.Run(1)
		if b.Digest() == ca.Digest {
			t.Fatalf("seed %d: one more step left the digest unchanged", seed)
		}
	}
}

// TestDigestTracksSameExecution: the digest covers what
// adversary.SameExecution compares — equal for the same execution under
// every run mode, different as soon as one queued packet differs.
func TestDigestTracksSameExecution(t *testing.T) {
	ref := burstEngine(policy.LIS{}, 2, sim.DropTail{})
	ref.Run(300)
	for _, mode := range []string{sim.ModeStep, sim.ModeQuiet, sim.ModeLeap} {
		e := burstEngine(policy.LIS{}, 2, sim.DropTail{})
		if err := e.RunMode(mode, 300); err != nil {
			t.Fatal(err)
		}
		if err := adversary.SameExecution(ref, e); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if e.Digest() != ref.Digest() {
			t.Errorf("%s: digest differs on the same execution", mode)
		}
	}
	if err := (&sim.Engine{}).RunMode("warp", 1); err == nil {
		t.Error(`RunMode accepted mode "warp"`)
	}
	// Same counters, one packet's tag differs.
	g := graph.Line(3)
	a, b := sim.New(g, policy.FIFO{}, sim.NopAdversary{}), sim.New(g, policy.FIFO{}, sim.NopAdversary{})
	a.Seed(packet.Injection{Route: []graph.EdgeID{g.MustEdge("e1")}, Tag: "x"})
	b.Seed(packet.Injection{Route: []graph.EdgeID{g.MustEdge("e1")}, Tag: "y"})
	if adversary.SameExecution(a, b) == nil || a.Digest() == b.Digest() {
		t.Error("engines differing in one packet's tag share a digest")
	}
}

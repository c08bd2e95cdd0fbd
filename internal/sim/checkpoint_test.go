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

// roundTrip checkpoints e through the full wire format and restores
// onto fresh, failing the test on any stage error.
func roundTrip(t *testing.T, e, fresh *sim.Engine) {
	t.Helper()
	cp, err := e.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	data := cp.Encode()
	cp2, err := sim.DecodeCheckpoint(data)
	if err != nil {
		t.Fatalf("DecodeCheckpoint: %v", err)
	}
	if data2 := cp2.Encode(); !bytes.Equal(data, data2) {
		t.Fatal("Encode -> Decode -> Encode is not a fixed point")
	}
	if err := fresh.Restore(cp2); err != nil {
		t.Fatalf("Restore: %v", err)
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
// match the uninterrupted run exactly.
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

	half, halfRec := build()
	half.Run(k)
	cp, err := half.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	recState := halfRec.CheckpointState()

	resumed, resumedRec := build()
	if err := resumed.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if err := resumedRec.RestoreState(recState); err != nil {
		t.Fatal(err)
	}
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
// checkpoint must not restore onto a mismatched or already-run engine,
// and corrupt documents must be rejected with positioned errors.
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
	cp, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	reject := func(name string, target *sim.Engine, wantSub string) {
		t.Helper()
		err := target.Restore(cp)
		if err == nil || !strings.Contains(err.Error(), wantSub) {
			t.Errorf("%s: error %v, want substring %q", name, err, wantSub)
		}
	}
	ran := sim.New(g, policy.FIFO{}, mkAdv())
	ran.Run(1)
	reject("already-run target", ran, "must not have run")
	reject("policy mismatch", sim.New(g, policy.LIS{}, mkAdv()), "policy mismatch")
	reject("graph mismatch", sim.New(graph.Line(7), policy.FIFO{}, mkAdv()), "graph mismatch")
	reject("adversary mismatch", sim.New(g, policy.FIFO{}, sim.NopAdversary{}), `want "nop"`)
	bounded := sim.NewWithConfig(g, policy.FIFO{}, mkAdv(), sim.Config{BufferCap: 4, Drop: sim.DropTail{}})
	reject("buffer-cap mismatch", bounded, "buffer cap mismatch")

	// Seeded-but-not-run targets are legal: seeds are wiped.
	seeded := sim.New(g, policy.FIFO{}, mkAdv())
	seeded.Seed(packet.Injection{Route: []graph.EdgeID{g.MustEdge("e1"), g.MustEdge("e2")}, Tag: "seed"})
	if err := seeded.Restore(cp); err != nil {
		t.Fatalf("seeded target refused: %v", err)
	}
	if err := adversary.SameExecution(src, seeded); err != nil {
		t.Fatalf("restore over seeds diverges: %v", err)
	}

	corrupt := []struct {
		name, doc, wantSub string
	}{
		{"bad version", `{"version": 9}`, "version"},
		{"trailing data", cpString(cp) + `{"x":1}`, "trailing"},
		{"unknown field", `{"version": 1, "bogus": true}`, "bogus"},
		{"negative counter", `{"version": 1, "num_nodes": 2, "num_edges": 1, "policy": "FIFO", "injected": -3}`, "negative"},
		{"drops mismatch", `{"version": 1, "num_nodes": 2, "num_edges": 1, "policy": "FIFO",
		  "now": 1, "started": true, "dropped": 2, "stats": {"steps": 1}}`, "drop"},
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

func cpString(cp *sim.Checkpoint) string { return string(cp.Encode()) }

// TestCheckpointMidStepRefused: an engine inside a step's substeps (an
// injection hook fires mid-inject) must refuse to checkpoint rather
// than serialize a state no restore could make consistent. OnStep, by
// contrast, fires between steps, where checkpointing is legal.
func TestCheckpointMidStepRefused(t *testing.T) {
	g := graph.Line(3)
	adv := adversary.NewBurstScript(adversary.BurstStream{
		Name: "b", Start: 1, Period: 1, Burst: 1, Budget: -1,
		Route: []graph.EdgeID{g.MustEdge("e1")},
	})
	e := sim.New(g, policy.FIFO{}, adv)
	var midErr, stepErr error
	e.AddObserver(&injProbe{onInject: func(en *sim.Engine) {
		_, midErr = en.Checkpoint()
	}, onStep: func(en *sim.Engine) {
		_, stepErr = en.Checkpoint()
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
// its WindowValidator: the restored run must match the direct run and
// both validators must agree, across several split points.
func TestCheckpointRandomWindowed(t *testing.T) {
	const total = 600
	build := func() (*sim.Engine, *adversary.RandomWR, *adversary.WindowValidator) {
		g := graph.Ring(8)
		w, rate := int64(40), rational.New(1, 2)
		adv := adversary.NewRandomWR(g, w, rate, 4, 99)
		wv := adversary.NewWindowValidator(w, rate)
		e := sim.New(g, policy.LIS{}, adv)
		e.AddObserver(wv)
		return e, adv, wv
	}
	direct, _, directWV := build()
	direct.Run(total)
	for _, k := range []int64{1, 299, 599} {
		half, _, halfWV := build()
		half.Run(k)
		cp, err := half.Checkpoint()
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		us := halfWV.UsageState()
		resumed, _, resumedWV := build()
		if err := resumed.Restore(cp); err != nil {
			t.Fatalf("k=%d: restore: %v", k, err)
		}
		if err := resumedWV.RestoreUsage(us); err != nil {
			t.Fatalf("k=%d: restore usage: %v", k, err)
		}
		resumed.Run(total - k)
		if err := adversary.SameExecution(direct, resumed); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !reflect.DeepEqual(directWV.UsageState(), resumedWV.UsageState()) {
			t.Fatalf("k=%d: window usage diverged", k)
		}
		if err := resumedWV.Check(); err != nil {
			t.Fatalf("k=%d: restored run violates its own window bound: %v", k, err)
		}
	}
}

// TestCheckpointDeterministicEncoding: two checkpoints of identical
// runs must encode byte-identically (the format has no map iteration,
// timestamps or other nondeterminism), across random workloads.
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
		ca, errA := a.Checkpoint()
		cb, errB := b.Checkpoint()
		if errA != nil || errB != nil {
			t.Fatalf("seed %d: %v / %v", seed, errA, errB)
		}
		if !bytes.Equal(ca.Encode(), cb.Encode()) {
			t.Fatalf("seed %d: identical runs encode differently", seed)
		}
	}
}

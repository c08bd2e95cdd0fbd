package scenario

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"aqt/internal/adversary"
	"aqt/internal/graph"
	"aqt/internal/policy"
	"aqt/internal/sim"
)

// buildFresh builds an independent instance of base (checks kept; they
// are never evaluated here — the comparison is about execution state).
func buildFresh(t *testing.T, base *Spec) *Built {
	t.Helper()
	s := *base
	b, err := Build(&s)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return b
}

// runSegment advances b.Engine by n steps under mode.
func runSegment(t *testing.T, b *Built, mode string, n int64) {
	t.Helper()
	if n == 0 {
		return
	}
	switch mode {
	case ModeStep:
		b.Engine.Run(n)
	case ModeQuiet:
		b.Engine.RunQuiet(n)
	case ModeLeap:
		b.Engine.RunLeap(n)
	default:
		t.Fatalf("unknown mode %q", mode)
	}
}

// requireSameObservers compares every observer's externally observable
// state between the reference run and the resumed run.
func requireSameObservers(t *testing.T, label string, ref, got *Built) {
	t.Helper()
	if ref.Window != nil {
		if !reflect.DeepEqual(ref.Window.UsageState(), got.Window.UsageState()) {
			t.Errorf("%s: window usage differs", label)
		}
		re, ge := ref.Window.Check(), got.Window.Check()
		if (re == nil) != (ge == nil) || (re != nil && re.Error() != ge.Error()) {
			t.Errorf("%s: window verdict differs: ref=%v got=%v", label, re, ge)
		}
	}
	if ref.Meter != nil {
		rs, gs := ref.Meter.Registry().State(), got.Meter.Registry().State()
		if !reflect.DeepEqual(rs, gs) {
			t.Errorf("%s: meter registry differs:\nref: %+v\ngot: %+v", label, rs, gs)
		}
	}
	if ref.Sampler != nil {
		rs, gs := ref.Sampler.CheckpointState(), got.Sampler.CheckpointState()
		if !reflect.DeepEqual(rs, gs) {
			t.Errorf("%s: sampler state differs:\nref: %+v\ngot: %+v", label, rs, gs)
		}
	}
	if ref.Spans != nil {
		rs, gs := ref.Spans.CheckpointState(), got.Spans.CheckpointState()
		if !reflect.DeepEqual(rs, gs) {
			t.Errorf("%s: span tracer state differs:\nref: %+v\ngot: %+v", label, rs, gs)
		}
	}
}

// checkpointSplit runs base for k steps, checkpoints through the full
// wire format (Encode -> DecodeCheckpoint -> Encode fixed point), then
// restores onto a fresh build and runs the remaining total-k steps.
func checkpointSplit(t *testing.T, base *Spec, mode string, k, total int64) *Built {
	t.Helper()
	a := buildFresh(t, base)
	runSegment(t, a, mode, k)
	cp, err := a.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint at k=%d: %v", k, err)
	}
	data := cp.Encode()
	cp2, err := DecodeCheckpoint("mem.ckpt", data)
	if err != nil {
		t.Fatalf("DecodeCheckpoint at k=%d: %v", k, err)
	}
	if data2 := cp2.Encode(); !bytes.Equal(data, data2) {
		t.Fatalf("k=%d: Encode -> Decode -> Encode is not a fixed point", k)
	}
	b := buildFresh(t, base)
	if err := b.Restore(cp2); err != nil {
		t.Fatalf("Restore at k=%d: %v", k, err)
	}
	runSegment(t, b, mode, total-k)
	return b
}

// TestCheckpointResumeCorpus is the resume-equivalence acceptance gate:
// for every checked-in scenario, every run mode, and a fan of split
// points k (first step, last step, and a spec-seeded random interior
// point), run(T) and run(k); save; load; run(T-k) must agree on the
// full equivalence contract — snapshot modulo Nanos, per-edge queues
// packet by packet, max residence — and on every configured observer's
// state. Leap-window statistics are deliberately NOT compared: a
// checkpoint boundary legitimately splits a leap window in two.
func TestCheckpointResumeCorpus(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no scenario corpus (run `go run ./cmd/aqt scenario emit`): %v", err)
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			base := parseSpecFile(t, path)
			total := base.Run.Steps
			for _, mode := range []string{ModeStep, ModeQuiet, ModeLeap} {
				ref := buildFresh(t, base)
				runSegment(t, ref, mode, total)
				h := fnv.New64a()
				fmt.Fprintf(h, "%s/%s", base.Name, mode)
				rng := rand.New(rand.NewSource(int64(h.Sum64())))
				ks := []int64{1, total - 1, 1 + rng.Int63n(total)}
				for _, k := range ks {
					label := fmt.Sprintf("%s/k=%d", mode, k)
					got := checkpointSplit(t, base, mode, k, total)
					if err := adversary.SameExecution(ref.Engine, got.Engine); err != nil {
						t.Errorf("%s: resumed run diverges: %v", label, err)
					}
					requireSameObservers(t, label, ref, got)
				}
			}
		})
	}
}

// TestCheckpointResumeTelemetryObservers extends the corpus resume
// gate to the PR 10 telemetry observers: every checked-in scenario is
// re-run with "sampler" and "spans" added to its observer set, split
// at an interior step through the full checkpoint wire format, and the
// resumed run must reproduce the straight run's sampler series and
// span tracer state bit for bit (on top of the engine equivalence).
func TestCheckpointResumeTelemetryObservers(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no scenario corpus (run `go run ./cmd/aqt scenario emit`): %v", err)
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			base := parseSpecFile(t, path)
			obsList := append([]string{}, base.Run.Observers...)
			for _, extra := range []string{ObsSampler, ObsSpans} {
				seen := false
				for _, name := range obsList {
					if name == extra {
						seen = true
					}
				}
				if !seen {
					obsList = append(obsList, extra)
				}
			}
			base.Run.Observers = obsList
			total := base.Run.Steps
			for _, mode := range []string{ModeStep, ModeLeap} {
				ref := buildFresh(t, base)
				if ref.Sampler == nil || ref.Spans == nil {
					t.Fatal("telemetry observers not built")
				}
				runSegment(t, ref, mode, total)
				h := fnv.New64a()
				fmt.Fprintf(h, "telemetry/%s/%s", base.Name, mode)
				rng := rand.New(rand.NewSource(int64(h.Sum64())))
				for _, k := range []int64{1, 1 + rng.Int63n(total)} {
					label := fmt.Sprintf("%s/k=%d", mode, k)
					got := checkpointSplit(t, base, mode, k, total)
					if err := adversary.SameExecution(ref.Engine, got.Engine); err != nil {
						t.Errorf("%s: resumed run diverges: %v", label, err)
					}
					requireSameObservers(t, label, ref, got)
				}
			}
		})
	}
}

// TestCheckpointedRunMatchesRunMode drives the segmented runner the
// CLI uses (-checkpoint-every) across the corpus and requires the same
// Outcome as a straight RunMode, modulo leap-window accounting.
func TestCheckpointedRunMatchesRunMode(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no scenario corpus: %v", err)
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			base := parseSpecFile(t, path)
			for _, mode := range []string{ModeStep, ModeLeap} {
				ref := buildFresh(t, base)
				want := ref.RunMode(mode)
				seg := buildFresh(t, base)
				saves := 0
				got, err := seg.RunCheckpointed(mode, base.Run.Steps/3+1, func(cp *Checkpoint, step int64) error {
					saves++
					if cp.Scenario != base.Name {
						return fmt.Errorf("checkpoint names %q", cp.Scenario)
					}
					return nil
				})
				if err != nil {
					t.Fatalf("%s: RunCheckpointed: %v", mode, err)
				}
				if saves == 0 {
					t.Fatalf("%s: save callback never invoked", mode)
				}
				got.Leaps, want.Leaps = sim.LeapStats{}, sim.LeapStats{}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s: outcome differs:\nwant: %+v\ngot:  %+v", mode, want, got)
				}
				if err := adversary.SameExecution(ref.Engine, seg.Engine); err != nil {
					t.Errorf("%s: segmented run diverges: %v", mode, err)
				}
			}
		})
	}
}

// TestCheckpointRandomAdversaryDifferential mirrors the leap engine's
// randomized harness (sim.TestLeapRandomDifferential): random line and
// ring topologies, random burst scripts, all three policy families —
// but here the differential is a checkpoint/restore split at a random
// interior step, through the engine-level wire format, with the
// resumed half running under a randomly chosen mode. Runs under -race
// via `make race`.
func TestCheckpointRandomAdversaryDifferential(t *testing.T) {
	pols := []policy.Policy{policy.FIFO{}, policy.LIS{}, policy.NTG{}}
	for seed := int64(1); seed <= 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			var g *graph.Graph
			n := 4 + rng.Intn(12)
			if rng.Intn(2) == 0 {
				g = graph.Line(n)
			} else {
				g = graph.Ring(n)
			}
			streams := make([]adversary.BurstStream, 1+rng.Intn(3))
			for i := range streams {
				first := rng.Intn(g.NumEdges())
				routeLen := 1 + rng.Intn(3)
				route := []graph.EdgeID{graph.EdgeID(first)}
				for len(route) < routeLen {
					outs := g.Out(g.Edge(route[len(route)-1]).To)
					if len(outs) == 0 {
						break
					}
					route = append(route, outs[rng.Intn(len(outs))])
				}
				streams[i] = adversary.BurstStream{
					Name:   fmt.Sprintf("s%d", i),
					Start:  1 + int64(rng.Intn(200)),
					Period: 16 + int64(rng.Intn(240)),
					Burst:  1 + int64(rng.Intn(40)),
					Budget: []int64{-1, 20 + int64(rng.Intn(200))}[rng.Intn(2)],
					Route:  route,
				}
			}
			pol := pols[rng.Intn(len(pols))]
			steps := int64(500 + rng.Intn(1500))
			k := 1 + rng.Int63n(steps-1)
			mode := []string{ModeStep, ModeLeap}[rng.Intn(2)]

			direct := sim.New(g, pol, adversary.NewBurstScript(streams...))
			direct.Run(steps)

			half := sim.New(g, pol, adversary.NewBurstScript(streams...))
			half.Run(k)
			cp, err := half.Checkpoint()
			if err != nil {
				t.Fatalf("engine checkpoint at k=%d: %v", k, err)
			}
			data := cp.Encode()
			cp2, err := sim.DecodeCheckpoint(data)
			if err != nil {
				t.Fatalf("engine decode at k=%d: %v", k, err)
			}
			if data2 := cp2.Encode(); !bytes.Equal(data, data2) {
				t.Fatalf("k=%d: engine Encode -> Decode -> Encode is not a fixed point", k)
			}
			resumed := sim.New(g, pol, adversary.NewBurstScript(streams...))
			if err := resumed.Restore(cp2); err != nil {
				t.Fatalf("engine restore at k=%d: %v", k, err)
			}
			if mode == ModeLeap {
				resumed.RunLeap(steps - k)
			} else {
				resumed.Run(steps - k)
			}
			if err := adversary.SameExecution(direct, resumed); err != nil {
				t.Errorf("seed=%d k=%d mode=%s: %v", seed, k, mode, err)
			}
		})
	}
}

// TestCheckpointRejectsStaleAndHostile: a version-1 document (which
// carried the retired "recorder" state) and a sampler state whose
// every×factor overflows to zero are both refused with errors — the
// latter used to restore and then panic with a divide by zero on the
// next step.
func TestCheckpointRejectsStaleAndHostile(t *testing.T) {
	base := parseSpecFile(t, filepath.Join("..", "..", "scenarios", "quickstart.json"))
	a := buildFresh(t, base)
	a.Engine.Run(100)
	cp, err := a.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	stale := *cp
	stale.Version = 1
	if _, err := DecodeCheckpoint("stale.ckpt", stale.Encode()); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Errorf("version-1 checkpoint: error %v, want an unsupported-version error", err)
	}
	if err := buildFresh(t, base).Restore(&stale); err == nil {
		t.Error("Restore accepted a version-1 checkpoint")
	}

	hostile, err := DecodeCheckpoint("hostile.ckpt", cp.Encode())
	if err != nil {
		t.Fatal(err)
	}
	hostile.Sampler.Every, hostile.Sampler.Factor = 4, 1<<62
	b := buildFresh(t, base)
	if err := b.Restore(hostile); err == nil {
		t.Fatal("Restore accepted a sampler state whose stride overflows")
	}
}

// parseSpecFile loads and parses one corpus spec.
func parseSpecFile(t *testing.T, path string) *Spec {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Parse(filepath.Base(path), data)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestLatencyAliasBuildsOneMeter: "latency" is an alias of "meter", so
// listing both builds and attaches a single meter — its registry then
// matches a "meter"-only build exactly, with one latency observation
// per absorbed packet and one backlog observation per step.
func TestLatencyAliasBuildsOneMeter(t *testing.T) {
	base := parseSpecFile(t, filepath.Join("..", "..", "scenarios", "quickstart.json"))
	build := func(observers ...string) *Built {
		s := *base
		s.Run.Observers = observers
		s.Run.Mode = ModeStep
		s.Checks = nil
		b, err := Build(&s)
		if err != nil {
			t.Fatalf("Build %v: %v", observers, err)
		}
		b.Run()
		return b
	}
	both, only := build(ObsLatency, ObsMeter), build(ObsMeter)
	if both.Meter == nil {
		t.Fatal(`["latency", "meter"] built no meter`)
	}
	ls := both.Meter.LatencySnapshot()
	if ls.Count != both.Engine.Absorbed() || ls.Count == 0 {
		t.Errorf("latency count %d, want one per absorbed packet (%d)", ls.Count, both.Engine.Absorbed())
	}
	qs, _ := both.Meter.Registry().Snapshot().Histogram("sim.queue_total")
	if qs.Count != both.Engine.Now() {
		t.Errorf("sim.queue_total count %d, want one per step (%d)", qs.Count, both.Engine.Now())
	}
	if rb, ro := both.Meter.Registry().State(), only.Meter.Registry().State(); !reflect.DeepEqual(rb, ro) {
		t.Errorf(`["latency", "meter"] registry differs from ["meter"]:\nboth: %+v\nonly: %+v`, rb, ro)
	}
}

// TestCheckpointRejectsRetiredLatency: version 3 dropped the
// per-packet "latency" list and its "has_latency" flag. A version-2
// document, or a current one still carrying a latency field, is
// refused with a positioned error — never a panic.
func TestCheckpointRejectsRetiredLatency(t *testing.T) {
	base := parseSpecFile(t, filepath.Join("..", "..", "scenarios", "quickstart.json"))
	a := buildFresh(t, base)
	a.Engine.Run(100)
	cp, err := a.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	cur := cp.Encode()
	v2 := bytes.Replace(cur, []byte(`"version": 3,`), []byte(`"version": 2,`), 1)
	if bytes.Equal(v2, cur) {
		t.Fatal("fixture: version field not found")
	}
	if !strings.Contains(string(cur), `"meter"`) {
		t.Fatal(`fixture: the "latency" observer should checkpoint as "meter"`)
	}
	v2Latency := bytes.Replace(v2, []byte(`  "meter"`), []byte(`  "has_latency": true,
  "latency": [3, 4],
  "meter"`), 1)
	for name, doc := range map[string][]byte{
		"version 2":              v2,
		"version 2 with latency": v2Latency,
		"version 3 with latency": bytes.Replace(cur, []byte(`  "meter"`), []byte(`  "latency": [3, 4],
  "meter"`), 1),
		"version 3 with has_latency": bytes.Replace(cur, []byte(`  "meter"`), []byte(`  "has_latency": true,
  "meter"`), 1),
	} {
		_, err := DecodeCheckpoint("retired.ckpt", doc)
		var se *Error
		if !errors.As(err, &se) {
			t.Errorf("%s: error %v, want a positioned *Error", name, err)
		}
	}
	stale := *cp
	stale.Version = 2
	if err := buildFresh(t, base).Restore(&stale); err == nil || !strings.Contains(err.Error(), "version 2") {
		t.Errorf("Restore of a version-2 checkpoint: error %v, want an unsupported-version error", err)
	}
}

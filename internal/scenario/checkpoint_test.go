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
	"aqt/internal/obs"
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
	if err := b.Engine.RunMode(mode, n); err != nil {
		t.Fatal(err)
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

// requireSameObservers compares every observer's externally observable
// state between the reference run and the resumed run.
func requireSameObservers(t *testing.T, label string, ref, got *Built) {
	t.Helper()
	if ref.Window != nil {
		re, ge := ref.Window.Check(), got.Window.Check()
		if (re == nil) != (ge == nil) {
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
		rs, gs := viewOf(ref.Spans), viewOf(got.Spans)
		if !reflect.DeepEqual(rs, gs) {
			t.Errorf("%s: span tracer state differs:\nref: %+v\ngot: %+v", label, rs, gs)
		}
	}
}

// checkpointSplit runs base for k steps under mode, checkpoints through
// the full wire format (Encode -> DecodeCheckpoint -> Encode fixed
// point), then restores onto a fresh build, which replays the k steps
// under mode, and runs the remaining total-k steps.
func checkpointSplit(t *testing.T, base *Spec, mode string, k, total int64) *Built {
	t.Helper()
	a := buildFresh(t, base)
	runSegment(t, a, mode, k)
	cp, err := a.checkpoint(mode)
	if err != nil {
		t.Fatalf("Checkpoint at k=%d: %v", k, err)
	}
	data := cp.Encode()
	if len(data) > 512 {
		t.Fatalf("k=%d: checkpoint is %d bytes, want <= 512", k, len(data))
	}
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
	if err := adversary.SameExecution(a.Engine, b.Engine); err != nil {
		t.Fatalf("k=%d: restored build differs at the checkpoint: %v", k, err)
	}
	runSegment(t, b, mode, total-k)
	return b
}

// TestCheckpointResumeCorpus is the resume-equivalence acceptance gate:
// for every checked-in scenario, every run mode, and four split points
// k (first step, midpoint, last step, and a spec-seeded random interior
// point), run(T) and run(k); save; load (replaying k); run(T-k) must
// agree on the Outcome (snapshot, max residence, check results) and on
// the full equivalence contract — snapshot modulo Nanos, per-edge queues
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
				want := ref.outcome(mode)
				want.Leaps = sim.LeapStats{}
				h := fnv.New64a()
				fmt.Fprintf(h, "%s/%s", base.Name, mode)
				rng := rand.New(rand.NewSource(int64(h.Sum64())))
				ks := []int64{1, total / 2, total - 1, 1 + rng.Int63n(total)}
				for _, k := range ks {
					label := fmt.Sprintf("%s/k=%d", mode, k)
					got := checkpointSplit(t, base, mode, k, total)
					if err := adversary.SameExecution(ref.Engine, got.Engine); err != nil {
						t.Errorf("%s: resumed run diverges: %v", label, err)
					}
					requireSameObservers(t, label, ref, got)
					out := got.outcome(mode)
					out.Leaps = sim.LeapStats{}
					if !reflect.DeepEqual(out, want) {
						t.Errorf("%s: outcome differs:\nwant: %+v\ngot:  %+v", label, want, out)
					}
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
					if cp.Source != seg.source() || cp.Mode != mode || cp.Step != step || cp.Digest != seg.Engine.Digest() {
						return fmt.Errorf("checkpoint %+v does not name step %d of this %s run", cp, step, mode)
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
// interior step, through the engine-level wire format, with the prefix
// replayed and the rest run under randomly chosen modes. Runs under
// -race via `make race`.
func TestCheckpointRandomAdversaryDifferential(t *testing.T) {
	pols := []policy.Policy{policy.FIFO{}, policy.LIS{}, policy.NTG{}}
	modes := []string{ModeStep, ModeQuiet, ModeLeap}
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
			pre, post := modes[rng.Intn(3)], modes[rng.Intn(3)]
			source := sim.SourceDigest([]byte(fmt.Sprintf("differential seed %d", seed)))

			direct := sim.New(g, pol, adversary.NewBurstScript(streams...))
			direct.Run(steps)

			half := sim.New(g, pol, adversary.NewBurstScript(streams...))
			if err := half.RunMode(pre, k); err != nil {
				t.Fatal(err)
			}
			cp, err := half.Checkpoint(source, pre)
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
			if err := resumed.Restore(cp2, source); err != nil {
				t.Fatalf("engine restore at k=%d: %v", k, err)
			}
			if err := resumed.RunMode(post, steps-k); err != nil {
				t.Fatal(err)
			}
			if err := adversary.SameExecution(direct, resumed); err != nil {
				t.Errorf("seed=%d k=%d modes=%s/%s: %v", seed, k, pre, post, err)
			}
		})
	}
}

// TestCheckpointRejectsStaleAndHostile: every document that does not
// name a state this build replays to is refused with an error — never
// a panic, never a silent resume.
func TestCheckpointRejectsStaleAndHostile(t *testing.T) {
	path := filepath.Join("..", "..", "scenarios", "quickstart.json")
	base := parseSpecFile(t, path)
	a := buildFresh(t, base)
	a.Engine.Run(100)
	cp, err := a.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	doc := string(cp.Encode())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Spec A with one byte changed: the warm-up burst sends 4, not 3.
	edited := bytes.Replace(data, []byte(`"burst": 3,`), []byte(`"burst": 4,`), 1)
	if bytes.Equal(edited, data) {
		t.Fatal("fixture: burst field not found")
	}
	editedSpec, err := Parse("edited.json", edited)
	if err != nil {
		t.Fatal(err)
	}
	ran := buildFresh(t, base)
	ran.Engine.Run(1)
	flipped := []byte(cp.Digest)
	flipped[0] = "10"[min(int(flipped[0]-'0'), 1)] // another hex digit
	for _, tc := range []struct {
		name, doc string
		into      *Built
		wantSub   string
	}{
		{"spec with one byte changed", doc, buildFresh(t, editedSpec), "source"},
		{"step beyond run.steps", strings.Replace(doc, `"step": 100`, fmt.Sprintf(`"step": %d`, base.Run.Steps+1), 1), nil, "beyond"},
		{"negative step", strings.Replace(doc, `"step": 100`, `"step": -100`, 1), nil, "negative step"},
		{"unknown mode", strings.Replace(doc, `"mode": "leap"`, `"mode": "warp"`, 1), nil, "warp"},
		{"flipped digest", strings.Replace(doc, cp.Digest, string(flipped), 1), nil, "state at step 100 replays to " + cp.Digest},
		{"version 1", strings.Replace(doc, `"version": 4`, `"version": 1`, 1), nil, "version 1"},
		{"version 2", strings.Replace(doc, `"version": 4`, `"version": 2`, 1), nil, "version 2"},
		{"version 3", strings.Replace(doc, `"version": 4`, `"version": 3`, 1), nil, "version 3"},
		{"build that has already run", doc, ran, "must not have run"},
	} {
		if tc.doc == doc && tc.into == nil {
			t.Fatalf("%s: fixture left the document unchanged", tc.name)
		}
		into := tc.into
		if into == nil {
			into = buildFresh(t, base)
		}
		got, err := DecodeCheckpoint("hostile.ckpt", []byte(tc.doc))
		if err == nil {
			err = into.Restore(got)
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.wantSub)
		}
	}
	if err := buildFresh(t, base).Restore(cp); err != nil {
		t.Errorf("the unaltered checkpoint no longer restores: %v", err)
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

// TestCheckpointRejectsRetiredLatency: versions 1–3 carried engine,
// adversary and observer state — version 2 also a per-packet "latency"
// list and its "has_latency" flag. Every such document, and a current
// one carrying a retired field, is refused with a positioned *Error
// that names the version where there is one — never a panic.
func TestCheckpointRejectsRetiredLatency(t *testing.T) {
	for name, doc := range map[string]string{
		"version 1":  `{"version": 1, "scenario": "x", "engine": {"version": 1}, "recorder": {}}`,
		"version 2":  `{"version": 2, "scenario": "x", "engine": {"version": 1}, "has_latency": true, "latency": [3, 4]}`,
		"version 3":  `{"version": 3, "scenario": "x", "engine": {"version": 1, "now": 5}, "meter": {}}`,
		"v4 latency": `{"version": 4, "latency": [3, 4]}`,
		"v4 engine":  `{"version": 4, "engine": {}}`,
	} {
		_, err := DecodeCheckpoint("retired.ckpt", []byte(doc))
		var se *Error
		if !errors.As(err, &se) {
			t.Errorf("%s: error %v, want a positioned *Error", name, err)
			continue
		}
		if v := strings.TrimPrefix(name, "version "); v != name && !strings.Contains(err.Error(), "version "+v) {
			t.Errorf("%s: error %v does not name the version", name, err)
		}
	}
}

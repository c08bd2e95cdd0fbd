// Command bench runs the engine hot-path microbenchmarks outside `go
// test` and emits the results as JSON, so successive PRs can record a
// BENCH_<label>.json trajectory and diff ns/step and allocs/op over
// time.
//
// Usage:
//
//	bench                           # JSON to stdout
//	bench -label pr1                # write BENCH_pr1.json
//	bench -against BENCH_prev.json  # run, diff, exit 1 on regression
//	bench -count 9                  # 9 runs per entry, medians recorded
//
// The configurations mirror BenchmarkStep in internal/sim: policies
// FIFO (ring-deque pop-front), LIS and NTG (keyed-heap fast path)
// crossed with Line(32), Ring(16) and the G_ε instability graph, under
// sustained random (w,r) traffic, plus the pure drain regime of a
// large seeded FIFO buffer, the Recorder-observed variants
// (Line 32/256, stride 1) that exercise the incremental max-queue
// observation path, the StepTraced/StepMetered pair (Line 32 with the
// obs flight recorder on the event hooks resp. the metrics Meter on
// the step dispatch path — the observability cost budget), and the
// SweepParallel pair (a 7-point rate sweep
// run sequentially vs. fanned across the stability.SweepGrid worker
// pool — the parallel entry's ns/op divides by ~min(7, GOMAXPROCS) on
// a multicore machine), and the leap-mode pairs (StepLeap/Burst: a
// periodic burst drain run stepped vs. leaped; RunLeapE13: a Lemma 3.6
// pump with a long quiet tail, the long-horizon regime RunLeap exists
// for — the leap entry must beat its step twin by >= 10x).
//
// Every entry is measured -count times (default 5) and the median run
// (by ns/op) is recorded, so a single noisy run on a loaded machine
// neither pollutes the trajectory nor trips the -against gate.
//
// -against is the CI diff mode: entries are matched by name against a
// previous report and the command exits nonzero when ns/op grew by
// more than the tolerance (default 10%) or allocs/op increased —
// strictly for hot-path entries, beyond a 0.05% slack for macro
// entries (see allocSlack in diff.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"aqt/internal/adversary"
	"aqt/internal/baselines"
	"aqt/internal/core"
	"aqt/internal/gadget"
	"aqt/internal/graph"
	"aqt/internal/obs"
	"aqt/internal/packet"
	"aqt/internal/policy"
	"aqt/internal/rational"
	"aqt/internal/sim"
	"aqt/internal/stability"
)

// Entry is one benchmark result row.
type Entry struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// EngineNsPerStep is the engine's own StepStats timing for the
	// same run — the counter reports and these benchmarks must agree.
	EngineNsPerStep float64 `json:"engine_ns_per_step"`
}

// Report is the emitted JSON document.
type Report struct {
	Label     string `json:"label"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	Timestamp string `json:"timestamp"`
	// Count is the number of runs behind each entry; entries record
	// the median run by ns/op (0 or 1 = single runs, pre-PR4 reports).
	Count   int     `json:"count,omitempty"`
	Entries []Entry `json:"entries"`
}

// benchSpec is one named benchmark configuration; run executes it once
// from scratch.
type benchSpec struct {
	name string
	run  func() (testing.BenchmarkResult, sim.StepStats)
}

func main() {
	label := flag.String("label", "", "benchmark label; writes BENCH_<label>.json when set")
	out := flag.String("o", "", "output path (\"-\" or empty = stdout unless -label is set)")
	against := flag.String("against", "", "previous BENCH_*.json to diff against; exits 1 on regression")
	tol := flag.Float64("tol", DefaultNsTolerance, "relative ns/op increase tolerated in -against mode")
	count := flag.Int("count", 5, "runs per entry; the median run by ns/op is recorded")
	flag.Parse()
	if *count < 1 {
		*count = 1
	}

	rep := Report{
		Label:     *label,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Count:     *count,
	}

	for _, sp := range specs() {
		med := median(sp, *count)
		rep.Entries = append(rep.Entries, med)
		fmt.Fprintf(os.Stderr, "%-24s %10.0f ns/op %6d allocs/op\n",
			med.Name, med.NsPerOp, med.AllocsPerOp)
	}

	path := *out
	if path == "" && *label != "" {
		path = "BENCH_" + *label + ".json"
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(2)
	}
	enc = append(enc, '\n')
	switch {
	case path == "" || path == "-":
		// In diff mode the report below is the product; don't drown it
		// in JSON unless an output was requested.
		if *against == "" {
			os.Stdout.Write(enc)
		}
	default:
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}

	if *against != "" {
		raw, err := os.ReadFile(*against)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(2)
		}
		var prev Report
		if err := json.Unmarshal(raw, &prev); err != nil {
			fmt.Fprintf(os.Stderr, "bench: parsing %s: %v\n", *against, err)
			os.Exit(2)
		}
		report, regressed := Diff(prev, rep, *tol)
		os.Stdout.WriteString(report)
		if regressed {
			os.Exit(1)
		}
	}
}

// median runs the spec count times and returns the median run by
// ns/op (the lower median for even counts), so one descheduled run on
// a loaded machine cannot skew the recorded trajectory point.
func median(sp benchSpec, count int) Entry {
	entries := make([]Entry, count)
	for i := range entries {
		res, st := sp.run()
		entries[i] = entry(sp.name, res, st)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].NsPerOp < entries[j].NsPerOp })
	return entries[(count-1)/2]
}

// specs assembles every benchmark configuration.
func specs() []benchSpec {
	var out []benchSpec

	topos := []struct {
		name   string
		build  func() *graph.Graph
		maxLen int
	}{
		{"Line32", func() *graph.Graph { return graph.Line(32) }, 4},
		{"Ring16", func() *graph.Graph { return graph.Ring(16) }, 4},
		{"Geps", func() *graph.Graph { return gadget.NewChain(3, 3, true).G }, 5},
	}
	for _, tp := range topos {
		for _, pol := range []policy.Policy{policy.FIFO{}, policy.LIS{}, policy.NTG{}} {
			tp, pol := tp, pol
			out = append(out, benchSpec{
				name: fmt.Sprintf("Step/%s/%s", tp.name, pol.Name()),
				run: func() (testing.BenchmarkResult, sim.StepStats) {
					var eng *sim.Engine
					res := testing.Benchmark(func(b *testing.B) {
						g := tp.build()
						adv := adversary.NewRandomWR(g, 24, rational.New(1, 3), tp.maxLen, 7)
						eng = sim.New(g, pol, adv)
						eng.Run(256)
						b.ReportAllocs()
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							eng.Step()
						}
					})
					return res, eng.Stats()
				},
			})
		}
	}

	// The bounded-buffer pair: the Step/Line32/FIFO traffic run through
	// NewWithConfig, once with cap 0 (the unbounded control — must match
	// Step/Line32/FIFO, pinning that the bounded branch costs nothing
	// when off) and once with a cap-8 drop-tail buffer (the capacity
	// check plus drop accounting on every enqueue). Both stay
	// allocation-free on the hot path.
	for _, cfg := range []struct {
		name string
		cap  int
		drop sim.DropPolicy
	}{{"StepBounded/Line32/fifo", 0, nil}, {"StepBounded/Line32/droptail", 8, sim.DropTail{}}} {
		cfg := cfg
		out = append(out, benchSpec{
			name: cfg.name,
			run: func() (testing.BenchmarkResult, sim.StepStats) {
				var eng *sim.Engine
				res := testing.Benchmark(func(b *testing.B) {
					g := graph.Line(32)
					adv := adversary.NewRandomWR(g, 24, rational.New(1, 3), 4, 7)
					eng = sim.NewWithConfig(g, policy.FIFO{}, adv,
						sim.Config{BufferCap: cfg.cap, Drop: cfg.drop})
					eng.Run(256)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						eng.Step()
					}
				})
				return res, eng.Stats()
			},
		})
	}

	// The Lemma 3.3 reroute regime: to-go policies under sustained
	// route replacement at a gadget ingress. This is the workload the
	// keyed-heap tombstone scheme exists for — the eager rebuild paid
	// O(S) per reroute here.
	for _, pol := range []policy.Policy{policy.NTG{}, policy.FTG{}} {
		for _, s := range []int{1 << 10, 1 << 13} {
			pol, s := pol, s
			out = append(out, benchSpec{
				name: fmt.Sprintf("StepReroute/Geps/%s/S=%d", pol.Name(), s),
				run: func() (testing.BenchmarkResult, sim.StepStats) {
					var eng *sim.Engine
					res := testing.Benchmark(func(b *testing.B) {
						c := gadget.NewChain(3, 2, false)
						full := c.LongRoute(1)
						mk := func() *sim.Engine {
							e := sim.New(c.G, pol, &rerouteChurn{full: full, touch: 8})
							e.SeedN(s, packet.Inj(full...))
							return e
						}
						eng = mk()
						b.ReportAllocs()
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							if eng.Queue(full[0]).Len() < s/2 {
								b.StopTimer()
								eng = mk()
								b.StartTimer()
							}
							eng.Step()
						}
					})
					return res, eng.Stats()
				},
			})
		}
	}

	for _, s := range []int{1 << 10, 1 << 14} {
		s := s
		out = append(out, benchSpec{
			name: fmt.Sprintf("StepSeededFIFO/S=%d", s),
			run: func() (testing.BenchmarkResult, sim.StepStats) {
				g := graph.Line(8)
				route := []graph.EdgeID{g.MustEdge("e1"), g.MustEdge("e2"), g.MustEdge("e3")}
				var eng *sim.Engine
				res := testing.Benchmark(func(b *testing.B) {
					eng = sim.New(g, policy.FIFO{}, nil)
					eng.SeedN(s, packet.Inj(route...))
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if eng.TotalQueued() == 0 {
							b.StopTimer()
							eng = sim.New(g, policy.FIFO{}, nil)
							eng.SeedN(s, packet.Inj(route...))
							b.StartTimer()
						}
						eng.Step()
					}
				})
				return res, eng.Stats()
			},
		})
	}

	// The sampled path: a stride-1 obs.Sampler (exact peak plus a
	// bounded series) on Line(32) and Line(256). Before the incremental
	// max these scaled per-step cost with edge count; the Line256 row
	// pins that they no longer do. The StepRecorded names predate the
	// Sampler and are kept so -against still matches older trajectories.
	for _, n := range []int{32, 256} {
		n := n
		out = append(out, benchSpec{
			name: fmt.Sprintf("StepRecorded/Line%d/FIFO", n),
			run: func() (testing.BenchmarkResult, sim.StepStats) {
				var eng *sim.Engine
				res := testing.Benchmark(func(b *testing.B) {
					g := graph.Line(n)
					adv := adversary.NewRandomWR(g, 24, rational.New(1, 3), 4, 7)
					eng = sim.New(g, policy.FIFO{}, adv)
					obs.NewSampler(obs.SamplerConfig{Every: 1}).Attach(eng)
					eng.Run(256)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						eng.Step()
					}
				})
				return res, eng.Stats()
			},
		})
	}

	// The observability overhead pair: the same Line(32) traffic with
	// the flight recorder on the event hooks (StepTraced) and the
	// metrics Meter on the per-step dispatch path (StepMetered). Both
	// must stay allocation-free; their ns/op gap over StepRecorded is
	// the cost budget of `internal/obs`.
	out = append(out, benchSpec{
		name: "StepTraced/Line32/FIFO",
		run: func() (testing.BenchmarkResult, sim.StepStats) {
			var eng *sim.Engine
			res := testing.Benchmark(func(b *testing.B) {
				g := graph.Line(32)
				adv := adversary.NewRandomWR(g, 24, rational.New(1, 3), 4, 7)
				eng = sim.New(g, policy.FIFO{}, adv)
				eng.AddEventObserver(obs.NewFlightRecorder(4096))
				eng.Run(256)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng.Step()
				}
			})
			return res, eng.Stats()
		},
	})
	out = append(out, benchSpec{
		name: "StepMetered/Line32/FIFO",
		run: func() (testing.BenchmarkResult, sim.StepStats) {
			var eng *sim.Engine
			res := testing.Benchmark(func(b *testing.B) {
				g := graph.Line(32)
				adv := adversary.NewRandomWR(g, 24, rational.New(1, 3), 4, 7)
				eng = sim.New(g, policy.FIFO{}, adv)
				eng.AddObserver(obs.NewMeter(nil))
				eng.Run(256)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng.Step()
				}
			})
			return res, eng.Stats()
		},
	})

	// The live-telemetry pair (PR 10): StepSampled adds the time-series
	// Sampler on the step hook, StepSpanTraced the per-packet span
	// tracer on the event hooks. Both ride the same Line(32) traffic and
	// both must stay allocation-free — the telemetry layer's admission
	// price into the hot path.
	out = append(out, benchSpec{
		name: "StepSampled/Line32/FIFO",
		run: func() (testing.BenchmarkResult, sim.StepStats) {
			var eng *sim.Engine
			res := testing.Benchmark(func(b *testing.B) {
				g := graph.Line(32)
				adv := adversary.NewRandomWR(g, 24, rational.New(1, 3), 4, 7)
				eng = sim.New(g, policy.FIFO{}, adv)
				sam := obs.NewSampler(obs.SamplerConfig{Every: 4, MaxSamples: 512})
				sam.Attach(eng)
				eng.Run(256)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng.Step()
				}
			})
			return res, eng.Stats()
		},
	})
	out = append(out, benchSpec{
		name: "StepSpanTraced/Line32/FIFO",
		run: func() (testing.BenchmarkResult, sim.StepStats) {
			var eng *sim.Engine
			res := testing.Benchmark(func(b *testing.B) {
				g := graph.Line(32)
				adv := adversary.NewRandomWR(g, 24, rational.New(1, 3), 4, 7)
				eng = sim.New(g, policy.FIFO{}, adv)
				st := obs.NewSpanTracer(obs.SpanConfig{SampleEvery: 16, Seed: 7})
				st.Attach(eng)
				eng.Run(256)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng.Step()
				}
			})
			return res, eng.Stats()
		},
	})

	// The checkpoint pair: CheckpointSave is one full state capture plus
	// JSON encode of a warmed Line(32) engine under random (w,r)
	// traffic; CheckpointRestore is the full resume path — decode the
	// document, build a fresh engine the same way, and apply the state.
	// Neither is a hot path (they run once per segment, not per step),
	// so the trajectory pins absolute cost, not allocs.
	out = append(out, benchSpec{
		name: "CheckpointSave/Line32",
		run: func() (testing.BenchmarkResult, sim.StepStats) {
			var eng *sim.Engine
			res := testing.Benchmark(func(b *testing.B) {
				g := graph.Line(32)
				adv := adversary.NewRandomWR(g, 24, rational.New(1, 3), 4, 7)
				eng = sim.New(g, policy.FIFO{}, adv)
				eng.Run(2048)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cp, err := eng.Checkpoint()
					if err != nil {
						b.Fatal(err)
					}
					_ = cp.Encode()
				}
			})
			return res, eng.Stats()
		},
	})
	out = append(out, benchSpec{
		name: "CheckpointRestore/Line32",
		run: func() (testing.BenchmarkResult, sim.StepStats) {
			mk := func() (*sim.Engine, *graph.Graph) {
				g := graph.Line(32)
				adv := adversary.NewRandomWR(g, 24, rational.New(1, 3), 4, 7)
				return sim.New(g, policy.FIFO{}, adv), g
			}
			src, _ := mk()
			src.Run(2048)
			cp, err := src.Checkpoint()
			if err != nil {
				panic(err)
			}
			data := cp.Encode()
			var eng *sim.Engine
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					cp2, err := sim.DecodeCheckpoint(data)
					if err != nil {
						b.Fatal(err)
					}
					eng, _ = mk()
					if err := eng.Restore(cp2); err != nil {
						b.Fatal(err)
					}
				}
			})
			return res, eng.Stats()
		},
	})

	// BenchmarkSweepParallel: the PR4 parallel probe layer on a 7-point
	// rate grid (depth 6, capped pumps) — sequential pool vs. GOMAXPROCS
	// fan-out. One op is the whole sweep; engines are per-probe, so the
	// parallel entry's wall-clock divides by ~min(7, GOMAXPROCS) on a
	// multicore machine and matches the sequential one at GOMAXPROCS=1.
	for _, cfg := range []struct {
		name    string
		workers int
	}{{"SweepParallel/Rate7/seq", 1}, {"SweepParallel/Rate7/par", 0}} {
		cfg := cfg
		out = append(out, benchSpec{
			name: cfg.name,
			run: func() (testing.BenchmarkResult, sim.StepStats) {
				pts := sweepGridPoints()
				res := testing.Benchmark(func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						baselines.PumpGrid(pts, 400, cfg.workers)
					}
				})
				return res, sim.StepStats{}
			},
		})
	}

	// The leap-mode equivalence pair: a single-edge burst adversary
	// (64-packet burst every 32768 steps, all packets final on
	// injection) run over a 2^17-step horizon. The step entry pays every
	// step; the leap entry covers each period with one drain window and
	// one idle window. One op is the whole run, so the ns/op ratio is
	// the leap speedup on this workload. The per-packet drain work is
	// identical on both sides, so the burst must stay small relative to
	// the idle gap for the skipped steps to dominate the ratio.
	for _, mode := range []string{"step", "leap"} {
		mode := mode
		out = append(out, benchSpec{
			name: "StepLeap/Burst/" + mode,
			run: func() (testing.BenchmarkResult, sim.StepStats) {
				const horizon = 1 << 17
				g := graph.Line(8)
				route := []graph.EdgeID{g.MustEdge("e1")}
				var eng *sim.Engine
				res := testing.Benchmark(func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						adv := adversary.NewBurstScript(adversary.BurstStream{
							Name: "burst", Start: 1, Period: 32768, Burst: 64,
							Budget: -1, Route: route,
						})
						eng = sim.New(g, policy.FIFO{}, adv)
						b.StartTimer()
						if mode == "leap" {
							eng.RunLeap(horizon)
						} else {
							eng.Run(horizon)
						}
					}
				})
				return res, eng.Stats()
			},
		})
	}

	// The long-horizon instability regime RunLeap exists for: one
	// Lemma 3.6 pump (stepped on both sides — its streams pin the static
	// horizon) followed by a drain-out and a long provably-idle tail to
	// a fixed 2^25-step horizon. internal/stability and the E13/B1
	// runners run exactly this shape via RunLeap; the leap entry must
	// beat the step entry by >= 10x. The pump uses the nearhalf seed
	// (s=4000-scale, here 1000) rather than 4*S0: the pump's per-packet
	// work is paid identically on both sides, so a large seed would
	// drown the idle tail the leap skips and flatten the ratio.
	for _, mode := range []string{"step", "leap"} {
		mode := mode
		out = append(out, benchSpec{
			name: "RunLeapE13/" + mode,
			run: func() (testing.BenchmarkResult, sim.StepStats) {
				p := core.ParamsFor(rational.New(1, 2), 12)
				const seed = 1000
				const horizon = 1 << 25
				var eng *sim.Engine
				res := testing.Benchmark(func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						c := gadget.NewChain(p.N, 2, false)
						eng = sim.New(c.G, policy.FIFO{}, nil)
						c.SeedInvariant(eng, 1, seed)
						var rep core.PumpReport
						seq := adversary.NewSequence(core.PumpPhase(p, c, 1, nil, &rep))
						eng.SetAdversary(seq)
						b.StartTimer()
						if mode == "leap" {
							eng.RunLeap(horizon)
						} else {
							eng.Run(horizon)
						}
					}
				})
				return res, eng.Stats()
			},
		})
	}

	return out
}

// sweepGridPoints is the 7-point rate grid of the SweepParallel pair:
// r = 0.5 .. 0.8 at depth 6, the cmd/sweep default shape.
func sweepGridPoints() []stability.Point {
	pts := make([]stability.Point, 7)
	for i := range pts {
		f := 0.5 + 0.3*float64(i)/6
		pts[i] = stability.Point{Rate: rational.FromFloat(f, 4096), Depth: 6}
	}
	return pts
}

// rerouteChurn mirrors the adversary of BenchmarkStepReroute in
// internal/sim: each step it alternates truncating and restoring the
// routes of 8 ingress packets, changing their to-go selection keys.
type rerouteChurn struct {
	full  []graph.EdgeID
	tick  int
	touch int
}

func (c *rerouteChurn) PreStep(e *sim.Engine) {
	q := e.Queue(c.full[0])
	n := q.Len()
	if n == 0 {
		return
	}
	for i := 0; i < c.touch; i++ {
		c.tick++
		p := q.At(c.tick * 37 % n)
		if c.tick%2 == 0 {
			e.ReplaceRouteSuffix(p, nil)
		} else {
			e.ReplaceRouteSuffix(p, c.full[1:])
		}
	}
}

func (*rerouteChurn) Inject(*sim.Engine) []packet.Injection { return nil }

func entry(name string, res testing.BenchmarkResult, st sim.StepStats) Entry {
	return Entry{
		Name:            name,
		Iterations:      res.N,
		NsPerOp:         float64(res.NsPerOp()),
		AllocsPerOp:     res.AllocsPerOp(),
		BytesPerOp:      res.AllocedBytesPerOp(),
		EngineNsPerStep: st.NsPerStep(),
	}
}

// Command perfbench is the end-to-end benchmark of the aqt simulator.
//
//	perfbench --workload pump|random|search|corpus --seed N --seconds S --trace 0|1
//
// It derives the workload's inputs from the seed, repeats the
// workload's batch job for the given number of seconds, checks every
// output, and prints one JSON object as its last line of standard
// output: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. A traced run alternates untraced and traced batches,
// so it also reports the tracing overhead. Run it from the repository
// root (the corpus workload reads scenarios/*.json); perfbench/run.sh
// builds and runs it. README.md in this directory documents the
// workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"aqt/internal/sim"
)

// job is one prepared workload: run executes one batch of it into b.
type job interface {
	run(b *batch)
}

type workload struct {
	name    string
	prepare func(seed int64) (job, error)
}

var workloads = []workload{
	{"pump", preparePump},
	{"random", prepareRandom},
	{"search", prepareSearch},
	{"corpus", prepareCorpus},
}

// counts are the exact simulation counters of a batch; for a given
// seed they repeat bit for bit, traced or not.
type counts struct {
	Steps, Hops, Injections, Absorbed int64
	// MaxQueue is the largest buffer occupancy seen at the end of any
	// engine run of the batch.
	MaxQueue int64
}

// engineCounts reads e's lifetime counters and current largest buffer.
func engineCounts(e *sim.Engine) counts {
	st := e.Stats()
	return counts{st.Steps, st.Sends, st.Injections, e.Absorbed(), int64(e.MaxQueued())}
}

func (c *counts) addEngine(e *sim.Engine) { c.add(engineCounts(e)) }

// since returns the counters accumulated after pre; MaxQueue stays c's.
func (c counts) since(pre counts) counts {
	return counts{c.Steps - pre.Steps, c.Hops - pre.Hops, c.Injections - pre.Injections, c.Absorbed - pre.Absorbed, c.MaxQueue}
}

func (c *counts) add(o counts) {
	c.Steps += o.Steps
	c.Hops += o.Hops
	c.Injections += o.Injections
	c.Absorbed += o.Absorbed
	if o.MaxQueue > c.MaxQueue {
		c.MaxQueue = o.MaxQueue
	}
}

// accuracy holds the model-level results a speed-only change must
// leave unchanged.
type accuracy struct {
	// SPrimeRelErr is the largest |measured − predicted| / predicted S′
	// over the batch's Lemma 3.6 pumps.
	SPrimeRelErr float64
	// CycleGrowthMin is the smallest Theorem 3.17 cycle growth S4/S1.
	CycleGrowthMin float64
	// ThresholdAbsErr is the largest |bisected − exact| r*(n).
	ThresholdAbsErr float64
}

// batch is the measurement of one execution of a workload's job.
type batch struct {
	traced     bool
	setup, run time.Duration
	counts     counts
	acc        accuracy

	hops    int64     // packet sends simulated in the run part, speculative probes included
	packets int64     // packets injected in the batch, by every engine it built
	units   []float64 // durations of the workload's unit jobs, ms

	checks, failed int
	alloc          uint64 // bytes allocated by the batch
	gcs            uint32 // GC cycles completed during the batch

	engine time.Duration // wall time inside engine run calls (summed over goroutines)
	stages time.Duration // wall time of the timed stages of the run part
	hot    hotLayers

	leapSteps, leapWindows int64

	ckptEncode, ckptRestore time.Duration
	ckptBytes               int64
	parse, build            time.Duration

	probesRun, probesUseful int
	probeSetup              []float64 // ms per probe
}

// check records one correctness check.
func (b *batch) check(ok bool, format string, args ...any) {
	b.checks++
	if !ok {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// stage times fn as one stage of the run part.
func (b *batch) stage(fn func()) time.Duration {
	t := time.Now()
	fn()
	d := time.Since(t)
	b.stages += d
	return d
}

// setupReps is how often a batch repeats a set-up that takes only
// milliseconds, so its set-up time is a median rather than one reading.
const setupReps = 5

// timedSetup runs build setupReps times and returns the last result and
// the median duration.
func timedSetup[T any](build func() T) (T, time.Duration) {
	var v T
	ds := make([]float64, setupReps)
	for i := range ds {
		t := time.Now()
		v = build()
		ds[i] = float64(time.Since(t))
	}
	return v, time.Duration(quantile(ds, 0.5))
}

// engineStage times fn as a stage spent inside the engine.
func (b *batch) engineStage(fn func()) time.Duration {
	d := b.stage(fn)
	b.engine += d
	return d
}

func main() {
	name := flag.String("workload", "", "workload: pump, random, search or corpus")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Float64("seconds", 10, "seconds to repeat the workload's batch for")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	printHost()
	j, err := w.prepare(seed)
	if err != nil {
		return err
	}
	bs := measure(j, seconds, traced)

	res := result{Metrics: map[string]metric{}}
	first := bs[0].counts
	for _, b := range bs {
		res.Attempted += b.checks
		res.Failed += b.failed
		res.Attempted++
		if b.counts != first {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: check failed: batch counts %+v differ from first batch %+v\n", b.counts, first)
		}
	}
	res.Correct = res.Failed == 0
	var plain, tr []*batch
	for _, b := range bs {
		if b.traced {
			tr = append(tr, b)
		} else {
			plain = append(plain, b)
		}
	}
	fmt.Printf("workload %s seed %d: %d batches (%d traced), %d units per batch, counts %+v\n",
		name, seed, len(bs), len(tr), len(bs[0].units), first)
	if traced {
		layerMetrics(res.Metrics, plain, tr)
	} else {
		endToEnd(res.Metrics, plain)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// measure repeats the job for the given seconds, stopping before a
// batch as long as the last one would overrun them, but after at least
// three batches (four in a traced run, which alternates untraced and
// traced batches). Each batch starts from a collected heap, so its
// allocation and GC figures do not depend on the batch before it.
func measure(j job, seconds float64, traced bool) []*batch {
	minBatches := 3
	if traced {
		minBatches = 4
	}
	var bs []*batch
	start := time.Now()
	for last := time.Duration(0); len(bs) < minBatches || (time.Since(start)+last).Seconds() <= seconds; {
		t := time.Now()
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		b := &batch{traced: traced && len(bs)%2 == 1}
		j.run(b)
		runtime.ReadMemStats(&m1)
		b.alloc = m1.TotalAlloc - m0.TotalAlloc
		b.gcs = m1.NumGC - m0.NumGC
		bs = append(bs, b)
		last = time.Since(t)
	}
	return bs
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func endToEnd(m map[string]metric, bs []*batch) {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	var gcs float64
	var units int
	for _, b := range bs {
		gcs += float64(b.gcs)
		units += len(b.units)
	}
	m["run_s"] = metric{median(bs, func(b *batch) float64 { return b.run.Seconds() }), "s"}
	m["setup_s"] = metric{median(bs, func(b *batch) float64 { return b.setup.Seconds() }), "s"}
	m["hops_per_s"] = metric{median(bs, func(b *batch) float64 { return float64(b.hops) / b.run.Seconds() }), "1/s"}
	m["alloc_mb"] = metric{median(bs, func(b *batch) float64 { return float64(b.alloc) / 1e6 }), "MB"}
	m["gc_cycles"] = metric{gcs / float64(len(bs)), "count"}
	m["heap_sys_mb"] = metric{float64(mem.HeapSys) / 1e6, "MB"}
	// Unit quantiles are taken per batch, then the median over batches:
	// a batch repeats the same mix of unit jobs, so its quantile sits at
	// the same place in the mix every time.
	p50 := median(bs, func(b *batch) float64 { return quantile(b.units, 0.5) })
	p90 := median(bs, func(b *batch) float64 { return quantile(b.units, 0.9) })
	m["probe_ms_p50"] = metric{p50, "ms"}
	m["probe_ms_p90"] = metric{p90, "ms"}
	fmt.Printf("units: %d in %d batches, p50 %.3f ms, p90 %.3f ms\n", units, len(bs), p50, p90)
}

func layerMetrics(m map[string]metric, plain, tr []*batch) {
	f := func(name, unit string, get func(b *batch) float64) {
		m[name] = metric{median(tr, get), unit}
	}
	c := tr[0].counts
	f("sim.self_ns_per_hop", "ns", func(b *batch) float64 {
		return ratio(float64(b.engine)-b.hot.calleeNs(), float64(b.hops))
	})
	m["sim.alloc_bytes_per_packet"] = metric{median(plain, func(b *batch) float64 {
		return ratio(float64(b.alloc), float64(b.packets))
	}), "B"}
	f("sim.leap_coverage", "ratio", func(b *batch) float64 { return ratio(float64(b.leapSteps), float64(b.counts.Steps)) })
	f("sim.leap_windows", "count", func(b *batch) float64 { return float64(b.leapWindows) })
	f("sim.checkpoint_encode_ms", "ms", func(b *batch) float64 { return ms(b.ckptEncode) })
	f("sim.checkpoint_bytes", "B", func(b *batch) float64 { return float64(b.ckptBytes) })
	m["sim.steps"] = metric{float64(c.Steps), "count"}
	m["sim.hops"] = metric{float64(c.Hops), "count"}
	m["sim.injections"] = metric{float64(c.Injections), "count"}
	m["sim.absorbed"] = metric{float64(c.Absorbed), "count"}
	m["sim.max_queue"] = metric{float64(c.MaxQueue), "count"}
	f("adversary.prestep_ns_per_step", "ns", func(b *batch) float64 { return b.hot.preStep.nsPerCall() })
	f("adversary.inject_ns_per_step", "ns", func(b *batch) float64 { return b.hot.inject.nsPerCall() })
	f("adversary.reroutes", "count", func(b *batch) float64 { return float64(b.hot.reroutes) })
	f("policy.select_ns_per_call", "ns", func(b *batch) float64 { return b.hot.selects.nsPerCall() })
	f("policy.select_calls", "count", func(b *batch) float64 { return float64(b.hot.selects.calls) })
	f("policy.scan_len_mean", "count", func(b *batch) float64 {
		return ratio(float64(b.hot.scanLen), float64(b.hot.selects.calls))
	})
	f("policy.key_ns_per_call", "ns", func(b *batch) float64 { return b.hot.keys.nsPerCall() })
	f("obs.onstep_ns_per_step", "ns", func(b *batch) float64 {
		return ratio(b.hot.onStep.totalNs(), float64(b.counts.Steps))
	})
	f("core.sprime_rel_err", "ratio", func(b *batch) float64 { return b.acc.SPrimeRelErr })
	f("core.cycle_growth_min", "ratio", func(b *batch) float64 { return b.acc.CycleGrowthMin })
	f("stability.probes_run", "count", func(b *batch) float64 { return float64(b.probesRun) })
	f("stability.probes_useful_frac", "ratio", func(b *batch) float64 {
		return ratio(float64(b.probesUseful), float64(b.probesRun))
	})
	var setups []float64
	for _, b := range tr {
		setups = append(setups, b.probeSetup...)
	}
	m["stability.probe_setup_ms"] = metric{quantile(setups, 0.5), "ms"}
	f("stability.threshold_abs_err", "ratio", func(b *batch) float64 { return b.acc.ThresholdAbsErr })
	f("scenario.parse_ms", "ms", func(b *batch) float64 { return ms(b.parse) })
	f("scenario.build_ms", "ms", func(b *batch) float64 { return ms(b.build) })
	f("scenario.checkpoint_restore_ms", "ms", func(b *batch) float64 { return ms(b.ckptRestore) })
	runTr := median(tr, func(b *batch) float64 { return b.run.Seconds() })
	runPlain := median(plain, func(b *batch) float64 { return b.run.Seconds() })
	m["trace.overhead_frac"] = metric{runTr/runPlain - 1, "ratio"}
	f("trace.unattributed_frac", "ratio", func(b *batch) float64 {
		return ratio(float64(b.run-b.stages), float64(b.run))
	})
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(bs []*batch, get func(b *batch) float64) float64 {
	vs := make([]float64, len(bs))
	for i, b := range bs {
		vs[i] = get(b)
	}
	return quantile(vs, 0.5)
}

// quantile interpolates linearly between the closest ranks.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// printHost prints the host metadata that lets a reader judge the
// noise of a result.
func printHost() {
	la := "unknown"
	var si syscall.Sysinfo_t
	if syscall.Sysinfo(&si) == nil {
		const scale = 1 << 16 // SI_LOAD_SHIFT
		la = fmt.Sprintf("%.2f %.2f %.2f",
			float64(si.Loads[0])/scale, float64(si.Loads[1])/scale, float64(si.Loads[2])/scale)
	}
	fmt.Printf("host: nproc %d, GOMAXPROCS %d, %s %s/%s, loadavg %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, la)
}

package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"aqt/internal/adversary"
	"aqt/internal/obs"
	"aqt/internal/policy"
	"aqt/internal/rational"
	"aqt/internal/scenario"
	"aqt/internal/sim"
	"aqt/internal/stability"
)

// cmdSim runs a general adversarial-queuing simulation: pick a
// topology, a scheduling policy and a random (w,r) adversary, and get
// queue statistics plus a stability verdict.
//
//	aqt sim -topo ring -size 6 -policy FIFO -w 20 -rate 1/4 -maxlen 3 -steps 10000
//	aqt sim -topo line -size 4 -adv burst -cap 8 -drop ntg -steps 10000
//
// To run a declarative spec file instead, use `aqt scenario run`.
func cmdSim(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("sim", stderr)
	topo := fs.String("topo", "ring", "topology: ring|line|complete|grid|dag|geps")
	size := fs.Int("size", 6, "topology size parameter")
	polName := fs.String("policy", "FIFO", "scheduling policy (see -policies)")
	listPols := fs.Bool("policies", false, "list policies and exit")
	w := fs.Int64("w", 20, "adversary window size")
	rateStr := fs.String("rate", "1/4", "adversary rate (per edge per window)")
	maxLen := fs.Int("maxlen", 3, "max route length d")
	steps := fs.Int64("steps", 10000, "simulation steps")
	seed := fs.Int64("seed", 1, "adversary seed")
	advName := fs.String("adv", "random", "adversary: random (smooth (w,r) traffic) | burst (extremal single-step bursts)")
	leap := fs.Bool("leap", false, "run in leap mode (batch-advance provably static windows; identical results)")
	bufCap := fs.Int("cap", 0, "per-edge buffer capacity (0 = unbounded)")
	dropName := fs.String("drop", "tail", "drop policy at full buffers: tail|head|ntg (needs -cap >= 1)")
	validate := fs.Bool("validate", true, "run the (w,r) compliance validator")
	csv := fs.String("csv", "", "write the queue-size series to this file")
	trace := fs.String("trace", "", "write a flight-recorder JSONL event trace to this file")
	traceCap := fs.Int("tracecap", 4096, "flight-recorder ring capacity (latest events kept)")
	metrics := fs.Bool("metrics", false, "print the metrics-registry summary")
	serve := fs.String("serve", "", "serve live telemetry (/metrics /series /trace /healthz /debug/pprof) on this address, e.g. 127.0.0.1:8080")
	serveHold := fs.Bool("serve-hold", false, "with -serve: keep serving the final state after the run until killed")
	sampleEvery := fs.Int64("sample-every", 0, "sampling stride in steps for the backlog series, plot and telemetry (0 = auto ~512 samples)")
	spans := fs.Int64("spans", 0, "trace per-packet spans for ~1/N of packet IDs (0 = off, 1 = every packet)")
	checkpointFile := fs.String("checkpoint", "", "write an engine checkpoint (JSON) to this file after the run")
	restoreFile := fs.String("restore", "", "restore engine state from this checkpoint file before running -steps more steps (observer series restart at the resume point)")
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}

	if *listPols {
		for _, p := range policy.All() {
			tr := p.Traits()
			fmt.Fprintf(stdout, "%-6s historic=%v timePriority=%v universallyStable=%v\n",
				p.Name(), tr.Historic, tr.TimePriority, tr.UniversallyStable)
		}
		return 0
	}
	tel := &telemetry{} // replaced once -serve starts; die closes its server
	die := func(err error) int { tel.finish(false); return fail(stderr, "sim", err) }
	g, err := scenario.NamedTopology(*topo, *size)
	if err != nil {
		return die(err)
	}
	pol, err := policy.ByName(*polName)
	if err != nil {
		return die(err)
	}
	rate, err := rational.Parse(*rateStr)
	if err != nil {
		return die(err)
	}
	if err := adversary.CheckWindowRate(*w, rate); err != nil {
		return die(err)
	}
	if *maxLen < 1 {
		return die(adversary.ErrMaxLen)
	}

	var adv sim.Adversary
	switch *advName {
	case "random":
		adv = adversary.NewRandomWR(g, *w, rate, *maxLen, *seed)
	case "burst":
		// The extremal (w,r) burst adversary reports static horizons
		// between bursts, so -leap has windows to skip; RandomWR draws
		// every step and never leaps.
		adv = adversary.MaxWindowBurst(g, *w, rate, *maxLen)
	default:
		return die(fmt.Errorf("unknown adversary %q (random|burst)", *advName))
	}
	var cfg sim.Config
	if *bufCap < 0 {
		return die(fmt.Errorf("-cap must be >= 0 (0 = unbounded), got %d", *bufCap))
	}
	if *bufCap > 0 {
		drop, err := sim.DropByName(*dropName)
		if err != nil {
			return die(err)
		}
		cfg = sim.Config{BufferCap: *bufCap, Drop: drop}
	}
	eng := sim.NewWithConfig(g, pol, adv, cfg)
	// The meter is the run's one latency source; -metrics only decides
	// whether its registry summary is printed.
	meter := obs.NewMeter(nil)
	eng.AddObserver(meter)
	var wv *adversary.WindowValidator
	if *validate {
		wv = adversary.NewWindowValidator(*w, rate)
		eng.AddObserver(wv)
	}
	var fr *obs.FlightRecorder
	if *trace != "" {
		// Event interfaces only: the recorder rides the event hooks, not
		// the per-step dispatch loop.
		fr = obs.NewFlightRecorder(*traceCap)
		eng.AddEventObserver(fr)
	}
	ev := *sampleEvery
	if ev <= 0 {
		ev = max(*steps/512, 1)
	}
	// The auto stride retains fewer than 1024 samples, so the series is
	// never downsampled unless -sample-every asks for more.
	// Latency-quantile series ride along only under -metrics, so the
	// series and trace dumps of a plain run stay backlog-only.
	samCfg := obs.SamplerConfig{Every: ev, MaxSamples: 1024}
	if *metrics {
		samCfg.Meter = meter
	}
	sam := obs.NewSampler(samCfg)
	sam.Attach(eng)
	var spanTr *obs.SpanTracer
	if *spans > 0 {
		spanTr = obs.NewSpanTracer(obs.SpanConfig{SampleEvery: *spans, Seed: uint64(*seed)})
		spanTr.Attach(eng)
	}
	tel, err = startTelemetry(*serve, false, stderr)
	if err != nil {
		return die(err)
	}
	tel.watch(eng, meter.Registry(), sam, spanTr, fr)
	if *restoreFile != "" {
		data, err := os.ReadFile(*restoreFile)
		if err != nil {
			return die(err)
		}
		cp, err := sim.DecodeCheckpoint(data)
		if err != nil {
			return die(err)
		}
		if err := eng.Restore(cp); err != nil {
			return die(err)
		}
		fmt.Fprintf(stdout, "restored %s at step %d; running %d more steps\n", *restoreFile, cp.Now, *steps)
	}
	if *leap {
		eng.RunLeap(*steps)
	} else {
		eng.Run(*steps)
	}
	if *checkpointFile != "" {
		cp, err := eng.Checkpoint()
		if err != nil {
			return die(err)
		}
		if err := os.WriteFile(*checkpointFile, cp.Encode(), 0o644); err != nil {
			return die(err)
		}
		fmt.Fprintf(stdout, "checkpoint written to %s (step %d)\n", *checkpointFile, eng.Now())
	}

	meter.Finish(eng)

	snap := eng.Snap()
	fmt.Fprintf(stdout, "topology %s(%d): %d nodes, %d edges\n", *topo, *size, g.NumNodes(), g.NumEdges())
	fmt.Fprintf(stdout, "policy %s, (w=%d, r=%v) %s adversary, d<=%d, %d steps\n", pol.Name(), *w, rate, *advName, *maxLen, *steps)
	if *leap {
		ls := eng.Leaps()
		fmt.Fprintf(stdout, "leap: %d windows (%d idle, %d drain) covering %d of %d steps\n",
			ls.Windows, ls.Idle, ls.Drain, ls.Steps, *steps)
	}
	fmt.Fprintf(stdout, "injected %d, absorbed %d, in flight %d\n", snap.Injected, snap.Absorbed, snap.TotalQueued)
	if eng.BufferCap() > 0 {
		fmt.Fprintf(stdout, "buffer cap %d (drop %s): dropped %d\n", eng.BufferCap(), eng.Drop().Name(), snap.Dropped)
	}
	fmt.Fprintf(stdout, "peak backlog %d; max single buffer %d (edge %s)\n",
		sam.PeakTotal(), snap.MaxQueueLen, g.EdgeName(snap.MaxQueueAt))
	fmt.Fprintf(stdout, "max per-buffer residence %d (floor(w*r) bound: %d)\n",
		eng.MaxResidence(true), stability.ResidenceBound(*w, rate))
	if ls := meter.LatencySnapshot(); ls.Count == 0 {
		fmt.Fprintln(stdout, "latency: no absorbed packets")
	} else {
		fmt.Fprintf(stdout, "latency over %d packets: mean %.1f, p50<=%d, p90<=%d, p99<=%d, max %d\n",
			ls.Count, ls.Mean(), ls.Quantile(0.50), ls.Quantile(0.90), ls.Quantile(0.99), ls.Max)
	}
	fmt.Fprintf(stdout, "engine: %s\n", snap.Stats)
	fmt.Fprintf(stdout, "verdict: %v\n", stability.Classify(sam.Backlog(), 1.25))
	fmt.Fprint(stdout, asciiPlot(sam.Backlog(), 64, 10))
	var violation error
	if wv != nil {
		// CheckAndNotify: a violation lands in the flight-recorder ring
		// as a failure event before the trace is dumped below.
		violation = wv.CheckAndNotify(eng)
		if violation != nil {
			fmt.Fprintf(stdout, "(w,r) compliance: VIOLATED: %v\n", violation)
		} else {
			fmt.Fprintln(stdout, "(w,r) compliance: OK")
		}
	}
	if *metrics {
		fmt.Fprintln(stdout, "metrics:")
		if err := meter.Registry().Snapshot().WriteText(stdout); err != nil {
			return die(err)
		}
	}
	if spanTr != nil {
		fmt.Fprintf(stdout, "spans: %d completed (%d live, %d missed), ~1/%d of packet IDs\n",
			spanTr.DoneTotal(), spanTr.Live(), spanTr.Missed(), *spans)
		if err := spanTr.WriteResidenceText(stdout); err != nil {
			return die(err)
		}
	}
	if fr != nil {
		// The trace file carries the whole telemetry tail: flight events,
		// then completed spans, then sampler series — all one JSONL
		// schema, self-validated on write (the contract `make
		// trace-smoke` relies on).
		dumps := []func(io.Writer) error{fr.DumpJSONL}
		if spanTr != nil {
			dumps = append(dumps, spanTr.DumpJSONL)
		}
		n, err := obs.WriteJSONLFile(*trace, append(dumps, sam.DumpJSONL)...)
		if err != nil {
			return die(err)
		}
		fmt.Fprintf(stdout, "trace: %d events written to %s (%d recorded, %d overwritten), schema OK\n",
			n, *trace, fr.Total(), fr.Overwritten())
	}
	if *csv != "" {
		f, err := os.Create(*csv)
		if err != nil {
			return die(err)
		}
		if err := errors.Join(writeCSV(f, sam), f.Close()); err != nil {
			return die(err)
		}
		fmt.Fprintf(stdout, "series written to %s\n", *csv)
	}
	tel.finish(*serveHold)
	if violation != nil {
		return 1
	}
	return 0
}

// writeCSV writes the sampler's backlog and queue_max series as
// "t,total_queued,max_queue" rows.
func writeCSV(w io.Writer, sam *obs.Sampler) error {
	series := sam.Series()
	backlog, qmax := series[0].Points, series[1].Points
	if _, err := fmt.Fprintln(w, "t,total_queued,max_queue"); err != nil {
		return err
	}
	for i, p := range backlog {
		if _, err := fmt.Fprintf(w, "%d,%d,%d\n", p.T, p.V, qmax[i].V); err != nil {
			return err
		}
	}
	return nil
}

// asciiPlot renders a backlog series as a crude fixed-size ASCII chart
// for terminal reports. width and height are clamped to sane minima.
// When several points fall into one column the column shows their
// maximum — point-sampling one value per column would let a
// single-step spike vanish from the plot entirely.
func asciiPlot(points []obs.Point, width, height int) string {
	width, height = max(width, 10), max(height, 3)
	if len(points) == 0 {
		return "(no samples)\n"
	}
	var maxV int64 = 1
	for _, p := range points {
		maxV = max(maxV, p.V)
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	// Per-column max: every point lands in exactly one column, so no
	// spike is lost. Columns without a point of their own (fewer points
	// than columns) fall back to the nearest-point mapping.
	n := len(points)
	colMax := make([]int64, width)
	colSet := make([]bool, width)
	for i, p := range points {
		x := 0
		if n > 1 {
			x = i * (width - 1) / (n - 1)
		}
		if !colSet[x] || p.V > colMax[x] {
			colSet[x], colMax[x] = true, p.V
		}
	}
	for x := 0; x < width; x++ {
		v := colMax[x]
		if !colSet[x] {
			v = points[x*(n-1)/(width-1)].V
		}
		y := int(v * int64(height-1) / maxV)
		grid[height-1-y][x] = '*'
	}
	out := fmt.Sprintf("total queued (peak %d over %d samples)\n", maxV, n)
	for _, row := range grid {
		out += string(row) + "\n"
	}
	return out
}

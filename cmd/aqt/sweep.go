package main

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"aqt/internal/baselines"
	"aqt/internal/rational"
	"aqt/internal/stability"
)

// cmdSweep measures how the gadget pump's growth factor depends on the
// injection rate and the pipeline depth n — the quantitative heart of
// the paper: the pump multiplies the queue by 2(1 − R_n), which
// exceeds 1 exactly when rⁿ < 2r − 1, and approaches 2r as n → ∞, so
// arbitrarily small ε = r − 1/2 suffices with deep chains. The probes
// fan out across baselines.PumpGrid's worker pool; output is
// byte-identical at any -workers value.
//
//	aqt sweep -n 9 -from 0.5 -to 0.8 -points 7 [-scap 2000] [-workers 8]
//	aqt sweep -rate 0.7 -depths 3,4,6,9,12
func cmdSweep(args []string, out, errw io.Writer) int {
	fs := newFlags("sweep", errw)
	n := fs.Int("n", 9, "gadget depth for the rate sweep")
	from := fs.Float64("from", 0.5, "rate sweep start")
	to := fs.Float64("to", 0.8, "rate sweep end")
	points := fs.Int("points", 7, "rate sweep points")
	rate := fs.Float64("rate", 0, "fixed rate for a depth sweep (0 = rate sweep mode)")
	depths := fs.String("depths", "3,4,6,9,12", "depths for the depth sweep")
	sCap := fs.Int64("scap", 3000, "cap on the pump size S")
	workers := fs.Int("workers", 0, "probe worker pool size (0 = GOMAXPROCS)")
	progress := fs.Bool("progress", false, "live probe-progress status line on stderr")
	serve := fs.String("serve", "", "serve live sweep progress (/progress /healthz /debug/pprof) on this address while probing")
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}

	for _, f := range []float64{*from, *to, *rate} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fail(errw, "sweep", fmt.Errorf("bad rate %v", f))
		}
	}
	if *points < 0 {
		return fail(errw, "sweep", fmt.Errorf("bad -points %d", *points))
	}
	if *n < 1 {
		return fail(errw, "sweep", fmt.Errorf("-n must be >= 1, got %d", *n))
	}
	var pts []stability.Point
	if *rate > 0 {
		r := rational.FromFloat(*rate, 4096)
		for _, ds := range strings.Split(*depths, ",") {
			d, err := strconv.Atoi(strings.TrimSpace(ds))
			if err != nil || d < 1 {
				fmt.Fprintf(errw, "aqt sweep: bad depth %q\n", ds)
				return 2
			}
			pts = append(pts, stability.Point{Rate: r, Depth: d})
		}
	} else {
		pts = make([]stability.Point, *points)
		for i := range pts {
			f := *from
			if *points > 1 {
				f += (*to - *from) * float64(i) / float64(*points-1)
			}
			pts[i] = stability.Point{Rate: rational.FromFloat(f, 4096), Depth: *n}
		}
	}
	tel, err := startTelemetry(*serve, *progress, errw)
	if err != nil {
		fmt.Fprintln(errw, err)
		return 1
	}
	grid := baselines.PumpGrid(pts, *sCap, *workers, tel.progress())
	tel.finish(false)
	if *rate > 0 {
		fmt.Fprintf(out, "depth sweep at r = %v:\n", pts[0].Rate)
		fmt.Fprintf(out, "%6s %10s %8s %8s %8s %8s\n", "n", "r*(n)", "S", "S'", "growth", "pumps")
	} else {
		fmt.Fprintf(out, "rate sweep at depth n = %d (threshold r*(%d) = %.4f):\n",
			*n, *n, baselines.DepthThreshold(*n, 20).Float())
		fmt.Fprintf(out, "%8s %8s %8s %8s %8s\n", "r", "S", "S'", "growth", "pumps")
	}
	for _, gr := range grid {
		if gr.Panic != "" {
			fmt.Fprintf(errw, "aqt sweep: probe %v panicked: %s\n", gr.Point, gr.Panic)
			return 1
		}
		res := gr.Value
		growth := float64(res.Measured) / float64(res.S)
		if *rate > 0 {
			thr := baselines.DepthThreshold(gr.Point.Depth, 20)
			fmt.Fprintf(out, "%6d %10.4f %8d %8d %8.4f %8v\n",
				gr.Point.Depth, thr.Float(), res.S, res.Measured, growth, res.Pumped())
		} else {
			fmt.Fprintf(out, "%8.4f %8d %8d %8.4f %8v\n",
				gr.Point.Rate.Float(), res.S, res.Measured, growth, res.Pumped())
		}
	}
	return 0
}

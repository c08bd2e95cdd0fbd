package main

import (
	"strings"
	"testing"

	"aqt/internal/graph"
	"aqt/internal/obs"
	"aqt/internal/packet"
	"aqt/internal/policy"
	"aqt/internal/sim"
)

// sampledLine seeds five packets on a one-edge line, runs it for steps
// under a sampler of the given stride, and returns the sampler.
func sampledLine(every, steps int64) *obs.Sampler {
	g := graph.Line(1)
	e := sim.New(g, policy.FIFO{}, nil)
	sam := obs.NewSampler(obs.SamplerConfig{Every: every})
	sam.Attach(e)
	e.SeedN(5, packet.InjNamed(g, "e1"))
	e.Run(steps)
	return sam
}

func TestAsciiPlotBounds(t *testing.T) {
	if got := asciiPlot(nil, 1, 1); !strings.Contains(got, "no samples") {
		t.Errorf("empty plot = %q", got)
	}
	plot := asciiPlot(sampledLine(1, 3).Backlog(), 1, 1) // clamped to minima
	if len(strings.Split(plot, "\n")) < 4 {
		t.Errorf("plot too small:\n%s", plot)
	}
}

// TestAsciiPlotSpikeVisible: a single-point spike must appear in the
// plot. Point-sampling one value per column used to skip it entirely
// unless it landed on a sampled index; per-column max cannot.
func TestAsciiPlotSpikeVisible(t *testing.T) {
	var points []obs.Point
	for i := 0; i < 200; i++ {
		v := int64(1)
		if i == 101 { // not on any width-20 point-sample index
			v = 100
		}
		points = append(points, obs.Point{T: int64(i + 1), V: v})
	}
	plot := asciiPlot(points, 20, 5)
	rows := strings.Split(plot, "\n")
	// rows[0] is the caption; rows[1] is the top band (the peak).
	if got := strings.Count(rows[1], "*"); got != 1 {
		t.Errorf("top plot row has %d stars, want the spike exactly once:\n%s", got, plot)
	}
	if !strings.Contains(plot, "peak 100") {
		t.Errorf("caption lost the peak:\n%s", plot)
	}
}

// TestWriteCSV: one header plus one row per sampled step, with the
// backlog and queue_max columns side by side.
func TestWriteCSV(t *testing.T) {
	sam := sampledLine(2, 6)
	var sb strings.Builder
	if err := writeCSV(&sb, sam); err != nil {
		t.Fatal(err)
	}
	// One packet leaves the seeded buffer per step.
	want := "t,total_queued,max_queue\n2,3,3\n4,1,1\n6,0,0\n"
	if sb.String() != want {
		t.Errorf("CSV = %q, want %q", sb.String(), want)
	}
	if !strings.Contains(asciiPlot(sam.Backlog(), 20, 5), "*") {
		t.Error("ascii plot empty")
	}
}

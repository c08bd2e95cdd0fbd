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

// TestSimCheckpointSplit: a run split by -checkpoint/-restore prints
// what the straight run prints, less the ns/step figure and the two
// checkpoint lines — the replayed prefix reaches every observer — and a
// checkpoint restored under other engine flags is refused.
func TestSimCheckpointSplit(t *testing.T) {
	ckpt := t.TempDir() + "/sim.ckpt.json"
	flags := []string{"sim", "-topo", "ring", "-size", "6", "-seed", "3", "-spans", "2", "-metrics"}
	run := func(extra ...string) (int, string) {
		code, stdout, _ := aqt(t, append(append([]string{}, flags...), extra...)...)
		var keep []string
		for _, line := range strings.Split(stdout, "\n") {
			if strings.HasPrefix(line, "restored ") || strings.HasPrefix(line, "checkpoint written ") {
				continue
			}
			if i := strings.LastIndex(line, ", "); i >= 0 && strings.HasSuffix(line, " ns/step") {
				line = line[:i]
			}
			keep = append(keep, line)
		}
		return code, strings.Join(keep, "\n")
	}
	code, straight := run("-steps", "2000")
	if code != 0 || !strings.Contains(straight, "spans: ") {
		t.Fatalf("straight run exit %d, output:\n%s", code, straight)
	}
	if code, _ := run("-steps", "800", "-checkpoint", ckpt); code != 0 {
		t.Fatalf("checkpointing run exit %d", code)
	}
	code, split := run("-steps", "1200", "-restore", ckpt)
	if code != 0 || split != straight {
		t.Errorf("split run (exit %d) differs from the straight run:\n--- split ---\n%s\n--- straight ---\n%s", code, split, straight)
	}
	code, stdout, stderr := aqt(t, append(append([]string{}, flags...), "-seed", "4", "-restore", ckpt)...)
	if code == 0 || stdout != "" || !strings.Contains(stderr, "source") {
		t.Errorf("restore under another seed: exit %d, stdout %q, stderr %q; want a source error", code, stdout, stderr)
	}
}

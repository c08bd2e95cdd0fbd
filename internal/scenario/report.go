package scenario

import (
	"fmt"
	"io"
)

// WriteReport renders the run outcome deterministically: no wall-clock
// fields, no map iteration, stable field order — the same spec and the
// same binary produce byte-identical output regardless of worker count
// or machine. cmd/aqt's golden test holds it to that.
func (b *Built) WriteReport(w io.Writer, out Outcome) {
	s := b.Spec
	fmt.Fprintf(w, "scenario %s", s.Name)
	if s.Experiment != "" {
		fmt.Fprintf(w, " (%s)", s.Experiment)
	}
	fmt.Fprintf(w, "\n  topology %s, %d edges; policy %s", s.Topology.Kind, b.Graph.NumEdges(), s.Policy.Default)
	if n := len(s.Policy.Edges); n > 0 {
		fmt.Fprintf(w, " (+%d per-edge overrides)", n)
	}
	fmt.Fprintf(w, "; adversary %s\n", s.Adversary.Kind)
	fmt.Fprintf(w, "  ran %d steps (%s): injected %d, absorbed %d, queued %d, max queue %d\n",
		out.Snap.Now, out.Mode, out.Snap.Injected, out.Snap.Absorbed,
		out.Snap.TotalQueued, out.Snap.MaxQueueLen)
	if s.Buffer != nil && s.Buffer.Cap > 0 {
		fmt.Fprintf(w, "  buffer cap %d (drop %s): dropped %d\n",
			s.Buffer.Cap, b.Engine.Drop().Name(), out.Snap.Dropped)
	}
	fmt.Fprintf(w, "  max residence %d", out.MaxResidence)
	if out.Leaps.Windows > 0 {
		fmt.Fprintf(w, "; leaped %d windows / %d steps", out.Leaps.Windows, out.Leaps.Steps)
	}
	fmt.Fprintln(w)
	if b.Meter != nil {
		ls := b.Meter.LatencySnapshot()
		fmt.Fprintf(w, "  latency: n=%d min=%d max=%d mean=%.2f\n", ls.Count, ls.Min, ls.Max, ls.Mean())
	}
	if b.Sampler != nil {
		fmt.Fprintf(w, "  backlog peak %d\n", b.Sampler.PeakTotal())
	}
	if s.Checks != nil {
		if out.OK() {
			fmt.Fprintf(w, "  checks: ok\n")
		} else {
			for _, f := range out.Failures {
				fmt.Fprintf(w, "  check FAILED: %s\n", f)
			}
		}
	}
}

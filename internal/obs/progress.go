package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// SweepProgress is one progress report from stability.SweepGridOpt,
// the parallel probe layer that also runs expt.RunAll's experiments
// and baselines.PumpGrid's probes. Emitted on every probe start and
// finish.
type SweepProgress struct {
	// Done counts finished probes; Total is the number of probes the
	// sweep will run.
	Done, Total int
	// InFlight counts probes currently running.
	InFlight int
	// Elapsed is the wall-clock time since the sweep started.
	Elapsed time.Duration
	// SlowestProbe is the longest single-probe duration seen so far
	// (the per-probe peak; 0 until a probe finishes).
	SlowestProbe time.Duration
}

// ETA estimates the remaining wall-clock time from the mean pace of
// the finished probes. It returns 0 — "no estimate" — until a probe
// finishes, when the sweep is already complete (Total <= Done), and
// for degenerate reports (non-positive Done or Elapsed), so a
// malformed report can never yield a negative or divide-by-zero ETA.
func (p SweepProgress) ETA() time.Duration {
	if p.Done <= 0 || p.Total <= p.Done || p.Elapsed <= 0 {
		return 0
	}
	per := p.Elapsed / time.Duration(p.Done)
	return per * time.Duration(p.Total-p.Done)
}

// String renders the canonical one-line form.
func (p SweepProgress) String() string {
	s := fmt.Sprintf("probes %d/%d", p.Done, p.Total)
	if p.InFlight > 0 {
		s += fmt.Sprintf(" (%d in flight)", p.InFlight)
	}
	s += fmt.Sprintf(" elapsed %s", p.Elapsed.Round(100*time.Millisecond))
	if eta := p.ETA(); eta > 0 {
		s += fmt.Sprintf(" eta %s", eta.Round(100*time.Millisecond))
	}
	if p.SlowestProbe > 0 {
		s += fmt.Sprintf(" slowest %s", p.SlowestProbe.Round(time.Millisecond))
	}
	return s
}

// ProgressFunc receives progress reports. Implementations must be
// safe for concurrent calls from worker goroutines; the ones the
// sweep layers pass are serialized under the sweep's own mutex, but
// the contract is on the consumer.
type ProgressFunc func(SweepProgress)

// StatusLine renders SweepProgress reports as a live, self-overwriting
// status line (carriage-return style) — the stderr UI behind the
// -progress flags. Updates are throttled to one per interval except
// the final report (Done == Total), which always renders. Call Finish
// to terminate the line with a newline once the sweep returns.
type StatusLine struct {
	mu       sync.Mutex
	w        io.Writer
	interval time.Duration
	last     time.Time
	lastLen  int
	wrote    bool
}

// NewStatusLine returns a status line writing to w, throttled to ~10
// updates per second.
func NewStatusLine(w io.Writer) *StatusLine {
	return &StatusLine{w: w, interval: 100 * time.Millisecond}
}

// SetInterval overrides the update throttle (0 = render every report).
func (s *StatusLine) SetInterval(d time.Duration) { s.interval = d }

// Progress returns the ProgressFunc to hand to a sweep layer.
func (s *StatusLine) Progress() ProgressFunc {
	return func(p SweepProgress) { s.Update(p) }
}

// Update renders one progress report, subject to throttling.
func (s *StatusLine) Update(p SweepProgress) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	final := p.Done >= p.Total
	if !final && s.wrote && now.Sub(s.last) < s.interval {
		return
	}
	s.last = now
	line := p.String()
	pad := s.lastLen - len(line)
	if pad < 0 {
		pad = 0
	}
	fmt.Fprintf(s.w, "\r%s%*s", line, pad, "")
	s.lastLen = len(line)
	s.wrote = true
}

// Finish ends the status line with a newline (no-op if nothing was
// written).
func (s *StatusLine) Finish() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wrote {
		fmt.Fprintln(s.w)
		s.wrote = false
		s.lastLen = 0
	}
}

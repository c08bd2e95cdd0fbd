// Parallel probe layer: every stability probe is an independent
// simulation (each builds its own graph, engine and adversary), so
// rate/depth sweeps and threshold searches fan out across goroutines.
// The ownership invariant the whole layer rests on: a probe owns every
// piece of simulator state it touches — workers never share an engine,
// an arena or a graph under construction — so the only synchronisation
// is the job/result handoff. Results are deterministic: SweepGrid
// returns them in input order regardless of worker count, and
// ParallelThresholdSearch walks the identical decision sequence as
// ThresholdSearch (workers only evaluate speculative future midpoints
// early), so both are bit-identical to their sequential counterparts
// for any deterministic probe.
package stability

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"aqt/internal/obs"
	"aqt/internal/rational"
)

// Point is one probe coordinate of a (rate, depth) sweep grid.
type Point struct {
	Rate  rational.Rat
	Depth int
}

// String formats the point for sweep reports.
func (p Point) String() string { return fmt.Sprintf("(r=%v, n=%d)", p.Rate, p.Depth) }

// GridResult couples one probe point with its outcome. Panic holds a
// recovered panic: a probe that crashes reports the message in its
// own result instead of taking the sweep (or the process) down, and
// never counts as a verdict.
type GridResult[P, V any] struct {
	Point P
	Value V
	Panic string
}

// SweepGrid evaluates probe at every point across a worker pool of the
// given size (workers <= 0 means GOMAXPROCS) and returns the results
// in input order. Points are independent by contract — probe must not
// share mutable state between calls; build one engine per call.
func SweepGrid[P, V any](points []P, probe func(P) V, workers int) []GridResult[P, V] {
	return SweepGridOpt(points, probe, workers, nil)
}

// SweepGridOpt is SweepGrid with sweep telemetry: onProgress (nil =
// none) is called on every probe start and finish with cumulative
// done/total/in-flight counts, elapsed time and the slowest probe seen
// so far. Progress emission is serialized under the tracker's mutex
// and adds nothing to the probe path when onProgress is nil; results
// are identical to SweepGrid either way.
func SweepGridOpt[P, V any](points []P, probe func(P) V, workers int, onProgress obs.ProgressFunc) []GridResult[P, V] {
	results := make([]GridResult[P, V], len(points))
	for i := range points {
		results[i].Point = points[i]
	}
	if len(points) == 0 {
		return results
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(points) {
		workers = len(points)
	}
	prog := newProgTracker(onProgress, len(points))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if prog == nil {
					gridProbe(&results[i], probe)
					continue
				}
				prog.begin()
				t0 := time.Now()
				gridProbe(&results[i], probe)
				prog.end(time.Since(t0))
			}
		}()
	}
	for i := range points {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results
}

// progTracker aggregates one sweep's progress counters and serializes
// emission to the caller's ProgressFunc. newProgTracker returns nil
// without a ProgressFunc, and the probe loop then skips it.
type progTracker struct {
	mu       sync.Mutex
	fn       obs.ProgressFunc
	start    time.Time
	total    int
	done     int
	inFlight int
	slowest  time.Duration
}

func newProgTracker(fn obs.ProgressFunc, total int) *progTracker {
	if fn == nil {
		return nil
	}
	return &progTracker{fn: fn, start: time.Now(), total: total}
}

func (p *progTracker) begin() {
	p.mu.Lock()
	p.inFlight++
	p.emit()
	p.mu.Unlock()
}

func (p *progTracker) end(d time.Duration) {
	p.mu.Lock()
	p.inFlight--
	p.done++
	if d > p.slowest {
		p.slowest = d
	}
	p.emit()
	p.mu.Unlock()
}

func (p *progTracker) emit() {
	p.fn(obs.SweepProgress{
		Done:         p.done,
		Total:        p.total,
		InFlight:     p.inFlight,
		Elapsed:      time.Since(p.start),
		SlowestProbe: p.slowest,
	})
}

func gridProbe[P, V any](res *GridResult[P, V], probe func(P) V) {
	defer func() {
		if p := recover(); p != nil {
			res.Panic = fmt.Sprint(p)
		}
	}()
	res.Value = probe(res.Point)
}

// ParallelThresholdSearch is ThresholdSearch with a worker pool
// (workers <= 0 means GOMAXPROCS): while the bisection waits for the
// verdict it needs next, idle workers speculatively pre-probe the
// midpoints the search may visit after it — the frontier of the
// decision tree rooted at the current interval. Verdicts are memoised
// by grid index, the driver consumes them in the exact sequential
// decision order, and unstarted speculative probes are cancelled the
// moment the threshold resolves (in-flight probes are joined before
// returning, so no goroutine outlives the call). The result is
// bit-identical to ThresholdSearch for any deterministic probe; a
// probe panic re-panics on the caller's goroutine exactly when the
// sequential search would have hit it (panics at purely speculative
// points the sequential search never reaches are discarded).
func ParallelThresholdSearch(probe func(rate rational.Rat) Verdict, lo, hi rational.Rat, bits, workers int) rational.Rat {
	loI, hiI, den := snapGrid(lo, hi, bits)
	if hiI < loI {
		return rational.New(hiI+1, den)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	st := searchState{loI: loI, hiI: hiI}
	if workers <= 1 {
		// A 1-worker pool has no speculation to offer; run the decision
		// loop inline.
		for {
			idx, done, result := st.need()
			if done {
				return rational.New(result, den)
			}
			st = st.advance(probe(rational.New(idx, den)) == Diverging)
		}
	}

	s := &speculator{probe: probe, den: den, cells: make(map[int64]*specCell)}
	s.cond = sync.NewCond(&s.mu)
	for w := 0; w < workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	defer s.close()
	for {
		idx, done, result := st.need()
		if done {
			return rational.New(result, den)
		}
		s.schedule(frontier(st, workers))
		st = st.advance(s.await(idx))
	}
}

// frontier lists up to max distinct grid indices the search may probe
// within its next decisions, nearest first: the index needed now, then
// the two indices reachable after its verdict, and so on down the
// binary tree of bisection midpoints.
func frontier(st searchState, max int) []int64 {
	var out []int64
	seen := make(map[int64]bool, max)
	level := []searchState{st}
	for len(level) > 0 && len(out) < max {
		var next []searchState
		for _, s := range level {
			idx, done, _ := s.need()
			if done {
				continue
			}
			if !seen[idx] {
				seen[idx] = true
				out = append(out, idx)
				if len(out) >= max {
					return out
				}
			}
			next = append(next, s.advance(true), s.advance(false))
		}
		level = next
	}
	return out
}

// speculator is the memoising worker pool behind
// ParallelThresholdSearch. All fields after probe/den are guarded by
// mu; cells holds one entry per grid index ever scheduled.
type speculator struct {
	probe func(rational.Rat) Verdict
	den   int64

	mu     sync.Mutex
	cond   *sync.Cond
	cells  map[int64]*specCell
	queue  []int64
	closed bool
	wg     sync.WaitGroup
}

type specCell struct {
	done     bool
	diverges bool
	panicked bool
	panicVal any
}

// schedule enqueues every not-yet-scheduled index for the workers.
func (s *speculator) schedule(idxs []int64) {
	s.mu.Lock()
	for _, idx := range idxs {
		if s.cells[idx] == nil {
			s.cells[idx] = &specCell{}
			s.queue = append(s.queue, idx)
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// await blocks until the verdict at idx (previously scheduled) is
// available. A probe panic at an awaited index resurfaces here.
func (s *speculator) await(idx int64) bool {
	s.mu.Lock()
	cell := s.cells[idx]
	for !cell.done {
		s.cond.Wait()
	}
	s.mu.Unlock()
	if cell.panicked {
		s.close()
		panic(cell.panicVal)
	}
	return cell.diverges
}

// close cancels all unstarted work and joins the workers. Safe to call
// more than once.
func (s *speculator) close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.queue = nil // cancel-on-resolve: unstarted probes never run
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *speculator) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		idx := s.queue[0]
		s.queue = s.queue[1:]
		s.mu.Unlock()

		diverges, panicVal, panicked := s.runProbe(idx)

		s.mu.Lock()
		cell := s.cells[idx]
		cell.diverges, cell.panicVal, cell.panicked = diverges, panicVal, panicked
		cell.done = true
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

func (s *speculator) runProbe(idx int64) (diverges bool, panicVal any, panicked bool) {
	defer func() {
		if p := recover(); p != nil {
			panicVal, panicked = p, true
		}
	}()
	return s.probe(rational.New(idx, s.den)) == Diverging, nil, false
}

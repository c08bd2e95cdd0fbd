// Sampler is the simulator's one time-series recorder: a step observer
// that snapshots engine gauges every Every steps into per-metric time
// series, bounded by stride-doubling downsampling, and tracks the exact
// per-step peak backlog. The paper's stability statements (Theorem
// 3.17's backlog growth, the Theorem 4.1/4.3 bounds) are claims about
// exactly these trajectories; stability.Classify reads the backlog
// series.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"

	"aqt/internal/sim"
)

// Point is one sample of a metric time series.
type Point struct {
	T int64 `json:"t"`
	V int64 `json:"v"`
}

// Series is one named metric trajectory. Points are uniformly spaced
// at the sampler's current effective stride.
type Series struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
}

// Core series indices. The latency-quantile series exist only when a
// Meter is linked, and always follow the core block.
const (
	sBacklog = iota // TotalQueued
	sQueueMax
	sAbsorbed
	sDrops
	sHeapSkips
	sHeapComp
	numCoreSeries

	maxSeries = numCoreSeries + 2 // + latency_p50, latency_p99
)

var coreSeriesNames = [numCoreSeries]string{
	"backlog", "queue_max", "absorbed", "drops", "heap_skips", "heap_compactions",
}

// SamplerConfig configures a Sampler.
type SamplerConfig struct {
	// Every is the sampling stride in steps (<= 0 means 1: every step).
	Every int64
	// MaxSamples bounds each retained series; whenever an append would
	// exceed it the effective stride doubles (a power-of-two factor on
	// top of Every) and off-stride points are dropped, so the series
	// stays uniformly spaced. Storage grows by append, so a large bound
	// costs nothing until the points exist. <= 0 means 512; clamped to
	// a minimum of 16.
	MaxSamples int
	// Meter, when non-nil, adds latency_p50/latency_p99 series read
	// from the meter's sim.latency histogram at each sample step.
	Meter *Meter
}

// Sampler records per-metric time series from an engine's step hook.
// Off-sample steps cost a peak compare and one modulo; sample steps
// cost O(series), and once the series have grown to their MaxSamples
// bound they allocate nothing, so the engine hot path stays 0
// allocs/op with a Sampler attached.
//
// Like the engine it observes, a Sampler is goroutine-confined; live
// readers go through Server.PublishTelemetry snapshots.
type Sampler struct {
	// OnSample, when non-nil, runs after every appended sample batch —
	// the hook the telemetry Server uses to publish fresh snapshots at
	// sample boundaries without the engine ever sharing live state.
	OnSample func()

	every      int64
	maxSamples int
	meter      *Meter
	eng        *sim.Engine
	series     []Series
	factor     int64 // power-of-two downsampling factor (0 or 1 = none)
	peak       int64 // largest backlog seen at any step, sampled or not
}

// NewSampler returns a sampler with the given configuration. Attach it
// to an engine with Attach (not AddObserver directly: the sampler
// latches the engine for its leap-acceptance probe).
func NewSampler(cfg SamplerConfig) *Sampler {
	if cfg.Every < 1 {
		cfg.Every = 1
	}
	if cfg.MaxSamples <= 0 {
		cfg.MaxSamples = 512
	}
	if cfg.MaxSamples < 16 {
		cfg.MaxSamples = 16
	}
	s := &Sampler{every: cfg.Every, maxSamples: cfg.MaxSamples, meter: cfg.Meter}
	n := numCoreSeries
	if s.meter != nil {
		n += 2
	}
	s.series = make([]Series, n)
	for i := 0; i < numCoreSeries; i++ {
		s.series[i].Name = coreSeriesNames[i]
	}
	if s.meter != nil {
		s.series[numCoreSeries].Name = "latency_p50"
		s.series[numCoreSeries+1].Name = "latency_p99"
	}
	return s
}

// Attach registers the sampler on e and latches the engine reference
// the drain-acceptance probe needs.
func (s *Sampler) Attach(e *sim.Engine) {
	s.eng = e
	e.AddObserver(s)
}

// Every returns the configured base sampling stride.
func (s *Sampler) Every() int64 { return s.every }

// EffectiveEvery returns the current spacing of retained points: the
// base stride times the power-of-two downsampling factor.
func (s *Sampler) EffectiveEvery() int64 { return s.eff() }

// Series returns the recorded series (shared slices; read-only).
func (s *Sampler) Series() []Series { return s.series }

// Backlog returns the retained total-queued series (shared; read-only)
// — the trajectory stability.Classify judges.
func (s *Sampler) Backlog() []Point { return s.series[sBacklog].Points }

// PeakTotal returns the largest total backlog observed at any step,
// exact regardless of the sampling stride or downsampling.
func (s *Sampler) PeakTotal() int64 { return s.peak }

func (s *Sampler) eff() int64 {
	ev := s.every
	if s.factor > 1 {
		ev *= s.factor
	}
	return ev
}

// OnStep implements sim.Observer: a peak compare and a single modulo
// off sample steps, O(series) reads on them (every engine gauge the
// sampler reads is maintained incrementally).
func (s *Sampler) OnStep(e *sim.Engine) {
	tot := e.TotalQueued()
	if tot > s.peak {
		s.peak = tot
	}
	if e.Now()%s.eff() != 0 {
		return
	}
	var vals [maxSeries]int64
	s.gauges(e, &vals)
	vals[sBacklog] = tot
	vals[sQueueMax] = int64(e.MaxQueued())
	s.push(e.Now(), &vals)
}

// gauges fills the sample-time values of every series that is constant
// through a static leap window: the lifetime counters and — when a
// meter is linked — the latency quantiles.
func (s *Sampler) gauges(e *sim.Engine, vals *[maxSeries]int64) {
	st := e.Stats()
	vals[sAbsorbed] = e.Absorbed()
	vals[sDrops] = st.Drops
	vals[sHeapSkips] = st.HeapSkips
	vals[sHeapComp] = st.HeapCompactions
	if s.meter != nil {
		ls := s.meter.LatencySnapshot()
		vals[numCoreSeries] = ls.Quantile(0.50)
		vals[numCoreSeries+1] = ls.Quantile(0.99)
	}
}

// push appends one aligned point to every series, re-establishes the
// MaxSamples bound and fires the OnSample hook.
func (s *Sampler) push(t int64, vals *[maxSeries]int64) {
	for i := range s.series {
		s.series[i].Points = append(s.series[i].Points, Point{T: t, V: vals[i]})
	}
	for len(s.series[0].Points) > s.maxSamples {
		s.downsample()
	}
	if s.OnSample != nil {
		s.OnSample()
	}
}

// downsample doubles the effective stride and drops off-stride points
// from every series, keeping them aligned with each other.
func (s *Sampler) downsample() {
	if s.factor < 1 {
		s.factor = 1
	}
	s.factor *= 2
	eff := s.every * s.factor
	for i := range s.series {
		kept := s.series[i].Points[:0]
		for _, p := range s.series[i].Points {
			if p.T%eff == 0 {
				kept = append(kept, p)
			}
		}
		s.series[i].Points = kept
	}
}

// AcceptLeap implements sim.LeapObserver. Idle windows are always
// reconstructible (every gauge is constant, backlog and max are zero).
// A drain window keeps the counter series constant only if no keyed
// tombstone exists when it opens — the drain pops through the keyed
// heaps, and a stranded entry would bump HeapSkips (and possibly
// HeapCompactions) mid-window at a step the closed form cannot place.
// Latency quantiles change per absorption, so a meter-linked sampler
// refuses drains outright (as the Meter itself does).
func (s *Sampler) AcceptLeap(kind sim.LeapKind) bool {
	if kind == sim.LeapIdle {
		return true
	}
	return s.meter == nil && s.eng != nil && s.eng.HeapStaleTotal() == 0
}

// OnLeap implements sim.LeapObserver by reconstructing the samples
// and peak OnStep would have recorded across the window. Fired before
// the engine mutates, so the occupancy histogram still describes the
// window's start. Idle: every series is constant (backlog and max
// zero). Drain: every nonempty buffer sheds exactly one final-edge
// packet per step, so backlog(dt) = Σ_{l>dt} (l−dt)·edges(l), max(dt)
// = curMax−dt, and — nothing injected or dropped — absorbed(dt) =
// absorbed₀ + backlog₀ − backlog(dt).
func (s *Sampler) OnLeap(e *sim.Engine, info sim.LeapInfo) {
	var vals [maxSeries]int64
	s.gauges(e, &vals)
	type lvl struct{ l, cnt int64 }
	var levels []lvl
	var tot0, curMax int64
	if info.Kind == sim.LeapDrain {
		e.EachQueueLen(func(l, edges int) {
			if l > 0 {
				levels = append(levels, lvl{int64(l), int64(edges)})
			}
		})
		curMax = int64(e.MaxQueued())
		tot0 = e.TotalQueued()
	}
	backlog := func(dt int64) int64 {
		var tot int64
		for _, lv := range levels {
			if lv.l > dt {
				tot += (lv.l - dt) * lv.cnt
			}
		}
		return tot
	}
	// The backlog is nonincreasing inside a static window, so the only
	// candidate peak is its first step.
	if tot := backlog(1); tot > s.peak {
		s.peak = tot
	}
	absorbed0 := e.Absorbed()
	// Sampled steps: every effective-stride multiple in (From, To]. The
	// stride is re-read after each append because appending may trigger
	// downsampling, exactly as the per-step path interleaves them.
	eff := s.eff()
	for t := (info.From/eff + 1) * eff; t <= info.To; {
		if info.Kind == sim.LeapDrain {
			dt := t - info.From
			tot := backlog(dt)
			vals[sBacklog] = tot
			if curMax > dt {
				vals[sQueueMax] = curMax - dt
			} else {
				vals[sQueueMax] = 0
			}
			vals[sAbsorbed] = absorbed0 + tot0 - tot
		}
		s.push(t, &vals)
		eff = s.eff()
		t = (t/eff + 1) * eff
	}
}

// DumpJSONL writes every retained point as one schema-validated JSONL
// line per point: {"t":..,"kind":"sample","label":"<series>","v":..},
// series by series in registration order, time-ordered within each.
func (s *Sampler) DumpJSONL(w io.Writer) error {
	return WriteSeriesJSONL(w, s.series)
}

// WriteSeriesJSONL writes series as schema-validated "sample" JSONL
// lines — the /series wire form, shared by the server and the -trace
// dumps.
func WriteSeriesJSONL(w io.Writer, series []Series) error {
	bw := bufio.NewWriter(w)
	for i := range series {
		for _, p := range series[i].Points {
			if _, err := fmt.Fprintf(bw, `{"t":%d,"kind":"sample","label":%q,"v":%d}`+"\n",
				p.T, series[i].Name, p.V); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// SeriesInto copies the sampler's series into *dst, reusing its
// backing storage; once the copies have grown to the series' largest
// length it allocates nothing. The server publisher runs this at every
// sample boundary.
func (s *Sampler) SeriesInto(dst *[]Series) {
	d := *dst
	if cap(d) < len(s.series) {
		d = make([]Series, len(s.series))
	}
	d = d[:len(s.series)]
	for i := range s.series {
		d[i].Name = s.series[i].Name
		d[i].Points = append(d[i].Points[:0], s.series[i].Points...)
	}
	*dst = d
}

// SeriesState is one series' serializable state.
type SeriesState struct {
	Name   string  `json:"name"`
	Points []Point `json:"points,omitempty"`
}

// SamplerState is the serializable dynamic state of a Sampler:
// configuration, downsampling factor, the exact peak backlog and the
// retained series. Restoring it onto a same-shaped fresh sampler
// reproduces the uninterrupted series, including future stride-doubling
// points.
type SamplerState struct {
	Every      int64         `json:"every"`
	MaxSamples int           `json:"max_samples"`
	Factor     int64         `json:"factor,omitempty"`
	PeakTotal  int64         `json:"peak_total,omitempty"`
	Series     []SeriesState `json:"series"`
}

// CheckpointState extracts the sampler's state (points are copied).
func (s *Sampler) CheckpointState() SamplerState {
	st := SamplerState{Every: s.every, MaxSamples: s.maxSamples, Factor: s.factor, PeakTotal: s.peak}
	for i := range s.series {
		st.Series = append(st.Series, SeriesState{
			Name:   s.series[i].Name,
			Points: append([]Point(nil), s.series[i].Points...),
		})
	}
	return st
}

// maxSamplerBound caps a restored MaxSamples.
const maxSamplerBound = 1 << 20

// RestoreState overwrites the sampler with a previously extracted
// state. The state's series set must exactly match the sampler's
// configuration — in particular, latency series must be present iff a
// meter is linked. Malformed state is rejected with an error, never a
// panic: it is reachable from fuzzed checkpoint documents.
func (s *Sampler) RestoreState(st SamplerState) error {
	if st.Every < 1 {
		return fmt.Errorf("sampler state: every %d < 1", st.Every)
	}
	if st.MaxSamples < 16 || st.MaxSamples > maxSamplerBound {
		return fmt.Errorf("sampler state: max_samples %d outside [16,%d]", st.MaxSamples, maxSamplerBound)
	}
	// A factor off the power-of-two ladder, or one whose effective
	// stride overflows int64 (every*factor wrapping to 0 would divide by
	// zero in the next OnStep), never came from a real run.
	if st.Factor < 0 || st.Factor&(st.Factor-1) != 0 {
		return fmt.Errorf("sampler state: factor %d is not 0, 1 or a power of two", st.Factor)
	}
	if st.Factor > 1 && st.Every > math.MaxInt64/st.Factor {
		return fmt.Errorf("sampler state: every %d × factor %d overflows", st.Every, st.Factor)
	}
	if st.PeakTotal < 0 {
		return fmt.Errorf("sampler state: negative peak_total %d", st.PeakTotal)
	}
	eff := st.Every
	if st.Factor > 1 {
		eff *= st.Factor
	}
	if len(st.Series) != len(s.series) {
		return fmt.Errorf("sampler state: %d series, sampler configured with %d", len(st.Series), len(s.series))
	}
	for i := range st.Series {
		if st.Series[i].Name != s.series[i].Name {
			return fmt.Errorf("sampler state: series[%d] is %q, sampler configured with %q",
				i, st.Series[i].Name, s.series[i].Name)
		}
		if len(st.Series[i].Points) > st.MaxSamples {
			return fmt.Errorf("sampler state: series %q retains %d points, max %d",
				st.Series[i].Name, len(st.Series[i].Points), st.MaxSamples)
		}
		if len(st.Series[i].Points) != len(st.Series[0].Points) {
			return fmt.Errorf("sampler state: series %q has %d points, %q has %d (series must stay aligned)",
				st.Series[i].Name, len(st.Series[i].Points), st.Series[0].Name, len(st.Series[0].Points))
		}
		for j, p := range st.Series[i].Points {
			if j > 0 && p.T <= st.Series[i].Points[j-1].T {
				return fmt.Errorf("sampler state: series %q point %d time %d not increasing", st.Series[i].Name, j, p.T)
			}
			if p.T != st.Series[0].Points[j].T {
				return fmt.Errorf("sampler state: series %q point %d at t=%d, %q at t=%d (series must stay aligned)",
					st.Series[i].Name, j, p.T, st.Series[0].Name, st.Series[0].Points[j].T)
			}
			if p.T < 1 || p.T%eff != 0 {
				return fmt.Errorf("sampler state: series %q point %d at t=%d off the effective stride %d",
					st.Series[i].Name, j, p.T, eff)
			}
		}
	}
	s.every = st.Every
	s.maxSamples = st.MaxSamples
	s.factor = st.Factor
	s.peak = st.PeakTotal
	for i := range s.series {
		s.series[i].Points = append(s.series[i].Points[:0], st.Series[i].Points...)
	}
	return nil
}

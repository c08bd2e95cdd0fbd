package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"

	"aqt/internal/adversary"
	"aqt/internal/graph"
	"aqt/internal/obs"
	"aqt/internal/policy"
	"aqt/internal/sim"
)

// Load reads and fully validates a scenario file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(filepath.Base(path), data)
}

// Parse decodes and fully validates a spec. file labels error messages
// ("" for anonymous input). Every rejection is an *Error carrying the
// 1-based line and JSON path of the offending value: unknown fields
// are caught at their position, type mismatches via the decoder's byte
// offset, and semantic violations via the path map recorded during the
// strict walk.
func Parse(file string, data []byte) (*Spec, error) {
	lines, err := strictCheck(file, data, reflect.TypeOf(Spec{}))
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		li := newLineIndex(data)
		switch e := err.(type) {
		case *json.UnmarshalTypeError:
			return nil, &Error{File: file, Line: li.line(e.Offset), Path: e.Field,
				Msg: fmt.Sprintf("cannot decode %s into %s", e.Value, e.Type)}
		case *json.SyntaxError:
			return nil, &Error{File: file, Line: li.line(e.Offset), Msg: e.Error()}
		}
		return nil, &Error{File: file, Line: 1, Msg: err.Error()}
	}
	if _, err := compile(ctx{file: file, lines: lines}, &s); err != nil {
		return nil, err
	}
	return &s, nil
}

// Built is a compiled, instantiated scenario: graph, engine (policy
// table applied, adversary installed, observers attached, initial
// configuration seeded) — one step away from running.
type Built struct {
	Spec   *Spec
	Graph  *graph.Graph
	Engine *sim.Engine

	// Observers requested by the run block (nil when absent). The
	// "recorder" and "sampler" observer names both build Sampler;
	// "latency" and "meter" both build Meter.
	Window  *adversary.WindowValidator
	Meter   *obs.Meter
	Sampler *obs.Sampler
	Spans   *obs.SpanTracer

	src string // checkpoint source, computed on first use (checkpoint.go)
}

// Build validates the spec and instantiates it. Observers are attached
// before seeding, so validators and recorders see the initial
// configuration, matching the hand-wired experiment order.
func Build(s *Spec) (*Built, error) {
	return build(ctx{}, s)
}

// BuildFile is Build with error messages positioned against the
// original file (as returned by a prior Parse of the same bytes).
func BuildFile(path string) (*Built, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	file := filepath.Base(path)
	s, err := Parse(file, data)
	if err != nil {
		return nil, err
	}
	return build(ctx{file: file}, s)
}

func build(c ctx, s *Spec) (*Built, error) {
	comp, err := compile(c, s)
	if err != nil {
		return nil, err
	}
	cfg := sim.Config{BufferCap: comp.bufCap, Drop: comp.drop}
	if len(comp.perEdge) > 0 {
		perEdge := comp.perEdge
		// PolicyFor returning nil falls back to the default policy.
		cfg.PolicyFor = func(eid graph.EdgeID) policy.Policy { return perEdge[eid] }
	}
	var adv sim.Adversary
	if comp.makeAdv != nil {
		adv = comp.makeAdv()
	}
	e := sim.NewWithConfig(comp.g, comp.pol, adv, cfg)
	b := &Built{Spec: s, Graph: comp.g, Engine: e}
	for _, name := range s.Run.Observers {
		switch name {
		case ObsWindow:
			b.Window = adversary.NewWindowValidator(comp.winW, comp.winRate)
			e.AddObserver(b.Window)
		case ObsLatency, ObsMeter:
			if b.Meter == nil {
				b.Meter = obs.NewMeter(nil)
				e.AddObserver(b.Meter)
			}
		}
	}
	// Telemetry observers attach in a second pass: the sampler links to
	// the meter (latency-quantile series) regardless of the order the
	// spec listed them in.
	for _, name := range s.Run.Observers {
		switch name {
		case ObsRecorder, ObsSampler:
			if b.Sampler != nil {
				break
			}
			b.Sampler = obs.NewSampler(obs.SamplerConfig{
				Every: samplerStride(s.Run.Steps), Meter: b.Meter})
			b.Sampler.Attach(e)
		case ObsSpans:
			b.Spans = obs.NewSpanTracer(obs.SpanConfig{})
			b.Spans.Attach(e)
		}
	}
	for _, inj := range comp.seeds {
		e.Seed(inj)
	}
	return b, nil
}

// samplerStride matches `aqt sim`'s sizing: ~512 samples per run.
func samplerStride(steps int64) int64 {
	if s := steps / 512; s > 1 {
		return s
	}
	return 1
}

// Outcome is the deterministic result of running a built scenario:
// everything here is reproducible bit for bit (no wall-clock).
type Outcome struct {
	Mode         string
	Snap         sim.Snapshot
	Leaps        sim.LeapStats
	MaxResidence int64
	// Failures lists the post-run checks that did not hold (empty =
	// all requested checks passed).
	Failures []string
}

// OK reports whether every requested check passed.
func (o Outcome) OK() bool { return len(o.Failures) == 0 }

// Run executes the spec's run block (steps, mode) and evaluates its
// checks. Wall-clock nanoseconds are zeroed out of the snapshot so an
// Outcome is comparable across runs and machines.
func (b *Built) Run() Outcome { return b.RunMode(b.Spec.Run.Mode) }

// RunMode is Run under an explicit mode override ("", "step", "quiet"
// or "leap") — the hook the differential matrix uses to hold one spec
// to the same execution under all three engines paths.
func (b *Built) RunMode(mode string) Outcome { return b.runMode(mode, b.Spec.Run.Steps) }

// runMode runs n steps under mode and returns the outcome. The spec
// compiler admits only the three modes, so an unknown one is a caller
// bug.
func (b *Built) runMode(mode string, n int64) Outcome {
	if mode == "" {
		mode = ModeStep
	}
	if err := b.Engine.RunMode(mode, n); err != nil {
		panic("scenario: " + err.Error())
	}
	return b.outcome(mode)
}

// outcome captures the engine's result and evaluates the checks.
// Wall-clock nanoseconds are zeroed out of the snapshot.
func (b *Built) outcome(mode string) Outcome {
	out := Outcome{
		Mode:         mode,
		Snap:         b.Engine.Snap(),
		Leaps:        b.Engine.Leaps(),
		MaxResidence: b.Engine.MaxResidence(true),
	}
	out.Snap.Stats.Nanos = 0
	out.Failures = b.evalChecks()
	return out
}

// evalChecks runs the spec's post-run assertions, returning one
// message per failed check.
func (b *Built) evalChecks() []string {
	cs := b.Spec.Checks
	if cs == nil {
		return nil
	}
	var fails []string
	e := b.Engine
	if cs.Conservation {
		if msg := conservationViolation(e); msg != "" {
			fails = append(fails, msg)
		}
	}
	if cs.Drained {
		if q := e.TotalQueued(); q != 0 {
			fails = append(fails, fmt.Sprintf("drained: %d packets still queued", q))
		}
	}
	if cs.MinInjected > 0 {
		if inj := e.Injected(); inj < cs.MinInjected {
			fails = append(fails, fmt.Sprintf("min_injected: %d < %d", inj, cs.MinInjected))
		}
	}
	if cs.MaxResidence > 0 {
		if r := e.MaxResidence(true); r > cs.MaxResidence {
			fails = append(fails, fmt.Sprintf("max_residence: %d > %d", r, cs.MaxResidence))
		}
	}
	if cs.MaxBacklog > 0 && b.Sampler != nil {
		if p := b.Sampler.PeakTotal(); p > cs.MaxBacklog {
			fails = append(fails, fmt.Sprintf("max_backlog: peak %d > %d", p, cs.MaxBacklog))
		}
	}
	if cs.WindowCompliant && b.Window != nil {
		if err := b.Window.CheckAndNotify(e); err != nil {
			fails = append(fails, fmt.Sprintf("window_compliant: %v", err))
		}
	}
	if cs.MaxDropped != 0 {
		limit := cs.MaxDropped
		if limit < 0 { // -1 = exactly zero drops
			limit = 0
		}
		if d := e.Dropped(); d > limit {
			fails = append(fails, fmt.Sprintf("max_dropped: %d > %d", d, limit))
		}
	}
	return fails
}

// conservationViolation converts the engine's conservation panic into
// a check failure message ("" when conservation holds).
func conservationViolation(e *sim.Engine) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	e.CheckConservation()
	return ""
}

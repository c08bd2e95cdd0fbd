package scenario

import (
	"fmt"
	"strconv"
	"strings"

	"aqt/internal/adversary"
	"aqt/internal/baselines"
	"aqt/internal/gadget"
	"aqt/internal/graph"
	"aqt/internal/packet"
	"aqt/internal/policy"
	"aqt/internal/rational"
	"aqt/internal/sim"
)

// Validation caps. Specs are untrusted input (fuzzed, hand-edited), so
// every quantity that drives an allocation or a loop is bounded before
// anything is built. The caps sit far above every construction the
// experiments emit.
const (
	maxTopoEdges  = 1 << 16
	maxRunSteps   = int64(50_000_000)
	maxStreams    = 1 << 12
	maxPhases     = 1 << 8
	maxSeedTotal  = int64(1) << 21
	maxReplayPkts = int64(1) << 22
	maxRouteLen   = 1 << 12
	maxAttempts   = 1 << 10
	maxBufferCap  = 1 << 20
)

// Run modes (sim's).
const (
	ModeStep  = sim.ModeStep
	ModeQuiet = sim.ModeQuiet
	ModeLeap  = sim.ModeLeap
)

// Observer names.
const (
	ObsRecorder = "recorder"
	ObsLatency  = "latency"
	ObsWindow   = "window"
	ObsMeter    = "meter"
	ObsSampler  = "sampler"
	ObsSpans    = "spans"
)

// compiled is a validated spec resolved against its topology: concrete
// edge IDs, parsed rates, a policy table and an adversary factory
// (fresh adversary state per Build).
type compiled struct {
	spec    *Spec
	g       *graph.Graph
	pol     policy.Policy
	perEdge map[graph.EdgeID]policy.Policy
	makeAdv func() sim.Adversary // nil for kind "none"
	seeds   []packet.Injection
	winW    int64
	winRate rational.Rat
	bufCap  int            // 0 = unbounded
	drop    sim.DropPolicy // nil when bufCap == 0
}

// ctx carries the error-positioning state through compilation: the
// file name and the bytes the spec was parsed from (nil when it was
// not), which an error re-walks for its line.
type ctx struct {
	file string
	data []byte
}

func (c ctx) errf(path, format string, args ...interface{}) error {
	return &Error{File: c.file, Line: lineOf(c.data, path), Path: path,
		Msg: fmt.Sprintf(format, args...)}
}

// Validate checks the spec completely — structure is assumed (it came
// from Parse or from Go code), topology bounds, edge references, rate
// parses, adversary parameter admissibility, run block and check
// cross-requirements — without building an engine.
func (s *Spec) Validate() error {
	_, err := compile(ctx{}, s)
	return err
}

func compile(c ctx, s *Spec) (*compiled, error) {
	if s.Version != Version {
		return nil, c.errf("version", "unsupported spec version %d (this build reads version %d)", s.Version, Version)
	}
	if s.Name == "" {
		return nil, c.errf("name", "name must not be empty")
	}
	g, err := buildTopology(c, s.Topology)
	if err != nil {
		return nil, err
	}
	out := &compiled{spec: s, g: g}

	// Policy block.
	out.pol, err = policy.ByName(s.Policy.Default)
	if err != nil {
		return nil, c.errf("policy.default", "%v", err)
	}
	if len(s.Policy.Edges) > 0 {
		out.perEdge = make(map[graph.EdgeID]policy.Policy, len(s.Policy.Edges))
		for ref, name := range s.Policy.Edges {
			path := "policy.edges." + ref
			eid, err := resolveEdge(g, ref)
			if err != nil {
				return nil, c.errf(path, "%v", err)
			}
			pol, err := policy.ByName(name)
			if err != nil {
				return nil, c.errf(path, "%v", err)
			}
			out.perEdge[eid] = pol
		}
	}

	out.makeAdv, err = compileAdversary(c, g, "adversary", s.Adversary, true)
	if err != nil {
		return nil, err
	}

	// Buffer block (absent = unbounded).
	if b := s.Buffer; b != nil {
		if b.Cap < 0 || b.Cap > maxBufferCap {
			return nil, c.errf("buffer.cap", "cap must be in [0, %d] (0 = unbounded), got %d", maxBufferCap, b.Cap)
		}
		if b.Cap == 0 {
			if b.Drop != "" {
				return nil, c.errf("buffer.drop", "drop policy %q needs cap >= 1 (cap 0 is unbounded)", b.Drop)
			}
		} else {
			name := b.Drop
			if name == "" {
				name = "tail" // the engine's own bounded-mode default
			}
			drop, err := sim.DropByName(name)
			if err != nil {
				return nil, c.errf("buffer.drop", "%v", err)
			}
			out.bufCap, out.drop = b.Cap, drop
		}
	}

	// Seeds.
	var seedTotal int64
	for i, sd := range s.Seeds {
		path := fmt.Sprintf("seeds[%d]", i)
		route, err := resolveRoute(c, g, path+".route", sd.Route)
		if err != nil {
			return nil, err
		}
		n := sd.N
		if n == 0 {
			n = 1
		}
		if n < 0 {
			return nil, c.errf(path+".n", "seed count must be >= 1, got %d", n)
		}
		if n > maxSeedTotal-seedTotal {
			return nil, c.errf(path, "more than %d seed packets in total", maxSeedTotal)
		}
		seedTotal += n
		for k := int64(0); k < n; k++ {
			out.seeds = append(out.seeds, packet.Injection{Route: route, Tag: sd.Tag})
		}
	}

	// Run block.
	if s.Run.Steps < 0 || s.Run.Steps > maxRunSteps {
		return nil, c.errf("run.steps", "steps must be in [0, %d], got %d", maxRunSteps, s.Run.Steps)
	}
	switch s.Run.Mode {
	case "", ModeStep, ModeQuiet, ModeLeap:
	default:
		return nil, c.errf("run.mode", "unknown run mode %q (step|quiet|leap)", s.Run.Mode)
	}
	seen := map[string]bool{}
	for i, ob := range s.Run.Observers {
		path := fmt.Sprintf("run.observers[%d]", i)
		switch ob {
		case ObsRecorder, ObsLatency, ObsWindow, ObsMeter, ObsSampler, ObsSpans:
		default:
			return nil, c.errf(path, "unknown observer %q (recorder|latency|window|meter|sampler|spans)", ob)
		}
		if seen[ob] {
			return nil, c.errf(path, "duplicate observer %q", ob)
		}
		seen[ob] = true
	}
	if seen[ObsWindow] != (s.Run.Window != nil) {
		return nil, c.errf("run.window", `the "window" observer and the run.window block require each other`)
	}
	if s.Run.Window != nil {
		rate, err := rational.Parse(s.Run.Window.Rate)
		if err != nil {
			return nil, c.errf("run.window.rate", "%v", err)
		}
		// Admissibility up front, with the validator's own message.
		if err := adversary.CheckWindowRate(s.Run.Window.W, rate); err != nil {
			return nil, c.errf("run.window", "%v", err)
		}
		out.winW, out.winRate = s.Run.Window.W, rate
	}

	// Check cross-requirements.
	if cs := s.Checks; cs != nil {
		if cs.MinInjected < 0 || cs.MaxResidence < 0 || cs.MaxBacklog < 0 {
			return nil, c.errf("checks", "check thresholds must be >= 0")
		}
		if cs.MaxBacklog > 0 && !seen[ObsRecorder] && !seen[ObsSampler] {
			return nil, c.errf("checks.max_backlog", `max_backlog needs the "recorder" or "sampler" observer (peak backlog)`)
		}
		if cs.WindowCompliant && !seen[ObsWindow] {
			return nil, c.errf("checks.window_compliant", `window_compliant needs the "window" observer`)
		}
		if cs.MaxDropped < -1 {
			return nil, c.errf("checks.max_dropped", "max_dropped must be >= -1 (-1 = exactly zero drops), got %d", cs.MaxDropped)
		}
		if cs.MaxDropped != 0 && out.bufCap == 0 {
			return nil, c.errf("checks.max_dropped", "max_dropped needs a bounded buffer block (an unbounded engine never drops)")
		}
	}
	return out, nil
}

// buildTopology bounds the parameters, then constructs the graph. The
// builders' own panics (e.g. "graph: Ring needs n >= 2") are converted
// to line-positioned errors citing the builder message verbatim.
func buildTopology(c ctx, t TopologySpec) (g *graph.Graph, err error) {
	bound := func(ok bool, what string) error {
		if ok {
			return nil
		}
		return c.errf("topology", "topology too large: %s (cap %d edges)", what, maxTopoEdges)
	}
	defer func() {
		if r := recover(); r != nil {
			g, err = nil, c.errf("topology", "%v", r)
		}
	}()
	switch t.Kind {
	case "line":
		if err := bound(t.N <= maxTopoEdges, "line"); err != nil {
			return nil, err
		}
		return graph.Line(t.N), nil
	case "ring":
		if err := bound(t.N <= maxTopoEdges, "ring"); err != nil {
			return nil, err
		}
		return graph.Ring(t.N), nil
	case "complete":
		if err := bound(t.N <= 256, "complete"); err != nil {
			return nil, err
		}
		return graph.Complete(t.N), nil
	case "grid":
		if err := bound(t.Rows >= 0 && t.Rows <= 4096 && t.Cols >= 0 && t.Cols <= 4096 && t.Rows*t.Cols <= maxTopoEdges/4, "grid"); err != nil {
			return nil, err
		}
		return graph.Grid(t.Rows, t.Cols), nil
	case "twopaths":
		if err := bound(t.Len1 <= maxTopoEdges/2 && t.Len2 <= maxTopoEdges/2, "twopaths"); err != nil {
			return nil, err
		}
		return graph.TwoParallelPaths(t.Len1, t.Len2), nil
	case "dag":
		if err := bound(t.N <= 2048 && t.M <= maxTopoEdges, "dag"); err != nil {
			return nil, err
		}
		return graph.RandomDAG(t.N, t.M, t.Seed), nil
	case "chain":
		if err := bound(t.N <= 256 && t.M <= 128, "chain"); err != nil {
			return nil, err
		}
		return gadget.NewChain(t.N, t.M, t.Stitch).G, nil
	case "ladder":
		if err := bound(t.N <= maxTopoEdges/2, "ladder"); err != nil {
			return nil, err
		}
		return baselines.Ladder(t.N), nil
	default:
		return nil, c.errf("topology.kind",
			"unknown topology %q (line|ring|complete|grid|twopaths|dag|chain|ladder)", t.Kind)
	}
}

// NamedTopology builds the command-line topology name at one size
// parameter, under the same size caps and builder checks as a spec:
// ring, line and complete take n = size, grid is size×size, dag has
// size nodes and 2·size edges (seed 11), and geps is the paper's G_ε,
// a stitched chain of 3 gadgets of depth max(size, 3).
func NamedTopology(name string, size int) (*graph.Graph, error) {
	t := TopologySpec{Kind: name, N: size}
	switch name {
	case "ring", "line", "complete":
	case "grid":
		t.Rows, t.Cols = size, size
	case "dag":
		t.M, t.Seed = 2*size, 11
	case "geps":
		t = TopologySpec{Kind: "chain", N: max(size, 3), M: 3, Stitch: true}
	default:
		return nil, fmt.Errorf("unknown topology %q (ring|line|complete|grid|dag|geps)", name)
	}
	return buildTopology(ctx{}, t)
}

// resolveEdge resolves an edge reference: a name registered by the
// topology builder, or "#<id>" for unnamed edges.
func resolveEdge(g *graph.Graph, ref string) (graph.EdgeID, error) {
	if strings.HasPrefix(ref, "#") {
		id, err := strconv.Atoi(ref[1:])
		if err != nil || id < 0 || id >= g.NumEdges() {
			return graph.NoEdge, fmt.Errorf("bad edge ref %q (want \"#<id>\" with id in [0,%d))", ref, g.NumEdges())
		}
		return graph.EdgeID(id), nil
	}
	if id := g.EdgeByName(ref); id != graph.NoEdge {
		return id, nil
	}
	return graph.NoEdge, fmt.Errorf("unknown edge %q", ref)
}

func resolveRoute(c ctx, g *graph.Graph, path string, refs []string) ([]graph.EdgeID, error) {
	if len(refs) == 0 {
		return nil, c.errf(path, "route must not be empty")
	}
	if len(refs) > maxRouteLen {
		return nil, c.errf(path, "route longer than %d edges", maxRouteLen)
	}
	route := make([]graph.EdgeID, len(refs))
	for i, ref := range refs {
		eid, err := resolveEdge(g, ref)
		if err != nil {
			return nil, c.errf(fmt.Sprintf("%s[%d]", path, i), "%v", err)
		}
		route[i] = eid
	}
	if !g.IsSimplePath(route) {
		return nil, c.errf(path, "route %v is not a simple path in the topology", refs)
	}
	return route, nil
}

// compileAdversary validates one adversary block and returns a factory
// producing a fresh adversary (pacing state and all) per call, or nil
// for kind "none". Parameter violations cite the adversary package's
// Check* messages verbatim — a bad spec fails with exactly the error
// the equivalent hand-wired constructor would panic with.
func compileAdversary(c ctx, g *graph.Graph, path string, a AdversarySpec, allowSeq bool) (func() sim.Adversary, error) {
	// Reject fields that do not belong to the kind: a stray block is
	// almost always a typo'd kind, and silently ignoring it would run
	// a different scenario than the author wrote.
	requireOnly := func(kind string, ok ...bool) error {
		present := []struct {
			name string
			set  bool
		}{
			{"streams", a.Streams != nil},
			{"bursts", a.Bursts != nil},
			{"random", a.Random != nil},
			{"replay", a.Replay != nil},
			{"phases", a.Phases != nil},
		}
		for i, p := range present {
			if p.set && !ok[i] {
				return c.errf(path+"."+p.name, "%s adversary does not take %q", kind, p.name)
			}
		}
		return nil
	}
	switch a.Kind {
	case "none":
		if err := requireOnly("none", false, false, false, false, false); err != nil {
			return nil, err
		}
		return nil, nil

	case "script":
		if err := requireOnly("script", true, false, false, false, false); err != nil {
			return nil, err
		}
		if len(a.Streams) == 0 || len(a.Streams) > maxStreams {
			return nil, c.errf(path+".streams", "script needs 1..%d streams, got %d", maxStreams, len(a.Streams))
		}
		streams := make([]adversary.Stream, len(a.Streams))
		for i, ss := range a.Streams {
			p := fmt.Sprintf("%s.streams[%d]", path, i)
			if ss.Start < 0 {
				return nil, c.errf(p+".start", "start must be >= 0, got %d", ss.Start)
			}
			rate, err := rational.Parse(ss.Rate)
			if err != nil {
				return nil, c.errf(p+".rate", "%v", err)
			}
			route, err := resolveRoute(c, g, p+".route", ss.Route)
			if err != nil {
				return nil, err
			}
			st := adversary.Stream{Name: ss.Name, Start: ss.Start, Rate: rate,
				Budget: ss.Budget, Route: route, Tag: ss.Tag}
			if err := adversary.CheckStream(st); err != nil {
				return nil, c.errf(p, "%v", err)
			}
			streams[i] = st
		}
		return func() sim.Adversary { return adversary.NewScript(streams...) }, nil

	case "burst":
		if err := requireOnly("burst", false, true, false, false, false); err != nil {
			return nil, err
		}
		if len(a.Bursts) == 0 || len(a.Bursts) > maxStreams {
			return nil, c.errf(path+".bursts", "burst needs 1..%d streams, got %d", maxStreams, len(a.Bursts))
		}
		bursts := make([]adversary.BurstStream, len(a.Bursts))
		for i, bs := range a.Bursts {
			p := fmt.Sprintf("%s.bursts[%d]", path, i)
			if bs.Start < 0 {
				return nil, c.errf(p+".start", "start must be >= 0, got %d", bs.Start)
			}
			if bs.Burst > maxSeedTotal {
				return nil, c.errf(p+".burst", "burst larger than %d", maxSeedTotal)
			}
			route, err := resolveRoute(c, g, p+".route", bs.Route)
			if err != nil {
				return nil, err
			}
			st := adversary.BurstStream{Name: bs.Name, Start: bs.Start, Period: bs.Period,
				Burst: bs.Burst, Budget: bs.Budget, Route: route, Tag: bs.Tag}
			if err := adversary.CheckBurstStream(st); err != nil {
				return nil, c.errf(p, "%v", err)
			}
			bursts[i] = st
		}
		return func() sim.Adversary { return adversary.NewBurstScript(bursts...) }, nil

	case "random":
		if err := requireOnly("random", false, false, true, false, false); err != nil {
			return nil, err
		}
		if a.Random == nil {
			return nil, c.errf(path+".random", "random adversary needs the random block")
		}
		r := a.Random
		rate, err := rational.Parse(r.Rate)
		if err != nil {
			return nil, c.errf(path+".random.rate", "%v", err)
		}
		// (w,r) admissibility up front (Definition 2.1): a pair that
		// admits no injections is a spec bug, not an empty run.
		if err := adversary.CheckWindowRate(r.W, rate); err != nil {
			return nil, c.errf(path+".random", "%v", err)
		}
		if r.MaxLen < 1 {
			return nil, c.errf(path+".random.maxlen", "%v", adversary.ErrMaxLen)
		}
		if r.Attempts < 0 || r.Attempts > maxAttempts {
			return nil, c.errf(path+".random.attempts", "attempts must be in [0, %d]", maxAttempts)
		}
		w, maxLen, seed, attempts := r.W, r.MaxLen, r.Seed, r.Attempts
		return func() sim.Adversary {
			adv := adversary.NewRandomWR(g, w, rate, maxLen, seed)
			if attempts > 0 {
				adv.Attempts = attempts
			}
			return adv
		}, nil

	case "replay":
		if err := requireOnly("replay", false, false, false, true, false); err != nil {
			return nil, err
		}
		if a.Replay == nil {
			return nil, c.errf(path+".replay", "replay adversary needs the replay block")
		}
		rp := a.Replay
		routes := make([][]graph.EdgeID, len(rp.Routes))
		for i, refs := range rp.Routes {
			p := fmt.Sprintf("%s.replay.routes[%d]", path, i)
			route, err := resolveRoute(c, g, p, refs)
			if err != nil {
				return nil, err
			}
			routes[i] = route
		}
		// Plain comparisons per group; the path is formatted only for a
		// rejection.
		var total int64
		for i, gr := range rp.Injections {
			var msg string
			switch {
			case gr.T < 1:
				msg = fmt.Sprintf("injection step must be >= 1 (step 0 packets are seeds), got %d", gr.T)
			case gr.Route < 0 || gr.Route >= len(routes):
				msg = fmt.Sprintf("route index %d out of range [0,%d)", gr.Route, len(routes))
			case gr.N < 1:
				msg = fmt.Sprintf("injection count must be >= 1, got %d", gr.N)
			case gr.Tag < 0 || gr.Tag > len(rp.Tags):
				msg = fmt.Sprintf("tag index %d out of range [0,%d] (0 = untagged)", gr.Tag, len(rp.Tags))
			case gr.N > maxReplayPkts-total:
				msg = fmt.Sprintf("more than %d replayed packets in total", maxReplayPkts)
			default:
				total += gr.N
				continue
			}
			return nil, c.errf(fmt.Sprintf("%s.replay.injections[%d]", path, i), "%s", msg)
		}
		injections := rp.Injections
		tags := rp.Tags
		return func() sim.Adversary {
			s := adversary.NewSchedule(int(total))
			for _, gr := range injections {
				inj := packet.Injection{Route: routes[gr.Route]}
				if gr.Tag > 0 {
					inj.Tag = tags[gr.Tag-1]
				}
				s.Add(gr.T, inj, gr.N)
			}
			return s.Replay()
		}, nil

	case "sequence":
		if err := requireOnly("sequence", false, false, false, false, true); err != nil {
			return nil, err
		}
		if !allowSeq {
			return nil, c.errf(path, "sequence phases cannot nest another sequence")
		}
		if len(a.Phases) == 0 || len(a.Phases) > maxPhases {
			return nil, c.errf(path+".phases", "sequence needs 1..%d phases, got %d", maxPhases, len(a.Phases))
		}
		type phase struct {
			name  string
			until int64
			mk    func() sim.Adversary
		}
		phases := make([]phase, len(a.Phases))
		prev := int64(0)
		for i, ps := range a.Phases {
			p := fmt.Sprintf("%s.phases[%d]", path, i)
			if ps.Until <= prev {
				return nil, c.errf(p+".until", "phase untils must be strictly increasing and >= 1, got %d after %d", ps.Until, prev)
			}
			prev = ps.Until
			mk, err := compileAdversary(c, g, p+".adversary", ps.Adversary, false)
			if err != nil {
				return nil, err
			}
			phases[i] = phase{name: ps.Name, until: ps.Until, mk: mk}
		}
		return func() sim.Adversary {
			out := make([]adversary.Phase, len(phases))
			for i := range phases {
				ph := phases[i]
				// Done is guaranteed false while now <= until-1, which
				// is exactly the leap horizon contract of Phase.Until.
				horizon := ph.until - 1
				out[i] = adversary.Phase{
					Name: ph.name,
					Enter: func(*sim.Engine) sim.Adversary {
						if ph.mk == nil {
							return nil
						}
						return ph.mk()
					},
					Done:  func(e *sim.Engine) bool { return e.Now() >= ph.until },
					Until: &horizon,
				}
			}
			return adversary.NewSequence(out...)
		}, nil

	default:
		return nil, c.errf(path+".kind",
			"unknown adversary %q (none|script|burst|random|replay|sequence)", a.Kind)
	}
}

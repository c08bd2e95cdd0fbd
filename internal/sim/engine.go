// Package sim implements the discrete-time execution engine of the
// adversarial queuing model.
//
// Semantics follow section 2 of Lotker, Patt-Shamir and Rosén (SICOMP
// 2004) exactly. Time proceeds in global steps 1, 2, …; each step has
// two substeps:
//
//  1. Send: from every nonempty buffer, the policy picks one packet,
//     which crosses the buffer's edge.
//  2. Receive + inject: crossing packets are absorbed at their
//     destination or enqueued at the buffer of the next edge on their
//     route; then the adversary's new packets are injected into the
//     buffers of the first edges of their routes.
//
// Packets arriving at the same buffer in the same step are enqueued in
// a documented deterministic order: first transit arrivals in
// increasing upstream-edge-ID order, then injections in the order the
// adversary emitted them. All built-in policies break their remaining
// ties on this enqueue order, so executions are fully deterministic.
//
// Before the first step the engine may be seeded with an initial
// configuration (packets present "at time 0"), as the constructions of
// sections 3 and 4 of the paper require.
//
// Rerouting (Lemma 3.3): during a PreStep callback — i.e. at time t
// before the send substep — the adversary may replace the suffix of a
// packet's route beyond its current edge. The engine checks path
// contiguity; model-level admissibility (new edges, shared edge,
// historic policy) is checked by adversary.RerouteValidator.
package sim

import (
	"fmt"
	"sort"
	"time"

	"aqt/internal/buffer"
	"aqt/internal/graph"
	"aqt/internal/packet"
	"aqt/internal/policy"
)

// Adversary injects packets and optionally reroutes them. Both methods
// receive the engine for read access; they must mutate state only
// through the documented engine methods (ExtendRoute,
// ReplaceRouteSuffix).
type Adversary interface {
	// PreStep runs at the start of step t = e.Now(), before the send
	// substep; it may reroute packets.
	PreStep(e *Engine)
	// Inject runs in the second substep of step t = e.Now() and
	// returns the packets to inject at this step. The engine reads the
	// returned slice and the routes it references only until the next
	// Inject call and retains neither (admission copies each route, or
	// reuses the engine's stored copy of an equal one), so an adversary
	// may reuse and rewrite both across calls.
	Inject(e *Engine) []packet.Injection
}

// NopAdversary injects nothing. Useful for draining experiments.
type NopAdversary struct{}

// PreStep implements Adversary.
func (NopAdversary) PreStep(*Engine) {}

// Inject implements Adversary.
func (NopAdversary) Inject(*Engine) []packet.Injection { return nil }

// InjectFunc adapts a function to the Adversary interface (no
// rerouting).
type InjectFunc func(e *Engine) []packet.Injection

// PreStep implements Adversary.
func (InjectFunc) PreStep(*Engine) {}

// Inject implements Adversary.
func (f InjectFunc) Inject(e *Engine) []packet.Injection { return f(e) }

// Observer is notified after each completed step.
type Observer interface {
	OnStep(e *Engine)
}

// The event observers below receive packets under the lifetime rule of
// packet.Packet: a *Packet is valid from its admission until its
// OnAbsorb or OnDrop callbacks return, after which the engine zeroes
// and reuses it. An observer that keeps anything past that point
// copies it (IDs, tags, the route slice, which is immutable) instead
// of retaining the *Packet.

// InjectionObserver is additionally notified of every injection
// (including initial-configuration seeds, which arrive with t = 0).
type InjectionObserver interface {
	OnInject(t int64, p *packet.Packet)
}

// RerouteObserver is additionally notified of every route change.
type RerouteObserver interface {
	OnReroute(t int64, p *packet.Packet, oldRoute []graph.EdgeID)
}

// AbsorptionObserver is additionally notified when a packet reaches
// its destination and leaves the network. OnAbsorb is the last
// callback in which p is valid: the engine releases it once every
// AbsorptionObserver has returned. Leaped drain windows absorb without
// callbacks, so an observer that must see every absorption refuses
// them (see LeapObserver).
type AbsorptionObserver interface {
	OnAbsorb(t int64, p *packet.Packet)
}

// SendObserver is additionally notified of every send: during the first
// substep of step t, packet p was selected from the buffer of edge eid
// and is crossing it. The packet's Pos still points at eid when the
// callback fires.
type SendObserver interface {
	OnSend(t int64, eid graph.EdgeID, p *packet.Packet)
}

// MarkerObserver is notified of paper-level annotations — e.g. the
// adversary.Sequence phase markers the Lemma 3.6/3.13/3.15/3.16
// constructions emit — via Engine.Annotate.
type MarkerObserver interface {
	OnMarker(t int64, label string)
}

// FailureObserver is notified when an invariant check fails — the
// engine's own CheckConservation, or an external validator calling
// Engine.NotifyFailure before it reports/panics. The flight recorder
// (internal/obs) uses this to auto-dump the event tail.
type FailureObserver interface {
	OnFailure(e *Engine, reason string)
}

// Config tunes engine checking. The zero value enables full checking.
type Config struct {
	// SkipRouteCheck disables validation that injected routes are
	// simple directed paths. The model requires simplicity; disabling
	// is for stress tests only.
	SkipRouteCheck bool

	// PolicyFor, when non-nil, assigns a scheduling policy per edge
	// (heterogeneous networks in the sense of Koukopoulos et al.); the
	// engine's main policy serves as the default for edges where
	// PolicyFor returns nil. The keyed fast path is disabled in this
	// mode.
	PolicyFor func(e graph.EdgeID) policy.Policy

	// BufferCap bounds every edge buffer to at most BufferCap packets
	// (the Miller–Patt-Shamir–Rosenbaum bounded-buffer model; see
	// drop.go). 0, the default, is the paper's unbounded model.
	// Negative values panic.
	BufferCap int

	// Drop selects what to discard when a packet arrives at a full
	// buffer. Only consulted when BufferCap > 0; nil then defaults to
	// DropTail.
	Drop DropPolicy
}

// Engine executes one network under one policy and one adversary.
type Engine struct {
	g   *graph.Graph
	pol policy.Policy
	adv Adversary
	cfg Config

	now     int64
	buffers []buffer.Buffer
	active  []graph.EdgeID // edge IDs that may have nonempty buffers, always sorted
	inAct   []bool         // whether an edge ID is in active

	nextID  packet.ID
	nextSeq int64

	// Incremental max-queue tracking. Invariant (after every public
	// method returns): lenCnt[l] counts the edges whose buffer holds
	// exactly l packets (so sum(lenCnt) == NumEdges), curMax is the
	// largest l with lenCnt[l] > 0 (0 for an empty network), and —
	// unless maxDirty — maxEdge is the lowest edge ID whose buffer
	// holds curMax packets. Buffer lengths only ever change by ±1
	// (enqueue/send), so growLen/shrinkLen maintain curMax in O(1);
	// maxEdge is recomputed lazily by MaxQueueLen when a shrink made
	// the argmax unknown. The differential harness in
	// maxqueue_diff_test.go checks this invariant against a brute-force
	// scan after every step.
	lenCnt   []int32
	curMax   int
	maxEdge  graph.EdgeID
	maxDirty bool

	// slab stores every packet; buffers, inFlight and the slab's free
	// list hold int32 handles into it, never pointers. A slot is
	// released once the packet's OnAbsorb or OnDrop callbacks return,
	// and the next admission reuses it, so packet memory tracks the
	// backlog, not lifetime injections.
	slab packet.Slab

	// routes holds the immutable routes packets share (routes.go);
	// allocated on the first admission or reroute, so engine
	// construction allocates nothing for it.
	routes *routeStore

	// paths checks route simplicity for admit and reroutes
	// without allocating. It is per-engine scratch: engines run in
	// parallel (search probes) and never share one.
	paths graph.PathChecker

	stats StepStats

	injected     int64
	absorbed     int64
	dropped      int64           // bounded mode only (drop.go); 0 forever when BufferCap == 0
	dropsPerEdge []int64         // per-edge drop counters; nil in unbounded mode
	inFlight     []packet.Handle // scratch for the current step's senders
	observers    []Observer
	injObs       []InjectionObserver
	rerObs       []RerouteObserver
	absObs       []AbsorptionObserver
	sendObs      []SendObserver
	markObs      []MarkerObserver
	failObs      []FailureObserver
	dropObs      []DropObserver

	maxResidence int64 // max completed residence in one buffer
	started      bool  // true once Step has run; seeds then refused
	// midStep is true while stepCore runs its send/receive/inject
	// substeps; reroutes are legal only before them (from PreStep, or
	// between steps, which is equivalent to the next PreStep).
	midStep bool

	// Keyed-policy fast path (see keyed.go): non-nil when the policy
	// implements policy.Keyed. heapStale counts, per edge, the heap
	// entries stranded as tombstones by key-changing reroutes; it
	// drives the amortized compaction of popKeyed's lazy deletion.
	keyed     policy.Keyed
	heaps     []keyHeap
	heapStale []int
	// heapStaleTot is sum(heapStale), maintained incrementally so
	// leap-acceptance probes (obs.Sampler) can ask "any tombstones
	// anywhere?" in O(1) every window without an O(E) scan.
	heapStaleTot int

	// polFor holds the per-edge policies of a heterogeneous network
	// (nil in the homogeneous case).
	polFor []policy.Policy

	// Leap mode (see leap.go). nonFinal counts the queued packets NOT
	// sitting on the last edge of their route; nonFinal == 0 is the
	// closed-form drain regime (every send absorbs, no receives).
	// Maintained by enqueue, the send substep and ReplaceRouteSuffix.
	nonFinal  int64
	leapStats LeapStats

	// leapObs is backed by leapObsArr so that registering the usual one
	// or two leap-aware observers costs no heap allocation — engine
	// construction stays alloc-identical to the pre-leap engine
	// (TestNewEngineAllocs pins it).
	leapObs    []LeapObserver
	leapObsArr [4]LeapObserver
}

// New returns an engine over graph g using the given policy and
// adversary (nil means NopAdversary) with default config.
func New(g *graph.Graph, pol policy.Policy, adv Adversary) *Engine {
	return NewWithConfig(g, pol, adv, Config{})
}

// NewWithConfig is New with an explicit Config.
func NewWithConfig(g *graph.Graph, pol policy.Policy, adv Adversary, cfg Config) *Engine {
	if g == nil || pol == nil {
		panic("sim: nil graph or policy")
	}
	if adv == nil {
		adv = NopAdversary{}
	}
	if cfg.BufferCap < 0 {
		panic(fmt.Sprintf("sim: negative BufferCap %d", cfg.BufferCap))
	}
	if cfg.BufferCap > 0 && cfg.Drop == nil {
		cfg.Drop = DropTail{}
	}
	e := &Engine{
		g:       g,
		pol:     pol,
		adv:     adv,
		cfg:     cfg,
		buffers: make([]buffer.Buffer, g.NumEdges()),
		inAct:   make([]bool, g.NumEdges()),
		lenCnt:  make([]int32, 64),
		maxEdge: graph.NoEdge,
	}
	e.lenCnt[0] = int32(g.NumEdges())
	for i := range e.buffers {
		e.buffers[i].Bind(&e.slab)
	}
	e.leapObs = e.leapObsArr[:0]
	if cfg.BufferCap > 0 {
		// Allocated only in bounded mode, so unbounded construction
		// stays alloc-identical to the pre-bounded engine
		// (TestNewEngineAllocs pins it).
		e.dropsPerEdge = make([]int64, g.NumEdges())
	}
	if cfg.PolicyFor != nil {
		e.polFor = make([]policy.Policy, g.NumEdges())
		for eid := 0; eid < g.NumEdges(); eid++ {
			if p := cfg.PolicyFor(graph.EdgeID(eid)); p != nil {
				e.polFor[eid] = p
			} else {
				e.polFor[eid] = pol
			}
		}
	} else if k, ok := pol.(policy.Keyed); ok {
		e.keyed = k
		e.heaps = make([]keyHeap, g.NumEdges())
		e.heapStale = make([]int, g.NumEdges())
	}
	return e
}

// Graph returns the network.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Policy returns the scheduling policy.
func (e *Engine) Policy() policy.Policy { return e.pol }

// Adversary returns the adversary.
func (e *Engine) Adversary() Adversary { return e.adv }

// SetAdversary swaps the adversary. Sequenced constructions (the
// Theorem 3.17 driver) use this between phases.
func (e *Engine) SetAdversary(adv Adversary) {
	if adv == nil {
		adv = NopAdversary{}
	}
	e.adv = adv
}

// Now returns the index of the current (or last completed) step; 0
// before any step has run.
func (e *Engine) Now() int64 { return e.now }

// AddObserver registers a per-step observer; the event interfaces
// (InjectionObserver, RerouteObserver, AbsorptionObserver,
// SendObserver, MarkerObserver, FailureObserver) are detected
// automatically.
func (e *Engine) AddObserver(ob Observer) {
	e.observers = append(e.observers, ob)
	e.addEventInterfaces(ob)
}

// AddEventObserver registers an event-only observer: any of the event
// interfaces is detected and wired, but ob is NOT added to the OnStep
// dispatch list, so Run keeps its observerless fast path (RunQuiet) —
// the contract the flight recorder relies on. It panics if ob
// implements none of the event interfaces.
func (e *Engine) AddEventObserver(ob any) {
	if !e.addEventInterfaces(ob) {
		panic(fmt.Sprintf("sim: %T implements no event observer interface", ob))
	}
}

func (e *Engine) addEventInterfaces(ob any) bool {
	matched := false
	if io, ok := ob.(InjectionObserver); ok {
		e.injObs = append(e.injObs, io)
		matched = true
	}
	if ro, ok := ob.(RerouteObserver); ok {
		e.rerObs = append(e.rerObs, ro)
		matched = true
	}
	if ao, ok := ob.(AbsorptionObserver); ok {
		e.absObs = append(e.absObs, ao)
		matched = true
	}
	if so, ok := ob.(SendObserver); ok {
		e.sendObs = append(e.sendObs, so)
		matched = true
	}
	if mo, ok := ob.(MarkerObserver); ok {
		e.markObs = append(e.markObs, mo)
		matched = true
	}
	if fo, ok := ob.(FailureObserver); ok {
		e.failObs = append(e.failObs, fo)
		matched = true
	}
	if do, ok := ob.(DropObserver); ok {
		e.dropObs = append(e.dropObs, do)
		matched = true
	}
	if lo, ok := ob.(LeapObserver); ok {
		e.leapObs = append(e.leapObs, lo)
		matched = true
	}
	return matched
}

// Annotate emits a paper-level marker (e.g. a lemma phase name) to the
// registered MarkerObservers, timestamped with the current step. With
// none registered it is a no-op, so adversaries may annotate freely.
func (e *Engine) Annotate(label string) {
	for _, ob := range e.markObs {
		ob.OnMarker(e.now, label)
	}
}

// NotifyFailure reports a failed invariant to the registered
// FailureObservers (the flight recorder auto-dumps on it). Callers —
// CheckConservation, the adversary validators — invoke it before they
// panic or return the error, so the event tail is captured either way.
func (e *Engine) NotifyFailure(reason string) {
	for _, ob := range e.failObs {
		ob.OnFailure(e, reason)
	}
}

// Seed places a packet with the given route into the network as part
// of the initial configuration (time 0). It panics if called after the
// first step or if the route is invalid. It returns the admitted
// packet, valid until its OnAbsorb or OnDrop callbacks return, or nil
// when a bounded buffer drops the seed on arrival (its slot is then
// already released).
func (e *Engine) Seed(inj packet.Injection) *packet.Packet {
	if e.started {
		panic("sim: Seed after execution started")
	}
	return e.admit(inj, 0)
}

// SeedN seeds n identical packets.
func (e *Engine) SeedN(n int, inj packet.Injection) {
	for i := 0; i < n; i++ {
		e.Seed(inj)
	}
}

// admit creates a packet for inj at time t and enqueues it. In bounded
// mode the injection still counts as injected even when the first
// buffer is full and the drop policy discards the arrival — the packet
// then shows up in the drop accounting instead of a buffer, and the
// conservation law injected = absorbed + queued + dropped balances.
// Injection observers fire before the enqueue attempt (none reads
// enqueue-time state), so an event trace shows inject before drop.
//
// The route is checked once per distinct route: one equal to the route
// the store keeps for its first edge already passed the same check
// against the same immutable graph, so only a new route is checked
// before it is stored.
func (e *Engine) admit(inj packet.Injection, t int64) *packet.Packet {
	rs := e.routeStore()
	route := rs.stored(inj.Route)
	if route == nil {
		if !e.cfg.SkipRouteCheck && !e.paths.IsSimplePath(e.g, inj.Route) {
			panic(fmt.Sprintf("sim: injection route is not a simple path: %s",
				e.g.RouteString(inj.Route)))
		}
		route = rs.store(inj.Route)
	}
	// The slot is zeroed; fill it field by field (a composite-literal
	// assignment would copy the whole struct through a bulk barrier).
	h, p := e.slab.New()
	p.ID = e.nextID
	p.Route = route
	p.InjectedAt = t
	if inj.Tag != "" {
		p.Tag = inj.Tag
	}
	if inj.SourceName != "" {
		p.SourceName = inj.SourceName
	}
	e.nextID++
	e.injected++
	e.stats.Injections++
	for _, ob := range e.injObs {
		ob.OnInject(t, p)
	}
	if !e.tryEnqueue(h, p, t) {
		return nil
	}
	return p
}

// enqueue places p, the packet in slot h, at the back of the buffer of
// its current edge.
func (e *Engine) enqueue(h packet.Handle, p *packet.Packet, t int64) {
	p.ArrivedAt = t
	p.EnqueueSeq = e.nextSeq
	e.nextSeq++
	eid := p.CurrentEdge()
	if p.Pos < len(p.Route)-1 {
		e.nonFinal++
	}
	e.buffers[eid].PushBack(h)
	e.growLen(eid, e.buffers[eid].Len())
	if e.keyed != nil {
		e.heaps[eid].push(keyEntry{key: e.keyed.SelectionKey(p), seq: p.EnqueueSeq})
	}
	if !e.inAct[eid] {
		e.inAct[eid] = true
		e.insertActive(eid)
	}
}

// growLen records that edge eid's buffer grew from l-1 to l packets.
func (e *Engine) growLen(eid graph.EdgeID, l int) {
	if l >= len(e.lenCnt) {
		e.lenCnt = append(e.lenCnt, make([]int32, len(e.lenCnt))...)
	}
	e.lenCnt[l-1]--
	e.lenCnt[l]++
	switch {
	case l > e.curMax:
		// Strictly above the previous max: eid is the unique (hence
		// lowest) edge at the new max.
		e.curMax, e.maxEdge, e.maxDirty = l, eid, false
	case l == e.curMax && !e.maxDirty && eid < e.maxEdge:
		e.maxEdge = eid
	}
}

// shrinkLen records that edge eid's buffer shrank from l+1 to l.
func (e *Engine) shrinkLen(eid graph.EdgeID, l int) {
	e.lenCnt[l+1]--
	e.lenCnt[l]++
	if l+1 != e.curMax {
		return
	}
	if e.lenCnt[e.curMax] == 0 {
		// The max level emptied; lengths change by one, so the new max
		// is exactly one below (eid itself now sits there). Which edge
		// at that level has the lowest ID is unknown until queried.
		e.curMax--
		e.maxDirty = true
		if e.curMax == 0 {
			e.maxEdge, e.maxDirty = graph.NoEdge, false
		}
	} else if eid == e.maxEdge {
		e.maxDirty = true
	}
}

// insertActive places eid into the active list at its sorted position.
// Activation only happens on an empty→nonempty transition, so in the
// hot regimes (persistently backlogged buffers) this runs rarely; the
// sorted invariant lets Step iterate in edge-ID order with no per-step
// sort.
func (e *Engine) insertActive(eid graph.EdgeID) {
	i := sort.Search(len(e.active), func(i int) bool { return e.active[i] >= eid })
	e.active = append(e.active, 0)
	copy(e.active[i+1:], e.active[i:])
	e.active[i] = eid
}

// Step executes one time step and dispatches OnStep observers.
func (e *Engine) Step() {
	start := time.Now()
	e.stepCore()
	for _, ob := range e.observers {
		ob.OnStep(e)
	}
	e.stats.Nanos += time.Since(start).Nanoseconds()
}

// stepCore executes one time step without dispatching OnStep observers
// and without wall-clock accounting (callers attribute StepStats.Nanos,
// per step or per batch). Event observers — injection, reroute,
// absorption — still fire: they are wired into admit, ReplaceRouteSuffix
// and the receive substep, not into the per-step dispatch loop.
func (e *Engine) stepCore() {
	e.started = true
	e.now++
	e.adv.PreStep(e)
	e.midStep = true

	// Substep 1: send one packet from every nonempty buffer.
	// The active list is kept sorted by insertActive, so iterating it
	// visits edges in ID order (the documented determinism contract)
	// with no per-step sort; compact it in place, dropping edges whose
	// buffers have drained.
	e.inFlight = e.inFlight[:0]
	keep := e.active[:0]
	for _, eid := range e.active {
		buf := &e.buffers[eid]
		if buf.Len() == 0 {
			e.inAct[eid] = false
			continue
		}
		keep = append(keep, eid)
		var h packet.Handle
		switch {
		case e.keyed != nil:
			h = e.popKeyed(eid)
		case e.polFor != nil:
			h = buf.RemoveAt(e.polFor[eid].Select(buf, e.now))
		default:
			h = buf.RemoveAt(e.pol.Select(buf, e.now))
		}
		p := e.slab.Get(h)
		e.shrinkLen(eid, buf.Len())
		if p.Pos < len(p.Route)-1 {
			e.nonFinal--
		}
		if res := e.now - p.ArrivedAt; res > e.maxResidence {
			e.maxResidence = res
		}
		for _, ob := range e.sendObs {
			ob.OnSend(e.now, eid, p)
		}
		e.inFlight = append(e.inFlight, h)
	}
	e.active = keep
	e.stats.Sends += int64(len(e.inFlight))

	// Substep 2a: receive. inFlight is in upstream-edge-ID order, the
	// documented arrival tie-break. Receives counts only admitted
	// transit arrivals — a bounded buffer dropping the arrival records
	// a drop instead, and in unbounded mode tryEnqueue never refuses,
	// so the counter is unchanged from the pre-bounded engine.
	for _, h := range e.inFlight {
		p := e.slab.Get(h)
		p.Pos++
		if p.Pos == len(p.Route) {
			e.absorbed++
			for _, ob := range e.absObs {
				ob.OnAbsorb(e.now, p)
			}
			e.slab.Release(h)
			continue
		}
		if e.tryEnqueue(h, p, e.now) {
			e.stats.Receives++
		}
	}

	// Substep 2b: inject.
	for _, inj := range e.adv.Inject(e) {
		e.admit(inj, e.now)
	}
	e.stats.Steps++
	e.midStep = false
}

// Run executes n steps; every registered observer sees every step
// exactly once, as with repeated Step calls. Wall-clock time is
// accounted to StepStats.Nanos once per call, observer time included,
// so with no observers registered Run(n) is RunQuiet(n).
func (e *Engine) Run(n int64) {
	if n <= 0 {
		return
	}
	start := time.Now()
	for i := int64(0); i < n; i++ {
		e.stepCore()
		for _, ob := range e.observers {
			ob.OnStep(e)
		}
	}
	e.stats.Nanos += time.Since(start).Nanoseconds()
}

// RunQuiet executes n steps without dispatching OnStep observers,
// whether or not any are registered — the hot loop for threshold
// searches and batch experiments where per-step observation is
// unnecessary. Event observers (InjectionObserver, RerouteObserver,
// AbsorptionObserver) still fire. With zero observers registered,
// RunQuiet(n) and Run(n) produce identical executions (equivalence is
// asserted by TestRunQuietEquivalence). Wall-clock time is accounted to
// StepStats.Nanos once per batch instead of once per step.
func (e *Engine) RunQuiet(n int64) {
	if n <= 0 {
		return
	}
	start := time.Now()
	for i := int64(0); i < n; i++ {
		e.stepCore()
	}
	e.stats.Nanos += time.Since(start).Nanoseconds()
}

// RunUntil executes steps until pred returns true or maxSteps steps
// have run; it reports whether pred fired. pred is evaluated at entry:
// a predicate that already holds costs zero steps and zero observer
// dispatches (previously the engine burned one step before looking).
// Every registered observer sees every step exactly once, before pred
// is evaluated for it; event observers fire as in Run. Wall-clock time
// is accounted to StepStats.Nanos once for the whole run, observer
// dispatch and pred evaluations included.
func (e *Engine) RunUntil(pred func(e *Engine) bool, maxSteps int64) bool {
	if pred(e) {
		return true
	}
	start := time.Now()
	fired := false
	for i := int64(0); i < maxSteps && !fired; i++ {
		e.stepCore()
		for _, ob := range e.observers {
			ob.OnStep(e)
		}
		fired = pred(e)
	}
	e.stats.Nanos += time.Since(start).Nanoseconds()
	return fired
}

// ExtendRoute appends ext to p's route. Allowed only from PreStep (at
// any time before p is absorbed); the extension must continue the
// route contiguously and, unless route checking is disabled, keep it a
// simple path. This is the Lemma 3.3 rerouting primitive specialized
// to suffix extension.
func (e *Engine) ExtendRoute(p *packet.Packet, ext []graph.EdgeID) {
	if len(ext) == 0 {
		return
	}
	e.reroute(p, p.Route[p.Pos+1:], ext)
}

// ReplaceRouteSuffix replaces the part of p's route strictly after its
// current edge with newSuffix (which may be empty). In the notation of
// Lemma 3.3 the route q_p e_p r_p becomes q_p e_p r'_p.
//
// Reroutes are legal only from Adversary.PreStep or between steps
// (which is equivalent to the next step's PreStep); a reroute from the
// send, receive or inject substep — or from an event observer fired
// inside them — would silently corrupt the keyed-heap tombstone
// bookkeeping, so the engine panics instead.
func (e *Engine) ReplaceRouteSuffix(p *packet.Packet, newSuffix []graph.EdgeID) {
	e.reroute(p, newSuffix, nil)
}

// reroute replaces the suffix of p's route after its current edge with
// suffix followed by ext. The route store builds the new route once per
// distinct (old route, position, suffix, ext) within a step, and it is
// checked for contiguity and simplicity once, when built: a memo hit
// returns that same route, already checked against the same immutable
// graph.
func (e *Engine) reroute(p *packet.Packet, suffix, ext []graph.EdgeID) {
	if e.midStep {
		panic(fmt.Sprintf("sim: reroute of %v during the send/receive/inject substeps; "+
			"Lemma 3.3 reroutes are allowed only from Adversary.PreStep (or between steps)", p))
	}
	old := p.Route
	var oldKey int64
	if e.keyed != nil {
		oldKey = e.keyed.SelectionKey(p)
	}
	rs := e.routeStore()
	route := rs.memoized(old, p.Pos, suffix, ext, e.now)
	if route == nil {
		route = rs.copy(old[:p.Pos+1], suffix, ext)
		if !e.cfg.SkipRouteCheck {
			if !e.g.IsPath(route) {
				panic(fmt.Sprintf("sim: reroute of %v breaks path contiguity: %s",
					p, e.g.RouteString(route)))
			}
			if !e.paths.NodesDistinct(e.g, route) {
				panic(fmt.Sprintf("sim: reroute of %v is not simple: %s",
					p, e.g.RouteString(route)))
			}
		}
		rs.memoize(old, p.Pos, route)
	}
	if wasFinal, isFinal := p.Pos == len(old)-1, p.Pos == len(route)-1; wasFinal != isFinal {
		// The packet sits in a buffer (reroutes are PreStep-only), so a
		// finality flip moves it across the nonFinal count.
		if isFinal {
			e.nonFinal--
		} else {
			e.nonFinal++
		}
	}
	p.Route = route
	p.Reroutes++
	if e.keyed != nil {
		// The route change may have altered the packet's selection key
		// (e.g. RemainingHops under FTG/NTG). Instead of rebuilding the
		// whole buffer's heap (the old O(n) eager scheme), push a fresh
		// entry for just this packet and leave the old one behind as a
		// tombstone; popKeyed skips it (see keyed.go).
		if newKey := e.keyed.SelectionKey(p); newKey != oldKey {
			e.tombstone(p.CurrentEdge(), keyEntry{key: newKey, seq: p.EnqueueSeq})
		}
	}
	for _, ob := range e.rerObs {
		ob.OnReroute(e.now, p, old)
	}
}

// QueueLen returns the number of packets buffered at edge eid.
func (e *Engine) QueueLen(eid graph.EdgeID) int { return e.buffers[eid].Len() }

// Queue returns the buffer of edge eid. Callers must treat it as
// read-only.
func (e *Engine) Queue(eid graph.EdgeID) *buffer.Buffer { return &e.buffers[eid] }

// TotalQueued returns the number of packets currently in the network.
func (e *Engine) TotalQueued() int64 { return e.injected - e.absorbed - e.dropped }

// MaxQueued returns the largest current buffer occupancy in O(1),
// maintained incrementally from per-edge length deltas. Per-step
// observers (obs.Sampler's queue_max series) read this; resolve the
// achieving edge with MaxQueueLen only when needed.
func (e *Engine) MaxQueued() int { return e.curMax }

// MaxQueueLen returns the largest current buffer occupancy and the
// edge achieving it (ties to the lowest edge ID). Returns (NoEdge, 0)
// on an empty network. The length is maintained incrementally (O(1));
// the edge is cached and lazily recomputed by one O(E) scan only when
// buffer shrinks since the last call left the argmax unknown.
func (e *Engine) MaxQueueLen() (graph.EdgeID, int) {
	if e.curMax == 0 {
		return graph.NoEdge, 0
	}
	if e.maxDirty {
		for eid := range e.buffers {
			if e.buffers[eid].Len() == e.curMax {
				e.maxEdge = graph.EdgeID(eid)
				break
			}
		}
		e.maxDirty = false
	}
	return e.maxEdge, e.curMax
}

// HeapStaleTotal returns the number of tombstoned keyed-heap entries
// across all edges, in O(1). Zero under non-keyed policies, and zero
// whenever no heap carries a stranded entry — the condition under
// which HeapSkips/HeapCompactions are provably constant through a
// static drain window (obs.Sampler's drain-acceptance probe).
func (e *Engine) HeapStaleTotal() int { return e.heapStaleTot }

// Injected returns the lifetime number of injected packets (including
// initial-configuration seeds).
func (e *Engine) Injected() int64 { return e.injected }

// Absorbed returns the lifetime number of absorbed packets.
func (e *Engine) Absorbed() int64 { return e.absorbed }

// MaxResidence returns the largest number of steps any packet has
// spent in a single buffer so far. With includeWaiting, packets still
// sitting in buffers count their wait up to now — essential when a
// construction starves packets forever.
func (e *Engine) MaxResidence(includeWaiting bool) int64 {
	max := e.maxResidence
	if includeWaiting {
		for eid := range e.buffers {
			b := &e.buffers[eid]
			b.Each(func(p *packet.Packet) bool {
				if w := e.now - p.ArrivedAt; w > max {
					max = w
				}
				return true
			})
		}
	}
	return max
}

// ForEachQueued calls fn for every packet currently buffered, in
// (edge ID, enqueue order) order.
func (e *Engine) ForEachQueued(fn func(eid graph.EdgeID, p *packet.Packet)) {
	for eid := 0; eid < e.g.NumEdges(); eid++ {
		e.buffers[eid].Each(func(p *packet.Packet) bool {
			fn(graph.EdgeID(eid), p)
			return true
		})
	}
}

// EachQueueLen calls fn once per occupancy level l that at least one
// edge currently sits at, in increasing order of l, with the number of
// edges at that level. Level 0 (empty buffers) is included. It reads
// the engine's incremental length histogram — O(max occupancy), no
// buffer scan — so per-edge occupancy metrics stay cheap on large
// networks.
func (e *Engine) EachQueueLen(fn func(l, edges int)) {
	for l := 0; l <= e.curMax; l++ {
		if c := e.lenCnt[l]; c > 0 {
			fn(l, int(c))
		}
	}
}

// CheckConservation panics unless injected == absorbed + buffered +
// dropped (the dropped term is identically 0 in unbounded mode).
// Tests and long experiments call it periodically. FailureObservers are
// notified before the panic, so a flight recorder captures the tail.
func (e *Engine) CheckConservation() {
	var buffered int64
	for eid := range e.buffers {
		buffered += int64(e.buffers[eid].Len())
	}
	if e.injected != e.absorbed+buffered+e.dropped {
		msg := fmt.Sprintf("sim: conservation violated: injected %d != absorbed %d + buffered %d + dropped %d",
			e.injected, e.absorbed, buffered, e.dropped)
		e.NotifyFailure(msg)
		panic(msg)
	}
	if e.dropsPerEdge != nil {
		var perEdge int64
		for _, d := range e.dropsPerEdge {
			perEdge += d
		}
		if perEdge != e.dropped {
			msg := fmt.Sprintf("sim: drop accounting violated: per-edge drops sum %d != dropped %d",
				perEdge, e.dropped)
			e.NotifyFailure(msg)
			panic(msg)
		}
	}
}

// StepStats accumulates lightweight per-engine hot-path counters so
// perf regressions are observable from any report: packets sent across
// edges, transit receives (non-absorbing arrivals), injections
// admitted (seeds included), keyed-heap tombstone activity, and
// wall-clock nanoseconds spent inside Step.
type StepStats struct {
	Steps      int64
	Sends      int64
	Receives   int64
	Injections int64

	// Drops counts packets discarded at full buffers (bounded mode
	// only; identically 0 when Config.BufferCap == 0, keeping stepped,
	// quiet and leaped Snapshots of unbounded engines byte-identical to
	// the pre-bounded engine).
	Drops int64

	// HeapSkips counts stale keyed-heap entries (tombstones) discarded
	// during selection; HeapCompactions counts the amortized rebuilds
	// triggered when tombstones outnumbered live entries.
	// HeapRebuilds is the legacy counter from the eager-rebuild scheme
	// (every reroute forced an O(n) rebuild); it now counts
	// compactions only, so on reroute-heavy workloads it collapses
	// from ~one-per-rerouted-buffer-per-step to ~0.
	HeapSkips       int64
	HeapCompactions int64
	HeapRebuilds    int64

	Nanos int64
}

// NsPerStep returns the mean wall-clock nanoseconds per executed step
// (0 before any step has run).
func (s StepStats) NsPerStep() float64 {
	if s.Steps == 0 {
		return 0
	}
	return float64(s.Nanos) / float64(s.Steps)
}

// String renders the counters for terminal reports. The drops counter
// appears only when nonzero, so unbounded-mode reports (and their
// golden files) render exactly as before bounded buffers existed.
func (s StepStats) String() string {
	drops := ""
	if s.Drops > 0 {
		drops = fmt.Sprintf(", drops %d", s.Drops)
	}
	return fmt.Sprintf("steps %d, sends %d, receives %d, injections %d%s, heap skips %d, heap compactions %d, %.0f ns/step",
		s.Steps, s.Sends, s.Receives, s.Injections, drops, s.HeapSkips, s.HeapCompactions, s.NsPerStep())
}

// Stats returns the accumulated hot-path counters.
func (e *Engine) Stats() StepStats { return e.stats }

// Snapshot summarizes the engine state for reports.
type Snapshot struct {
	Now         int64
	Injected    int64
	Absorbed    int64
	Dropped     int64 // bounded mode only; 0 when BufferCap == 0
	TotalQueued int64
	MaxQueueLen int
	MaxQueueAt  graph.EdgeID
	Stats       StepStats
}

// Snap returns a snapshot of the current state.
func (e *Engine) Snap() Snapshot {
	eid, l := e.MaxQueueLen()
	return Snapshot{
		Now:         e.now,
		Injected:    e.injected,
		Absorbed:    e.absorbed,
		Dropped:     e.dropped,
		TotalQueued: e.TotalQueued(),
		MaxQueueLen: l,
		MaxQueueAt:  eid,
		Stats:       e.stats,
	}
}

// String implements fmt.Stringer for quick diagnostics. The dropped
// count appears only when nonzero (unbounded-mode output unchanged).
func (s Snapshot) String() string {
	drops := ""
	if s.Dropped > 0 {
		drops = fmt.Sprintf(" dropped=%d", s.Dropped)
	}
	return fmt.Sprintf("t=%d queued=%d (max %d at edge %d) injected=%d absorbed=%d%s",
		s.Now, s.TotalQueued, s.MaxQueueLen, s.MaxQueueAt, s.Injected, s.Absorbed, drops)
}

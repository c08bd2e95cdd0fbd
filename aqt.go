// Package aqt is an adversarial queuing theory toolkit: a
// discrete-time simulator for packet networks under adversarial
// injections, the scheduling-policy zoo of the AQT literature, (w,r)
// and rate-r adversaries with compliance validators, and a complete
// executable reproduction of
//
//		Z. Lotker, B. Patt-Shamir, A. Rosén,
//		"New stability results for adversarial queuing",
//		SPAA 2002 / SIAM J. Comput. 33(2):286–303, 2004:
//
//	  - FIFO is unstable at every injection rate r = 1/2 + ε
//	    (gadget pumps, daisy chains, stitching; Theorem 3.17);
//	  - every greedy protocol is stable at r ≤ 1/(d+1), and every
//	    time-priority protocol (FIFO, LIS) at r ≤ 1/d, with per-buffer
//	    residence at most floor(w·r) (Theorems 4.1 and 4.3).
//
// This root package is a facade: it re-exports the library's public
// surface via type aliases so that downstream code imports only "aqt"
// while the implementation lives in internal packages. Start with
// NewEngine (simulation), Solve/NewInstability (the paper's
// construction), or the Experiments registry (every table of
// EXPERIMENTS.md).
package aqt

import (
	"aqt/internal/adversary"
	"aqt/internal/baselines"
	"aqt/internal/core"
	"aqt/internal/expt"
	"aqt/internal/gadget"
	"aqt/internal/graph"
	"aqt/internal/obs"
	"aqt/internal/packet"
	"aqt/internal/policy"
	"aqt/internal/rational"
	"aqt/internal/sim"
	"aqt/internal/stability"
)

// Graph model.
type (
	// Graph is a directed multigraph; nodes are switches, edges are
	// unit-capacity links with a buffer at the tail.
	Graph = graph.Graph
	// NodeID identifies a node.
	NodeID = graph.NodeID
	// EdgeID identifies an edge.
	EdgeID = graph.EdgeID
	// Edge is one directed link.
	Edge = graph.Edge
)

// Graph constructors.
var (
	// NewGraph returns an empty graph.
	NewGraph = graph.New
	// Line returns a directed path with n edges.
	Line = graph.Line
	// Ring returns a directed cycle with n edges.
	Ring = graph.Ring
	// Complete returns the complete directed graph on n nodes.
	Complete = graph.Complete
	// Grid returns a rows x cols DAG grid.
	Grid = graph.Grid
	// RandomDAG returns a seeded random DAG with n nodes and m edges.
	RandomDAG = graph.RandomDAG
)

// Packets and injections.
type (
	// Packet is a packet in flight; treat as read-only. A *Packet is
	// valid until its OnAbsorb or OnDrop callbacks return (see
	// packet.Packet).
	Packet = packet.Packet
	// Injection describes one packet an adversary injects.
	Injection = packet.Injection
)

// Injection helpers.
var (
	// Inj builds an Injection from edge IDs.
	Inj = packet.Inj
	// InjNamed builds an Injection from named edges.
	InjNamed = packet.InjNamed
)

// Scheduling policies (Policy is the strategy interface; the concrete
// types FIFO, LIFO, LIS, SIS, FTG, NTG, FFS, NFS are the literature's
// standard contention-resolution rules).
type (
	// Policy selects which packet crosses an edge each step.
	Policy = policy.Policy
	// PolicyTraits classifies a policy (historic / time-priority /
	// universally stable).
	PolicyTraits = policy.Traits
	// FIFO is first-in-first-out.
	FIFO = policy.FIFO
	// LIFO is last-in-first-out.
	LIFO = policy.LIFO
	// LIS is longest-in-system.
	LIS = policy.LIS
	// SIS is shortest-in-system.
	SIS = policy.SIS
	// FTG is furthest-to-go.
	FTG = policy.FTG
	// NTG is nearest-to-go.
	NTG = policy.NTG
	// FFS is furthest-from-source.
	FFS = policy.FFS
	// NFS is nearest-from-source.
	NFS = policy.NFS
)

// Policy registry.
var (
	// Policies returns one instance of every deterministic policy.
	Policies = policy.All
	// PolicyByName resolves a policy by its canonical name.
	PolicyByName = policy.ByName
)

// Simulation engine.
type (
	// Engine executes a network under a policy and an adversary.
	Engine = sim.Engine
	// EngineConfig tunes engine checking.
	EngineConfig = sim.Config
	// Adversary injects packets and may reroute them.
	Adversary = sim.Adversary
	// Observer is notified after every step.
	Observer = sim.Observer
	// Snapshot summarizes engine state.
	Snapshot = sim.Snapshot
)

// Engine constructors.
var (
	// NewEngine returns an engine (nil adversary = no injections).
	NewEngine = sim.New
)

// Observability: the flight recorder, metrics registry and sweep
// telemetry of internal/obs.
type (
	// FlightRecorder keeps the latest N engine events in a ring and can
	// dump them as JSONL (automatically on invariant failure via
	// AutoDump). Register with Engine.AddEventObserver.
	FlightRecorder = obs.FlightRecorder
	// MetricsRegistry is a goroutine-confined set of counters and
	// log2-bucketed histograms; snapshots merge across workers.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a mergeable point-in-time registry view.
	MetricsSnapshot = obs.Snapshot
	// Meter instruments one engine with the standard metrics.
	Meter = obs.Meter
	// Sampler records the backlog and other engine gauges as bounded,
	// stride-doubling time series and tracks the exact peak backlog.
	// Register with Sampler.Attach.
	Sampler = obs.Sampler
	// SamplerConfig configures a Sampler (stride, series bound, meter).
	SamplerConfig = obs.SamplerConfig
	// SweepProgress is one probe-layer progress report.
	SweepProgress = obs.SweepProgress
	// StatusLine renders SweepProgress as a live stderr line.
	StatusLine = obs.StatusLine
)

// Observability constructors.
var (
	// NewFlightRecorder returns a keep-latest event ring.
	NewFlightRecorder = obs.NewFlightRecorder
	// NewMetricsRegistry returns an empty metrics registry.
	NewMetricsRegistry = obs.NewRegistry
	// NewMeter returns a standard engine meter (nil = fresh registry).
	NewMeter = obs.NewMeter
	// NewSampler returns a time-series sampler.
	NewSampler = obs.NewSampler
	// NewStatusLine returns a throttled progress line writing to w.
	NewStatusLine = obs.NewStatusLine
)

// Exact rational rates.
type (
	// Rat is an exact rational rate.
	Rat = rational.Rat
)

// Rate constructors.
var (
	// R returns the rational num/den.
	R = rational.New
	// RatFromFloat approximates a float rate by a rational.
	RatFromFloat = rational.FromFloat
)

// Adversaries and validators.
type (
	// Stream is one paced injection stream.
	Stream = adversary.Stream
	// Script is an adversary assembled from streams.
	Script = adversary.Script
	// RandomWR generates random (w,r)-compliant traffic.
	RandomWR = adversary.RandomWR
	// RateValidator checks the rate-r adversary constraint.
	RateValidator = adversary.RateValidator
	// WindowValidator checks the (w,r) windowed constraint.
	WindowValidator = adversary.WindowValidator
	// Rerouter validates and performs Lemma 3.3 reroutes.
	Rerouter = adversary.Rerouter
	// BurstStream injects periodic single-step bursts.
	BurstStream = adversary.BurstStream
	// ScheduleRecorder captures an execution's full injection schedule.
	ScheduleRecorder = adversary.ScheduleRecorder
	// Replay re-issues a recorded schedule obliviously.
	Replay = adversary.Replay
)

// Adversary constructors.
var (
	// NewScript returns a Script over the given streams.
	NewScript = adversary.NewScript
	// NewRandomWR returns a seeded random (w,r) generator.
	NewRandomWR = adversary.NewRandomWR
	// NewRateValidator returns a rate-r compliance validator.
	NewRateValidator = adversary.NewRateValidator
	// NewWindowValidator returns a (w,r) compliance validator.
	NewWindowValidator = adversary.NewWindowValidator
	// NewBurstScript wraps burst streams into an adversary.
	NewBurstScript = adversary.NewBurstScript
	// MaxWindowBurst builds an extremal bursty (w,r) adversary.
	MaxWindowBurst = adversary.MaxWindowBurst
	// NewScheduleRecorder returns an empty schedule recorder.
	NewScheduleRecorder = adversary.NewScheduleRecorder
	// NewReplay builds an oblivious replay adversary from a recording.
	NewReplay = adversary.NewReplay
)

// The paper's construction (internal/core).
type (
	// Params are the solved construction parameters for an ε.
	Params = core.Params
	// Instability drives the Theorem 3.17 construction.
	Instability = core.Instability
	// InstabilityOptions tunes NewInstability.
	InstabilityOptions = core.InstabilityOptions
	// CycleRecord traces one adversary cycle.
	CycleRecord = core.CycleRecord
	// Chain is a daisy chain of Fₙ gadgets (G_ε when stitched).
	Chain = gadget.Chain
)

// Construction entry points.
var (
	// Solve computes (n, S0) for a given ε (section 3.2 + appendix).
	Solve = core.Solve
	// ParamsFor builds parameters for an explicit rate and depth.
	ParamsFor = core.ParamsFor
	// NewInstability builds G_ε, the FIFO engine and the initial
	// configuration for Theorem 3.17.
	NewInstability = core.NewInstability
	// NewChain builds F^M_n, optionally closed by the stitch edge e0.
	NewChain = gadget.NewChain
)

// Stability analysis (section 4).
type (
	// ResidenceResult reports one Theorem 4.1/4.3 check.
	ResidenceResult = stability.ResidenceResult
	// Verdict classifies a queue series as stable or diverging.
	Verdict = stability.Verdict
)

// Stability helpers.
var (
	// ResidenceBound returns floor(w·r), the theorems' bound.
	ResidenceBound = stability.ResidenceBound
	// GreedyRateBound returns 1/(d+1) (Theorem 4.1).
	GreedyRateBound = stability.GreedyRateBound
	// TimePriorityRateBound returns 1/d (Theorem 4.3).
	TimePriorityRateBound = stability.TimePriorityRateBound
	// CheckResidence runs a residence-bound check.
	CheckResidence = stability.CheckResidence
	// Classify inspects a queue series.
	Classify = stability.Classify
	// ThresholdSearch locates an instability threshold by rate bisection.
	ThresholdSearch = stability.ThresholdSearch
)

// Verdict values.
const (
	// Stable means the backlog stopped growing.
	Stable = stability.Stable
	// Diverging means the backlog keeps growing.
	Diverging = stability.Diverging
	// Inconclusive means not enough signal.
	Inconclusive = stability.Inconclusive
)

// Experiments (the tables of EXPERIMENTS.md).
type (
	// ExperimentTable is one experiment's rendered result.
	ExperimentTable = expt.Table
	// Experiment is one registered experiment runner.
	Experiment = expt.Runner
)

// Experiment registry.
var (
	// Experiments returns every experiment in DESIGN.md order.
	Experiments = expt.All
	// ExperimentByID resolves an experiment by id ("E1".."B4").
	ExperimentByID = expt.ByID
)

// Baselines.
var (
	// DepthThreshold returns r*(n), the pump threshold at depth n.
	DepthThreshold = baselines.DepthThreshold
	// PumpsAtDepth reports whether depth n pumps at rate r.
	PumpsAtDepth = baselines.PumpsAtDepth
)

// Checkpoint/restore: a versioned, deterministic JSON encoding of the
// complete engine state, built so that
//
//	run(T)            and            run(k); save; load; run(T-k)
//
// are indistinguishable executions: identical Snapshots (modulo the
// wall-clock Stats.Nanos, which is deliberately not serialized),
// identical per-edge queue contents, identical keyed-heap counters and
// identical observer output. The derived views — length histogram,
// incremental max tracking, active set, nonFinal counter, packet slots
// and shared routes — are canonically rebuilt on restore; everything
// whose *history* shows through the API (keyed-heap arrays and
// tombstone counts, StepStats, drop accounting, max residence) is
// serialized verbatim.
//
// A checkpoint does not embed the graph, policy or configuration: it
// carries fingerprints of them and Restore refuses a mismatched
// target. The caller rebuilds an identical engine (same topology,
// policy table, buffer config and adversary construction) and restores
// into it; internal/scenario wraps this with the spec file as the
// single source of truth.
//
// Decoding is hardened for hostile input (see FuzzCheckpointLoad in
// internal/scenario): every rejection is a positioned *CheckpointError
// and neither DecodeCheckpoint nor Restore ever panics — in particular
// the keyed-heap tombstone invariant (every buffered packet has a
// matching live heap entry) is validated before any state is mutated,
// so a restored engine can never trip popKeyed's exhaustion panic.
package sim

import (
	"bytes"
	"encoding/json"
	"fmt"

	"aqt/internal/graph"
	"aqt/internal/packet"
)

// CheckpointVersion is the current encoding version. Bump it on any
// incompatible format change; the golden-format test pins the encoding
// byte-for-byte so accidental changes fail loudly.
const CheckpointVersion = 1

// Decode-side size caps: belt-and-braces bounds so hostile input is
// rejected before any large allocation or long validation loop.
const (
	maxCheckpointEdges   = 1 << 16 // mirrors the scenario compiler's topology cap
	maxCheckpointPackets = 1 << 22
	maxCheckpointRoute   = 1 << 12
	maxCheckpointHeap    = 1 << 23
)

// CheckpointError is a positioned checkpoint rejection: Path locates
// the offending value in the document ("buffers[3].packets[0].pos"),
// Msg says what is wrong with it.
type CheckpointError struct {
	Path string
	Msg  string
}

// Error implements error: "checkpoint: path: msg".
func (e *CheckpointError) Error() string {
	if e.Path == "" {
		return "checkpoint: " + e.Msg
	}
	return "checkpoint: " + e.Path + ": " + e.Msg
}

func cperrf(path, format string, args ...interface{}) error {
	return &CheckpointError{Path: path, Msg: fmt.Sprintf(format, args...)}
}

// PacketCheckpoint serializes one queued packet. Every field of
// packet.Packet is carried: EnqueueSeq and ArrivedAt feed the keyed
// heap and residence accounting, Reroutes and the name fields are
// observable through traces and tags.
type PacketCheckpoint struct {
	ID         int64          `json:"id"`
	Route      []graph.EdgeID `json:"route"`
	Pos        int            `json:"pos"`
	InjectedAt int64          `json:"injected_at"`
	ArrivedAt  int64          `json:"arrived_at"`
	Seq        int64          `json:"seq"`
	Reroutes   int            `json:"reroutes,omitempty"`
	Tag        string         `json:"tag,omitempty"`
	Source     string         `json:"source,omitempty"`
}

// BufferCheckpoint is one nonempty per-edge buffer, packets in queue
// order (front first). Buffers appear in increasing edge order and
// empty buffers are omitted.
type BufferCheckpoint struct {
	Edge    graph.EdgeID       `json:"edge"`
	Packets []PacketCheckpoint `json:"packets"`
}

// HeapCheckpoint is one edge's keyed selection heap, serialized
// *verbatim* in array order (parallel Keys/Seqs arrays) together with
// its tombstone count. A canonical rebuild would be semantically
// equivalent but would change future HeapSkips/HeapCompactions — and
// the resume contract is bit-identical stats, so the lazy-deletion
// state is carried as-is.
type HeapCheckpoint struct {
	Edge  graph.EdgeID `json:"edge"`
	Keys  []int64      `json:"keys"`
	Seqs  []int64      `json:"seqs"`
	Stale int          `json:"stale,omitempty"`
}

// AdversaryState is an opaque, JSON-serializable adversary state blob:
// a kind tag naming the encoding plus the kind-specific payload.
type AdversaryState struct {
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data,omitempty"`
}

// CheckpointableAdversary is implemented by adversaries whose dynamic
// state can be extracted and later restored onto a freshly constructed
// instance (built from the same specification). RestoreState runs
// after the engine's own state has been applied, so implementations
// may consult the restored clock and queues (Sequence re-enters its
// current phase this way).
type CheckpointableAdversary interface {
	Adversary
	// CheckpointState extracts the adversary's dynamic state.
	CheckpointState() (AdversaryState, error)
	// RestoreState applies a previously extracted state. It must
	// validate st and return an error — never panic — on mismatched
	// kind or malformed payload.
	RestoreState(e *Engine, st AdversaryState) error
}

// CheckpointStats mirrors StepStats minus Nanos: wall-clock time is
// measurement, not state, and excluding it keeps the encoding a pure
// function of the execution (the golden-format test depends on that).
type CheckpointStats struct {
	Steps           int64 `json:"steps"`
	Sends           int64 `json:"sends"`
	Receives        int64 `json:"receives"`
	Injections      int64 `json:"injections"`
	Drops           int64 `json:"drops,omitempty"`
	HeapSkips       int64 `json:"heap_skips,omitempty"`
	HeapCompactions int64 `json:"heap_compactions,omitempty"`
	HeapRebuilds    int64 `json:"heap_rebuilds,omitempty"`
}

// LeapCheckpoint carries the cumulative LeapStats. Note that leap
// window *boundaries* are not state: a resumed run may split windows
// differently around the checkpoint step while producing an identical
// execution, so equivalence tests compare everything except this.
type LeapCheckpoint struct {
	Windows int64 `json:"windows"`
	Steps   int64 `json:"steps"`
	Idle    int64 `json:"idle,omitempty"`
	Drain   int64 `json:"drain,omitempty"`
}

// Checkpoint is the complete serializable engine state plus the
// fingerprints Restore validates against its target.
type Checkpoint struct {
	Version int `json:"version"`

	// Fingerprints of the non-serialized parts (graph, policy table,
	// buffer config). Restore refuses a target that does not match.
	NumNodes      int      `json:"num_nodes"`
	NumEdges      int      `json:"num_edges"`
	Policy        string   `json:"policy"`
	PolicyPerEdge []string `json:"policy_per_edge,omitempty"`
	BufferCap     int      `json:"buffer_cap,omitempty"`
	DropPolicy    string   `json:"drop_policy,omitempty"`

	Now          int64           `json:"now"`
	Started      bool            `json:"started,omitempty"`
	NextID       int64           `json:"next_id"`
	NextSeq      int64           `json:"next_seq"`
	Injected     int64           `json:"injected"`
	Absorbed     int64           `json:"absorbed"`
	Dropped      int64           `json:"dropped,omitempty"`
	MaxResidence int64           `json:"max_residence,omitempty"`
	Stats        CheckpointStats `json:"stats"`
	Leap         *LeapCheckpoint `json:"leap,omitempty"`

	// DropsPerEdge is present exactly when packets have been dropped
	// (bounded buffers); its length is NumEdges and it sums to Dropped.
	DropsPerEdge []int64 `json:"drops_per_edge,omitempty"`

	Buffers []BufferCheckpoint `json:"buffers,omitempty"`
	Heaps   []HeapCheckpoint   `json:"heaps,omitempty"`

	Adversary *AdversaryState `json:"adversary,omitempty"`
}

// Checkpoint extracts the engine's complete state. The engine itself
// is not mutated (resolving the cached max-queue edge excepted, which
// is semantically const). Fails if called mid-step (from an observer
// hook) or if the adversary implements CheckpointableAdversary and
// refuses to serialize.
func (e *Engine) Checkpoint() (*Checkpoint, error) {
	if e.midStep {
		return nil, cperrf("", "Checkpoint called mid-step (from an observer hook)")
	}
	c := &Checkpoint{
		Version:      CheckpointVersion,
		NumNodes:     e.g.NumNodes(),
		NumEdges:     e.g.NumEdges(),
		Policy:       e.pol.Name(),
		BufferCap:    e.cfg.BufferCap,
		Now:          e.now,
		Started:      e.started,
		NextID:       int64(e.nextID),
		NextSeq:      e.nextSeq,
		Injected:     e.injected,
		Absorbed:     e.absorbed,
		Dropped:      e.dropped,
		MaxResidence: e.maxResidence,
		Stats: CheckpointStats{
			Steps:           e.stats.Steps,
			Sends:           e.stats.Sends,
			Receives:        e.stats.Receives,
			Injections:      e.stats.Injections,
			Drops:           e.stats.Drops,
			HeapSkips:       e.stats.HeapSkips,
			HeapCompactions: e.stats.HeapCompactions,
			HeapRebuilds:    e.stats.HeapRebuilds,
		},
	}
	if e.polFor != nil {
		c.PolicyPerEdge = make([]string, len(e.polFor))
		for i, p := range e.polFor {
			c.PolicyPerEdge[i] = p.Name()
		}
	}
	if e.cfg.BufferCap > 0 {
		c.DropPolicy = e.cfg.Drop.Name()
	}
	if e.leapStats != (LeapStats{}) {
		c.Leap = &LeapCheckpoint{
			Windows: e.leapStats.Windows,
			Steps:   e.leapStats.Steps,
			Idle:    e.leapStats.Idle,
			Drain:   e.leapStats.Drain,
		}
	}
	if e.dropped > 0 && e.dropsPerEdge != nil {
		c.DropsPerEdge = append([]int64(nil), e.dropsPerEdge...)
	}
	for eid := range e.buffers {
		buf := &e.buffers[eid]
		if buf.Len() == 0 {
			continue
		}
		bc := BufferCheckpoint{Edge: graph.EdgeID(eid), Packets: make([]PacketCheckpoint, 0, buf.Len())}
		buf.Each(func(p *packet.Packet) bool {
			bc.Packets = append(bc.Packets, PacketCheckpoint{
				ID:         int64(p.ID),
				Route:      append([]graph.EdgeID(nil), p.Route...),
				Pos:        p.Pos,
				InjectedAt: p.InjectedAt,
				ArrivedAt:  p.ArrivedAt,
				Seq:        p.EnqueueSeq,
				Reroutes:   p.Reroutes,
				Tag:        p.Tag,
				Source:     p.SourceName,
			})
			return true
		})
		c.Buffers = append(c.Buffers, bc)
	}
	if e.keyed != nil {
		for eid := range e.heaps {
			h := e.heaps[eid]
			if len(h) == 0 {
				continue
			}
			hc := HeapCheckpoint{
				Edge:  graph.EdgeID(eid),
				Keys:  make([]int64, len(h)),
				Seqs:  make([]int64, len(h)),
				Stale: e.heapStale[eid],
			}
			for i, ent := range h {
				hc.Keys[i] = ent.key
				hc.Seqs[i] = ent.seq
			}
			c.Heaps = append(c.Heaps, hc)
		}
	}
	if ca, ok := e.adv.(CheckpointableAdversary); ok {
		st, err := ca.CheckpointState()
		if err != nil {
			return nil, cperrf("adversary", "%v", err)
		}
		c.Adversary = &st
	}
	return c, nil
}

// Encode renders the checkpoint as deterministic indented JSON with a
// trailing newline. encoding/json marshals struct fields in
// declaration order, so the byte output is a pure function of the
// state — the golden-format test pins it.
func (c *Checkpoint) Encode() []byte {
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		// Only reachable with a hand-built checkpoint holding an
		// invalid RawMessage; Checkpoint() and DecodeCheckpoint never
		// produce one.
		panic("sim: checkpoint encode: " + err.Error())
	}
	return append(b, '\n')
}

// DecodeCheckpoint parses and structurally validates a checkpoint
// document. Every rejection is a *CheckpointError; hostile input never
// panics. Validation here covers everything that does not need the
// target engine (Restore adds the fingerprint, route and heap-content
// checks).
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var c Checkpoint
	if err := dec.Decode(&c); err != nil {
		return nil, cperrf("", "offset %d: %v", dec.InputOffset(), err)
	}
	if dec.More() {
		return nil, cperrf("", "trailing data after the checkpoint object")
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// Validate checks the checkpoint's internal consistency: version,
// bounds, monotone sequences, conservation, drop accounting and the
// heap-order property. It needs no engine.
func (c *Checkpoint) Validate() error {
	if c.Version != CheckpointVersion {
		return cperrf("version", "unsupported checkpoint version %d (want %d)", c.Version, CheckpointVersion)
	}
	if c.NumNodes < 0 || c.NumNodes > maxCheckpointEdges {
		return cperrf("num_nodes", "out of range: %d", c.NumNodes)
	}
	if c.NumEdges < 0 || c.NumEdges > maxCheckpointEdges {
		return cperrf("num_edges", "out of range: %d", c.NumEdges)
	}
	for path, v := range map[string]int64{
		"now": c.Now, "next_id": c.NextID, "next_seq": c.NextSeq,
		"injected": c.Injected, "absorbed": c.Absorbed, "dropped": c.Dropped,
		"max_residence": c.MaxResidence,
		"stats.steps":   c.Stats.Steps, "stats.sends": c.Stats.Sends,
		"stats.receives": c.Stats.Receives, "stats.injections": c.Stats.Injections,
		"stats.drops": c.Stats.Drops, "stats.heap_skips": c.Stats.HeapSkips,
		"stats.heap_compactions": c.Stats.HeapCompactions,
		"stats.heap_rebuilds":    c.Stats.HeapRebuilds,
	} {
		if v < 0 {
			return cperrf(path, "negative value %d", v)
		}
	}
	if c.Now > 0 && !c.Started {
		return cperrf("started", "now=%d but started=false", c.Now)
	}
	if c.Leap != nil {
		if c.Leap.Windows < 0 || c.Leap.Steps < 0 || c.Leap.Idle < 0 || c.Leap.Drain < 0 {
			return cperrf("leap", "negative leap counters %+v", *c.Leap)
		}
	}
	if c.BufferCap < 0 || c.BufferCap > 1<<20 {
		return cperrf("buffer_cap", "out of range: %d", c.BufferCap)
	}
	if (c.BufferCap > 0) != (c.DropPolicy != "") {
		return cperrf("drop_policy", "drop policy %q inconsistent with buffer cap %d", c.DropPolicy, c.BufferCap)
	}
	if c.PolicyPerEdge != nil && len(c.PolicyPerEdge) != c.NumEdges {
		return cperrf("policy_per_edge", "length %d != num_edges %d", len(c.PolicyPerEdge), c.NumEdges)
	}
	if c.Stats.Drops != c.Dropped {
		return cperrf("stats.drops", "%d != dropped %d", c.Stats.Drops, c.Dropped)
	}
	switch {
	case c.DropsPerEdge == nil:
		if c.Dropped != 0 {
			return cperrf("drops_per_edge", "missing with dropped=%d", c.Dropped)
		}
	case c.BufferCap == 0:
		return cperrf("drops_per_edge", "present for an unbounded engine")
	case len(c.DropsPerEdge) != c.NumEdges:
		return cperrf("drops_per_edge", "length %d != num_edges %d", len(c.DropsPerEdge), c.NumEdges)
	default:
		var sum int64
		for i, d := range c.DropsPerEdge {
			if d < 0 {
				return cperrf(fmt.Sprintf("drops_per_edge[%d]", i), "negative value %d", d)
			}
			sum += d
		}
		if sum != c.Dropped {
			return cperrf("drops_per_edge", "sum %d != dropped %d", sum, c.Dropped)
		}
	}

	var buffered int64
	prevEdge := graph.EdgeID(-1)
	for i := range c.Buffers {
		bc := &c.Buffers[i]
		path := fmt.Sprintf("buffers[%d]", i)
		if bc.Edge <= prevEdge || int(bc.Edge) >= c.NumEdges {
			return cperrf(path+".edge", "edge %d not strictly increasing within [0,%d)", bc.Edge, c.NumEdges)
		}
		prevEdge = bc.Edge
		if len(bc.Packets) == 0 {
			return cperrf(path+".packets", "empty buffer entry (omit empty buffers)")
		}
		if c.BufferCap > 0 && len(bc.Packets) > c.BufferCap {
			return cperrf(path+".packets", "%d packets exceed buffer cap %d", len(bc.Packets), c.BufferCap)
		}
		buffered += int64(len(bc.Packets))
		if buffered > maxCheckpointPackets {
			return cperrf(path, "total packet count exceeds cap %d", maxCheckpointPackets)
		}
		prevSeq := int64(-1)
		for j := range bc.Packets {
			pc := &bc.Packets[j]
			ppath := fmt.Sprintf("%s.packets[%d]", path, j)
			if pc.ID < 0 || pc.ID >= c.NextID {
				return cperrf(ppath+".id", "id %d outside [0,%d)", pc.ID, c.NextID)
			}
			if len(pc.Route) == 0 || len(pc.Route) > maxCheckpointRoute {
				return cperrf(ppath+".route", "route length %d outside [1,%d]", len(pc.Route), maxCheckpointRoute)
			}
			for k, eid := range pc.Route {
				if eid < 0 || int(eid) >= c.NumEdges {
					return cperrf(fmt.Sprintf("%s.route[%d]", ppath, k), "edge %d outside [0,%d)", eid, c.NumEdges)
				}
			}
			if pc.Pos < 0 || pc.Pos >= len(pc.Route) {
				return cperrf(ppath+".pos", "pos %d outside route of length %d", pc.Pos, len(pc.Route))
			}
			if pc.Route[pc.Pos] != bc.Edge {
				return cperrf(ppath+".pos", "route[%d]=%d but packet is buffered at edge %d", pc.Pos, pc.Route[pc.Pos], bc.Edge)
			}
			if pc.InjectedAt < 0 || pc.InjectedAt > c.Now {
				return cperrf(ppath+".injected_at", "%d outside [0,now=%d]", pc.InjectedAt, c.Now)
			}
			if pc.ArrivedAt < pc.InjectedAt || pc.ArrivedAt > c.Now {
				return cperrf(ppath+".arrived_at", "%d outside [injected_at=%d,now=%d]", pc.ArrivedAt, pc.InjectedAt, c.Now)
			}
			if pc.Seq <= prevSeq || pc.Seq >= c.NextSeq {
				return cperrf(ppath+".seq", "seq %d not strictly increasing within [0,%d)", pc.Seq, c.NextSeq)
			}
			prevSeq = pc.Seq
			if pc.Reroutes < 0 {
				return cperrf(ppath+".reroutes", "negative value %d", pc.Reroutes)
			}
		}
	}
	if c.Injected != c.Absorbed+c.Dropped+buffered {
		return cperrf("injected", "conservation violated: injected %d != absorbed %d + dropped %d + buffered %d",
			c.Injected, c.Absorbed, c.Dropped, buffered)
	}

	var heapTotal int
	prevEdge = -1
	for i := range c.Heaps {
		hc := &c.Heaps[i]
		path := fmt.Sprintf("heaps[%d]", i)
		if hc.Edge <= prevEdge || int(hc.Edge) >= c.NumEdges {
			return cperrf(path+".edge", "edge %d not strictly increasing within [0,%d)", hc.Edge, c.NumEdges)
		}
		prevEdge = hc.Edge
		if len(hc.Keys) != len(hc.Seqs) {
			return cperrf(path, "keys/seqs length mismatch: %d != %d", len(hc.Keys), len(hc.Seqs))
		}
		if len(hc.Keys) == 0 {
			return cperrf(path, "empty heap entry (omit empty heaps)")
		}
		heapTotal += len(hc.Keys)
		if heapTotal > maxCheckpointHeap {
			return cperrf(path, "total heap size exceeds cap %d", maxCheckpointHeap)
		}
		if hc.Stale < 0 || hc.Stale > len(hc.Keys) {
			return cperrf(path+".stale", "stale count %d outside [0,%d]", hc.Stale, len(hc.Keys))
		}
		for j := range hc.Seqs {
			if hc.Seqs[j] < 0 || hc.Seqs[j] >= c.NextSeq {
				return cperrf(fmt.Sprintf("%s.seqs[%d]", path, j), "seq %d outside [0,%d)", hc.Seqs[j], c.NextSeq)
			}
		}
		// The array is a binary min-heap ordered by (key, seq); a
		// violating array would silently change selection order.
		for j := 1; j < len(hc.Keys); j++ {
			p := (j - 1) / 2
			if hc.Keys[j] < hc.Keys[p] || (hc.Keys[j] == hc.Keys[p] && hc.Seqs[j] < hc.Seqs[p]) {
				return cperrf(fmt.Sprintf("%s.keys[%d]", path, j), "heap order violated against parent %d", p)
			}
		}
	}
	return nil
}

// Restore applies a decoded checkpoint to e, which must be a freshly
// constructed, never-run engine built over the same graph, policy
// table and buffer configuration (and, if the checkpoint carries
// adversary state, an adversary of the same kind, freshly constructed
// from the same specification). Pre-run seeds (Engine.Seed) are
// permitted on the target and wiped: restore overwrites the engine's
// entire dynamic state rather than merging into it. All engine-state
// validation happens before any mutation: on error the engine is
// untouched, except that a failure while restoring the adversary's own
// state (the final stage) leaves the engine restored with a fresh
// adversary — discard it.
func (e *Engine) Restore(c *Checkpoint) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if e.started || e.now != 0 {
		return cperrf("", "restore target must not have run (now=%d, started=%v)", e.now, e.started)
	}
	// Fingerprints.
	if c.NumNodes != e.g.NumNodes() || c.NumEdges != e.g.NumEdges() {
		return cperrf("num_edges", "graph mismatch: checkpoint %d nodes/%d edges, engine %d/%d",
			c.NumNodes, c.NumEdges, e.g.NumNodes(), e.g.NumEdges())
	}
	if c.Policy != e.pol.Name() {
		return cperrf("policy", "policy mismatch: checkpoint %q, engine %q", c.Policy, e.pol.Name())
	}
	if (c.PolicyPerEdge != nil) != (e.polFor != nil) {
		return cperrf("policy_per_edge", "per-edge policy table mismatch")
	}
	for i, name := range c.PolicyPerEdge {
		if name != e.polFor[i].Name() {
			return cperrf(fmt.Sprintf("policy_per_edge[%d]", i), "policy mismatch: checkpoint %q, engine %q", name, e.polFor[i].Name())
		}
	}
	if c.BufferCap != e.cfg.BufferCap {
		return cperrf("buffer_cap", "buffer cap mismatch: checkpoint %d, engine %d", c.BufferCap, e.cfg.BufferCap)
	}
	if c.BufferCap > 0 && c.DropPolicy != e.cfg.Drop.Name() {
		return cperrf("drop_policy", "drop policy mismatch: checkpoint %q, engine %q", c.DropPolicy, e.cfg.Drop.Name())
	}
	if len(c.Heaps) > 0 && e.keyed == nil {
		return cperrf("heaps", "heap state for a non-keyed policy %q", e.pol.Name())
	}
	// Routes must be paths in the *actual* graph (edge indices were
	// already bounds-checked). Skipped when the engine itself skips
	// route validation.
	if !e.cfg.SkipRouteCheck {
		for i := range c.Buffers {
			for j := range c.Buffers[i].Packets {
				pc := &c.Buffers[i].Packets[j]
				if !e.paths.IsSimplePath(e.g, pc.Route) {
					return cperrf(fmt.Sprintf("buffers[%d].packets[%d].route", i, j), "not a simple path in the target graph")
				}
			}
		}
	}
	// Keyed-heap tombstone invariant: every buffered packet must have a
	// live heap entry (SelectionKey, EnqueueSeq), or popKeyed would
	// exhaust the heap with a nonempty buffer after restore.
	if e.keyed != nil {
		heapAt := make(map[graph.EdgeID]*HeapCheckpoint, len(c.Heaps))
		for i := range c.Heaps {
			heapAt[c.Heaps[i].Edge] = &c.Heaps[i]
		}
		for i := range c.Buffers {
			bc := &c.Buffers[i]
			hc := heapAt[bc.Edge]
			entries := map[[2]int64]bool{}
			if hc != nil {
				for j := range hc.Keys {
					entries[[2]int64{hc.Keys[j], hc.Seqs[j]}] = true
				}
			}
			for j := range bc.Packets {
				pc := &bc.Packets[j]
				p := packet.Packet{
					ID: packet.ID(pc.ID), Route: pc.Route, Pos: pc.Pos,
					InjectedAt: pc.InjectedAt, ArrivedAt: pc.ArrivedAt,
					EnqueueSeq: pc.Seq, Reroutes: pc.Reroutes,
				}
				if !entries[[2]int64{e.keyed.SelectionKey(&p), pc.Seq}] {
					return cperrf(fmt.Sprintf("buffers[%d].packets[%d]", i, j),
						"no live heap entry for buffered packet (key %d, seq %d): tombstone invariant violated",
						e.keyed.SelectionKey(&p), pc.Seq)
				}
			}
		}
	}

	// --- validation complete; apply ---
	// Wipe any pre-run seeds (releasing their slots) and their derived
	// views first, so the rebuild below starts from the same blank slate
	// NewWithConfig leaves behind.
	for i := range e.buffers {
		for buf := &e.buffers[i]; buf.Len() > 0; {
			e.slab.Release(buf.PopFront())
		}
	}
	e.active = e.active[:0]
	for i := range e.inAct {
		e.inAct[i] = false
	}
	for i := range e.lenCnt {
		e.lenCnt[i] = 0
	}
	e.lenCnt[0] = int32(e.g.NumEdges())
	e.curMax = 0
	e.maxEdge = graph.NoEdge
	e.maxDirty = false
	e.nonFinal = 0
	if e.keyed != nil {
		for i := range e.heaps {
			e.heaps[i] = nil
			e.heapStale[i] = 0
		}
		e.heapStaleTot = 0
	}
	e.now = c.Now
	e.started = c.Started
	e.nextID = packet.ID(c.NextID)
	e.nextSeq = c.NextSeq
	e.injected = c.Injected
	e.absorbed = c.Absorbed
	e.dropped = c.Dropped
	e.maxResidence = c.MaxResidence
	e.stats = StepStats{
		Steps:           c.Stats.Steps,
		Sends:           c.Stats.Sends,
		Receives:        c.Stats.Receives,
		Injections:      c.Stats.Injections,
		Drops:           c.Stats.Drops,
		HeapSkips:       c.Stats.HeapSkips,
		HeapCompactions: c.Stats.HeapCompactions,
		HeapRebuilds:    c.Stats.HeapRebuilds,
	}
	e.leapStats = LeapStats{}
	if c.Leap != nil {
		e.leapStats = LeapStats{
			Windows: c.Leap.Windows, Steps: c.Leap.Steps,
			Idle: c.Leap.Idle, Drain: c.Leap.Drain,
		}
	}
	if e.dropsPerEdge != nil {
		for i := range e.dropsPerEdge {
			e.dropsPerEdge[i] = 0
		}
		copy(e.dropsPerEdge, c.DropsPerEdge)
	}
	// Buffers, plus canonical rebuilds of every derived view: the
	// length histogram and incremental max tracking (via growLen, the
	// same invariant-maintaining path the live engine uses), the
	// sorted active set, and the nonFinal counter.
	for _, bc := range c.Buffers {
		buf := &e.buffers[bc.Edge]
		for i := range bc.Packets {
			pc := &bc.Packets[i]
			h, p := e.slab.New()
			*p = packet.Packet{
				ID:         packet.ID(pc.ID),
				Route:      e.routeStore().intern(pc.Route),
				Pos:        pc.Pos,
				InjectedAt: pc.InjectedAt,
				ArrivedAt:  pc.ArrivedAt,
				EnqueueSeq: pc.Seq,
				Reroutes:   pc.Reroutes,
				Tag:        pc.Tag,
				SourceName: pc.Source,
			}
			buf.PushBack(h)
			if p.Pos < len(p.Route)-1 {
				e.nonFinal++
			}
			e.growLen(bc.Edge, buf.Len())
		}
		e.active = append(e.active, bc.Edge)
		e.inAct[bc.Edge] = true
	}
	if e.keyed != nil {
		for _, hc := range c.Heaps {
			h := make(keyHeap, len(hc.Keys))
			for i := range hc.Keys {
				h[i] = keyEntry{key: hc.Keys[i], seq: hc.Seqs[i]}
			}
			e.heaps[hc.Edge] = h
			e.heapStale[hc.Edge] = hc.Stale
			e.heapStaleTot += hc.Stale
		}
	}
	if c.Adversary != nil {
		ca, ok := e.adv.(CheckpointableAdversary)
		if !ok {
			return cperrf("adversary", "checkpoint carries %q adversary state but the engine's adversary (%T) is not checkpointable",
				c.Adversary.Kind, e.adv)
		}
		if err := ca.RestoreState(e, *c.Adversary); err != nil {
			if _, ok := err.(*CheckpointError); ok {
				return err
			}
			return cperrf("adversary", "%v", err)
		}
	}
	return nil
}

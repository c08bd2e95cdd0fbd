package adversary

import (
	"math/rand"

	"aqt/internal/graph"
	"aqt/internal/packet"
	"aqt/internal/rational"
	"aqt/internal/sim"
)

// RandomWR generates random traffic that provably complies with the
// (w,r) adversary constraint of Definition 2.1: in every window of w
// consecutive steps, at most floor(r·w) injected packets require any
// single edge.
//
// Admission control is exact: a candidate route is admitted at step t
// only if, for each of its edges, the count of admitted packets
// requiring that edge within the trailing window (t-w, t] stays within
// the bound. Because any length-w window is a trailing window of its
// last step, this check enforces the definition for all windows.
//
// Routes are random simple paths: from a random start node the walk
// follows uniformly random outgoing edges, avoiding node revisits, up
// to MaxLen hops (at least 1). The generator is deterministic for a
// fixed seed.
//
// Steady-state generation is allocation-free: admission history lives
// in per-edge timestamp rings (admission bounds each ring's occupancy
// by floor(r·w), so rings grow geometrically to at most that capacity
// and are then recycled forever), and admitted routes are carved out of
// a per-step arena. Returned injections are valid until the next Inject
// call; the engine consumes them within the same step.
type RandomWR struct {
	noState

	W        int64
	Rate     rational.Rat
	MaxLen   int
	Attempts int // candidate routes tried per step (default 4)

	g     *graph.Graph
	rng   *rand.Rand
	bound int64 // floor(Rate·W): per-edge cap in any w-window

	// Per-edge admission history: ring i holds the injection times of
	// admitted packets requiring edge i, oldest at head[i], newest at
	// (head[i]+count[i]-1) mod len. Entries older than the trailing
	// window are pruned in place by trailingCount.
	rings [][]int64
	head  []int32
	count []int32

	// Per-step scratch, reused across Inject calls so steady-state
	// generation is allocation-free. routeBuf backs the routes of the
	// injections returned by the current Inject call.
	out      []packet.Injection
	routeBuf []graph.EdgeID
	route    []graph.EdgeID
	cands    []graph.EdgeID
	visited  []int64 // generation stamps, one per node
	gen      int64
}

// NewRandomWR returns a generator over g. maxLen bounds route length
// (the parameter d of the stability theorems). seed fixes the stream.
func NewRandomWR(g *graph.Graph, w int64, rate rational.Rat, maxLen int, seed int64) *RandomWR {
	if err := CheckWindow(w); err != nil {
		panic(err)
	}
	if maxLen < 1 {
		panic(ErrMaxLen)
	}
	return &RandomWR{
		W:        w,
		Rate:     rate,
		MaxLen:   maxLen,
		Attempts: 4,
		g:        g,
		rng:      rand.New(rand.NewSource(seed)),
		bound:    rate.FloorMulInt(w),
		rings:    make([][]int64, g.NumEdges()),
		head:     make([]int32, g.NumEdges()),
		count:    make([]int32, g.NumEdges()),
		visited:  make([]int64, g.NumNodes()),
	}
}

// PreStep implements sim.Adversary.
func (a *RandomWR) PreStep(*sim.Engine) {}

// Inject implements sim.Adversary.
func (a *RandomWR) Inject(e *sim.Engine) []packet.Injection {
	t := e.Now()
	if a.bound < 1 {
		// The adversary cannot inject at all with floor(r·w) == 0;
		// Definition 2.1 then admits no packets in any window.
		return nil
	}
	a.out = a.out[:0]
	a.routeBuf = a.routeBuf[:0]
	for i := 0; i < a.Attempts; i++ {
		route := a.randomRoute()
		if route == nil {
			continue
		}
		if a.admit(t, route) {
			// The scratch route is recycled for the next candidate;
			// admitted routes move into the per-step arena. Capping the
			// slice keeps later arena appends from clobbering it.
			start := len(a.routeBuf)
			a.routeBuf = append(a.routeBuf, route...)
			owned := a.routeBuf[start:len(a.routeBuf):len(a.routeBuf)]
			a.out = append(a.out, packet.Injection{Route: owned, SourceName: "randwr"})
		}
	}
	return a.out
}

// admit checks the trailing-window bound for every edge on the route
// and records the injection time in each edge's ring when admitted.
func (a *RandomWR) admit(t int64, route []graph.EdgeID) bool {
	for _, eid := range route {
		if int64(a.trailingCount(eid, t))+1 > a.bound {
			return false
		}
	}
	for _, eid := range route {
		a.push(eid, t)
	}
	return true
}

// trailingCount returns how many admitted packets requiring eid were
// injected in (t-w, t]. It prunes expired entries from the ring head as
// it goes.
func (a *RandomWR) trailingCount(eid graph.EdgeID, t int64) int {
	ts := a.rings[eid]
	h, n := a.head[eid], a.count[eid]
	for n > 0 && ts[h] <= t-a.W {
		h++
		if int(h) == len(ts) {
			h = 0
		}
		n--
	}
	a.head[eid], a.count[eid] = h, n
	return int(n)
}

// push appends t to eid's ring, growing it geometrically up to the
// admission bound (after which occupancy can never exceed capacity, so
// the ring is recycled with no further allocation).
func (a *RandomWR) push(eid graph.EdgeID, t int64) {
	ts := a.rings[eid]
	h, n := a.head[eid], a.count[eid]
	if int(n) == len(ts) {
		grow := 2 * len(ts)
		if grow < 4 {
			grow = 4
		}
		if int64(grow) > a.bound {
			grow = int(a.bound)
		}
		fresh := make([]int64, grow)
		for i := int32(0); i < n; i++ {
			fresh[i] = ts[(h+i)%int32(len(ts))]
		}
		ts, h = fresh, 0
		a.rings[eid], a.head[eid] = ts, h
	}
	ts[(int(h)+int(n))%len(ts)] = t
	a.count[eid] = n + 1
}

// randomRoute builds a random simple path of 1..MaxLen edges into the
// reused scratch slice, or nil if the start node is a sink. The result
// is valid only until the next call.
func (a *RandomWR) randomRoute() []graph.EdgeID {
	start := graph.NodeID(a.rng.Intn(a.g.NumNodes()))
	targetLen := 1 + a.rng.Intn(a.MaxLen)
	a.gen++
	a.route = a.route[:0]
	a.visited[start] = a.gen
	cur := start
	for len(a.route) < targetLen {
		outs := a.g.Out(cur)
		// Collect candidate edges whose heads are unvisited.
		a.cands = a.cands[:0]
		for _, eid := range outs {
			if a.visited[a.g.Edge(eid).To] != a.gen {
				a.cands = append(a.cands, eid)
			}
		}
		if len(a.cands) == 0 {
			break
		}
		eid := a.cands[a.rng.Intn(len(a.cands))]
		a.route = append(a.route, eid)
		cur = a.g.Edge(eid).To
		a.visited[cur] = a.gen
	}
	if len(a.route) == 0 {
		return nil
	}
	return a.route
}

package adversary

import (
	"aqt/internal/graph"
	"aqt/internal/packet"
	"aqt/internal/rational"
	"aqt/internal/sim"
)

// BurstStream injects packets in periodic bursts instead of smooth
// pacing: every Period steps starting at Start it injects Burst
// packets at once, until Budget packets have been injected (Budget < 0
// = unbounded).
//
// A (w,r) adversary (Definition 2.1) is allowed to inject floor(r·w)
// packets requiring one edge in a single step and then stay silent —
// burstiness the smooth Stream never exercises. BurstStream with
// Burst = floor(r·w) and Period = w is the extremal such adversary:
// any window of w consecutive steps contains at most one burst, so the
// (w,r) constraint holds with equality. The stability experiments use
// it to stress Theorems 4.1/4.3 at their worst case.
type BurstStream struct {
	Name   string
	Start  int64
	Period int64
	Burst  int64
	Budget int64
	Route  []graph.EdgeID
	Tag    string
}

// NewBurstScript wraps burst streams into an adversary.
func NewBurstScript(streams ...BurstStream) *BurstScript {
	for _, st := range streams {
		if err := CheckBurstStream(st); err != nil {
			panic(err)
		}
	}
	return &BurstScript{streams: streams}
}

// BurstScript is an Adversary emitting periodic bursts.
type BurstScript struct {
	streams []BurstStream
	sent    []int64
	lastT   int64              // last step Inject ran at (0 before the first)
	out     []packet.Injection // Inject's result, reused across calls
}

// PreStep implements sim.Adversary.
func (b *BurstScript) PreStep(*sim.Engine) {}

// Inject implements sim.Adversary.
func (b *BurstScript) Inject(e *sim.Engine) []packet.Injection {
	if b.sent == nil {
		b.sent = make([]int64, len(b.streams))
	}
	t := e.Now()
	b.lastT = t
	out := b.out[:0]
	for i, st := range b.streams {
		if t < st.Start || (t-st.Start)%st.Period != 0 {
			continue
		}
		n := st.Burst
		if st.Budget >= 0 {
			if left := st.Budget - b.sent[i]; left < n {
				n = left
			}
		}
		for k := int64(0); k < n; k++ {
			out = append(out, packet.Injection{Route: st.Route, Tag: st.Tag, SourceName: st.Name})
		}
		b.sent[i] += n
	}
	b.out = out
	return out
}

// StaticUntil implements sim.StaticAdversary: a burst schedule is a
// pure function of the step index, so the script is provably silent up
// to one step before the earliest upcoming burst of any stream with
// budget left. The horizon is computed from the last step Inject ran
// at; inside leaped windows it goes stale but only conservatively (the
// reported burst time stays in the future until the engine steps it).
func (b *BurstScript) StaticUntil() int64 {
	h := sim.Forever
	from := b.lastT + 1
	for i, st := range b.streams {
		if st.Budget >= 0 && b.sent != nil && b.sent[i] >= st.Budget {
			continue
		}
		next := st.Start
		if from > next {
			next += (from - st.Start + st.Period - 1) / st.Period * st.Period
		}
		if next-1 < h {
			h = next - 1
		}
	}
	return h
}

// MaxWindowBurst builds a bursty (w,r) adversary on g: one burst
// stream per edge, each following a greedy route of up to maxLen
// edges. Per-stream burst sizes are scaled by the worst per-edge route
// overlap so the combined usage of every edge stays within the
// floor(r·w)-per-window allowance — packets still arrive in single-
// step bursts, the regime smooth pacing never exercises. Streams are
// staggered across the window.
func MaxWindowBurst(g *graph.Graph, w int64, rate rational.Rat, maxLen int) *BurstScript {
	allowance := rate.FloorMulInt(w)
	if allowance < 1 {
		return NewBurstScript() // the adversary may not inject at all
	}
	routes := make([][]graph.EdgeID, g.NumEdges())
	usage := make([]int64, g.NumEdges())
	for eid := 0; eid < g.NumEdges(); eid++ {
		routes[eid] = greedyRoute(g, graph.EdgeID(eid), maxLen)
		for _, re := range routes[eid] {
			usage[re]++
		}
	}
	var maxUsage int64 = 1
	for _, u := range usage {
		if u > maxUsage {
			maxUsage = u
		}
	}
	burst := allowance / maxUsage
	if burst < 1 {
		return NewBurstScript()
	}
	var streams []BurstStream
	for eid := 0; eid < g.NumEdges(); eid++ {
		streams = append(streams, BurstStream{
			Name:   "burst",
			Start:  1 + int64(eid)%w,
			Period: w,
			Burst:  burst,
			Budget: -1,
			Route:  routes[eid],
		})
	}
	return NewBurstScript(streams...)
}

// greedyRoute extends a route from eid up to maxLen edges, picking
// among unvisited out-edges by a rotation keyed on the starting edge
// so that routes from different edges diverge (keeping per-edge route
// overlap — and hence the burst scale-down — small).
func greedyRoute(g *graph.Graph, eid graph.EdgeID, maxLen int) []graph.EdgeID {
	route := []graph.EdgeID{eid}
	visited := map[graph.NodeID]bool{g.Edge(eid).From: true, g.Edge(eid).To: true}
	cur := g.Edge(eid).To
	for len(route) < maxLen {
		var cands []graph.EdgeID
		for _, cand := range g.Out(cur) {
			if !visited[g.Edge(cand).To] {
				cands = append(cands, cand)
			}
		}
		if len(cands) == 0 {
			break
		}
		next := cands[(int(eid)+len(route))%len(cands)]
		route = append(route, next)
		cur = g.Edge(next).To
		visited[cur] = true
	}
	return route
}

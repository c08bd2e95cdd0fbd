// Differential harness for the engine's incremental max-queue
// tracking: the old O(E) brute-force scan runs as a reference oracle
// against the incremental MaxQueued/MaxQueueLen after every step of
// seeded random (w,r) workloads — including reroutes
// (ReplaceRouteSuffix/ExtendRoute, which leave keyed-heap tombstones)
// and absorptions — on the paper's three topology regimes.
package sim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"aqt/internal/adversary"
	"aqt/internal/gadget"
	"aqt/internal/graph"
	"aqt/internal/packet"
	"aqt/internal/policy"
	"aqt/internal/rational"
	"aqt/internal/sim"
)

// bruteMaxQueue is the reference oracle: the pre-incremental O(E) scan,
// ties to the lowest edge ID, (NoEdge, 0) on an empty network.
func bruteMaxQueue(e *sim.Engine) (graph.EdgeID, int) {
	best, bestLen := graph.NoEdge, 0
	for eid := 0; eid < e.Graph().NumEdges(); eid++ {
		if l := e.QueueLen(graph.EdgeID(eid)); l > bestLen {
			best, bestLen = graph.EdgeID(eid), l
		}
	}
	return best, bestLen
}

// chaosRerouter wraps an inner adversary and, on a seeded schedule,
// truncates or extends the route of a random queued packet from
// PreStep — exercising ReplaceRouteSuffix (absorption at the current
// edge's head) and ExtendRoute (longer residence) against the
// incremental bookkeeping.
type chaosRerouter struct {
	inner sim.Adversary
	rng   *rand.Rand
	pkts  []*packet.Packet
}

func (c *chaosRerouter) PreStep(e *sim.Engine) {
	c.inner.PreStep(e)
	if c.rng.Intn(3) != 0 {
		return
	}
	c.pkts = c.pkts[:0]
	e.ForEachQueued(func(_ graph.EdgeID, p *packet.Packet) {
		c.pkts = append(c.pkts, p)
	})
	if len(c.pkts) == 0 {
		return
	}
	p := c.pkts[c.rng.Intn(len(c.pkts))]
	if c.rng.Intn(2) == 0 {
		// Truncate: the packet absorbs after crossing its current edge.
		e.ReplaceRouteSuffix(p, nil)
		return
	}
	// Extend by one fresh edge when a simple continuation exists.
	g := e.Graph()
	onRoute := map[graph.NodeID]bool{g.Edge(p.Route()[0]).From: true}
	for _, eid := range p.Route() {
		onRoute[g.Edge(eid).To] = true
	}
	last := g.Edge(p.Route()[len(p.Route())-1]).To
	for _, eid := range g.Out(last) {
		if !onRoute[g.Edge(eid).To] {
			e.ExtendRoute(p, []graph.EdgeID{eid})
			return
		}
	}
}

func (c *chaosRerouter) Inject(e *sim.Engine) []packet.Injection {
	return c.inner.Inject(e)
}

// TestMaxQueueLenDifferential drives random (w,r) load plus chaotic
// reroutes on Line/Ring/G_ε under FIFO (plain path), NTG (keyed-heap
// path) and a heterogeneous mix, asserting after every step that the
// incremental max equals the brute-force oracle, edge tie-break
// included.
func TestMaxQueueLenDifferential(t *testing.T) {
	topos := []struct {
		name   string
		build  func() *graph.Graph
		maxLen int
	}{
		{"Line9", func() *graph.Graph { return graph.Line(9) }, 4},
		{"Ring8", func() *graph.Graph { return graph.Ring(8) }, 4},
		{"Geps", func() *graph.Graph { return gadget.NewChain(3, 3, true).G }, 5},
	}
	pols := []policy.Policy{policy.FIFO{}, policy.NTG{}, policy.LIS{}}
	for _, tp := range topos {
		for _, pol := range pols {
			t.Run(fmt.Sprintf("%s/%s", tp.name, pol.Name()), func(t *testing.T) {
				g := tp.build()
				adv := &chaosRerouter{
					inner: adversary.NewRandomWR(g, 16, rational.New(1, 2), tp.maxLen, 11),
					rng:   rand.New(rand.NewSource(42)),
				}
				e := sim.New(g, pol, adv)
				// An initial configuration exercises seeds too.
				e.SeedN(5, packet.Injection{Route: []graph.EdgeID{0}})
				checkStep(t, e, 0)
				for step := 1; step <= 600; step++ {
					e.Step()
					checkStep(t, e, step)
				}
				e.CheckConservation()
			})
		}
	}
}

// TestMaxQueueLenDifferentialDrain covers the empty↔nonempty
// transitions: a seeded burst drains to an empty network, which must
// report (NoEdge, 0), then refills.
func TestMaxQueueLenDifferentialDrain(t *testing.T) {
	g := graph.Line(6)
	route := []graph.EdgeID{g.MustEdge("e1"), g.MustEdge("e2"), g.MustEdge("e3")}
	e := sim.New(g, policy.FIFO{}, nil)
	e.SeedN(7, packet.Inj(route...))
	for step := 1; step <= 40; step++ {
		e.Step()
		checkStep(t, e, step)
	}
	if eid, l := e.MaxQueueLen(); eid != graph.NoEdge || l != 0 {
		t.Fatalf("drained network reports max (%d, %d), want (NoEdge, 0)", eid, l)
	}
	if e.MaxQueued() != 0 {
		t.Fatalf("drained network MaxQueued = %d", e.MaxQueued())
	}
}

func checkStep(t *testing.T, e *sim.Engine, step int) {
	t.Helper()
	wantEdge, wantLen := bruteMaxQueue(e)
	if got := e.MaxQueued(); got != wantLen {
		t.Fatalf("step %d: incremental MaxQueued = %d, brute force = %d", step, got, wantLen)
	}
	gotEdge, gotLen := e.MaxQueueLen()
	if gotEdge != wantEdge || gotLen != wantLen {
		t.Fatalf("step %d: incremental MaxQueueLen = (%d, %d), brute force = (%d, %d)",
			step, gotEdge, gotLen, wantEdge, wantLen)
	}
}

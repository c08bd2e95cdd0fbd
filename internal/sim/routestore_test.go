// Route store coverage: reference-counted route entries are recycled
// as packets leave, and recycling never rewrites a route's edges.
package sim_test

import (
	"slices"
	"testing"

	"aqt/internal/adversary"
	"aqt/internal/graph"
	"aqt/internal/packet"
	"aqt/internal/policy"
	"aqt/internal/rational"
	"aqt/internal/sim"
)

// routeKeeper keeps every admitted packet's route slice and a copy of
// its edges.
type routeKeeper struct {
	slices, copies [][]graph.EdgeID
}

func (k *routeKeeper) OnInject(_ int64, p *packet.Packet) {
	k.slices = append(k.slices, p.Route())
	k.copies = append(k.copies, slices.Clone(p.Route()))
}

// check fails the test if a kept slice no longer holds its edges.
func (k *routeKeeper) check(t *testing.T) {
	t.Helper()
	for i, r := range k.slices {
		if !slices.Equal(r, k.copies[i]) {
			t.Fatalf("route slice of admission %d reads %v, was %v", i, r, k.copies[i])
		}
	}
}

// TestRouteEntriesTrackBacklog: route entries are recycled as packets
// leave, so a RandomWR run ten times as long ends, drained, with no
// more live entries than the baseline run — what stays live is the
// route last admitted per first edge — and every route slice handed
// out along the way still holds its edges.
func TestRouteEntriesTrackBacklog(t *testing.T) {
	g := graph.Ring(8)
	run := func(steps int64) int {
		e := sim.New(g, policy.FIFO{}, adversary.NewRandomWR(g, 8, rational.New(1, 2), 4, 7))
		keep := &routeKeeper{}
		e.AddEventObserver(keep)
		e.RunQuiet(steps)
		if live, bound := sim.LiveRoutes(e), e.TotalQueued()+int64(g.NumEdges()); int64(live) > bound {
			t.Errorf("%d steps: %d live route entries for %d queued packets on %d edges",
				steps, live, e.TotalQueued(), g.NumEdges())
		}
		e.SetAdversary(nil)
		for e.TotalQueued() > 0 {
			e.Step()
		}
		keep.check(t)
		return sim.LiveRoutes(e)
	}
	const baseline = 2000
	base := run(baseline)
	if long := run(10 * baseline); long > base {
		t.Fatalf("drained after %d steps: %d live route entries, after %d steps: %d",
			baseline, base, 10*baseline, long)
	}
}

// TestRouteSliceOutlivesRecycledEntry: a Route slice taken while its
// packet lived keeps its edges after the packet is absorbed and its
// entry is reused for another route.
func TestRouteSliceOutlivesRecycledEntry(t *testing.T) {
	g := graph.Line(6)
	later := []packet.Injection{packet.InjNamed(g, "e4", "e5")}
	e := sim.New(g, policy.FIFO{}, sim.InjectFunc(func(e *sim.Engine) []packet.Injection {
		if e.Now() == 3 {
			return later
		}
		return nil
	}))
	p := e.Seed(packet.InjNamed(g, "e1", "e2"))
	// A second route on e1 becomes its edge's latest, so p holds the
	// last reference on its route.
	e.Seed(packet.InjNamed(g, "e1"))
	id, kept := p.RouteID(), p.Route()
	want := slices.Clone(kept)
	var reused *packet.Packet
	e.AddEventObserver(injectHook(func(q *packet.Packet) { reused = q }))
	e.Run(3)
	if e.Absorbed() != 2 || reused == nil {
		t.Fatalf("absorbed %d, injected %v: the run did not go as planned", e.Absorbed(), reused)
	}
	if reused.RouteID() != id {
		t.Fatalf("step-3 admission got route entry %d, want the recycled %d", reused.RouteID(), id)
	}
	if !slices.Equal(kept, want) {
		t.Fatalf("recycled entry's old slice reads %v, was %v", kept, want)
	}
	if !slices.Equal(reused.Route(), later[0].Route) {
		t.Fatalf("reused entry holds %v, want %v", reused.Route(), later[0].Route)
	}
}

// injectHook adapts a function to sim.InjectionObserver.
type injectHook func(p *packet.Packet)

func (f injectHook) OnInject(_ int64, p *packet.Packet) { f(p) }

package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"aqt/internal/graph"
	"aqt/internal/packet"
	"aqt/internal/policy"
)

// panicMsg runs f and returns the message it panicked with, or "" if
// it returned normally.
func panicMsg(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
			if msg == "" {
				msg = "<empty panic>"
			}
		}
	}()
	f()
	return ""
}

// TestAdmitInvalidRouteSharingFirstEdge: a route is checked unless it
// equals the stored route of its first edge, so an invalid route that
// shares its first edge with the last valid admission still panics
// with the admission message, and so does repeating it after the
// panic was recovered.
func TestAdmitInvalidRouteSharingFirstEdge(t *testing.T) {
	g := graph.Ring(4)
	e := New(g, policy.FIFO{}, nil)
	e.Seed(packet.Inj(route(g, "e1", "e2")...))
	for _, bad := range [][]graph.EdgeID{
		route(g, "e1", "e3"),                   // not contiguous
		route(g, "e1", "e2", "e3", "e4", "e1"), // contiguous, not simple
		route(g, "e1", "e2", "e3", "e4"),       // ends where it started
	} {
		want := "sim: injection route is not a simple path: " + g.RouteString(bad)
		for try := 0; try < 2; try++ {
			if got := panicMsg(func() { e.Seed(packet.Inj(bad...)) }); got != want {
				t.Fatalf("Seed(%s) try %d: panic %q, want %q", g.RouteString(bad), try, got, want)
			}
		}
	}
	// The stored route is still the valid one and still shared.
	a := e.Seed(packet.Inj(route(g, "e1", "e2")...))
	b := e.Seed(packet.Inj(route(g, "e1", "e2")...))
	if &a.Route()[0] != &b.Route()[0] {
		t.Fatal("equal routes after failed admissions are not shared")
	}
	if e.Injected() != 3 {
		t.Fatalf("injected %d, want 3", e.Injected())
	}
}

// TestFailedRerouteLeavesNoMemo: a reroute that fails its check and is
// recovered records nothing in the reroute memo, so repeating it in
// the same step panics again instead of reusing an unchecked route.
func TestFailedRerouteLeavesNoMemo(t *testing.T) {
	g := graph.Ring(4)
	e := New(g, policy.FIFO{}, nil)
	e.SeedN(2, packet.Inj(route(g, "e1", "e2")...))
	var ps []*packet.Packet
	e.ForEachQueued(func(_ graph.EdgeID, p *packet.Packet) { ps = append(ps, p) })
	for _, c := range []struct {
		ext  []graph.EdgeID
		want string
	}{
		{route(g, "e4"), "breaks path contiguity"},
		{route(g, "e3", "e4"), "is not simple"},
	} {
		for _, p := range ps {
			got := panicMsg(func() { e.ExtendRoute(p, c.ext) })
			if !strings.Contains(got, c.want) {
				t.Fatalf("ExtendRoute(%v, %s): panic %q, want %q", p, g.RouteString(c.ext), got, c.want)
			}
		}
	}
	for _, p := range ps {
		if p.Reroutes != 0 || !slices.Equal(p.Route(), route(g, "e1", "e2")) {
			t.Fatalf("failed reroutes changed %v: route %s", p, g.RouteString(p.Route()))
		}
	}
}

// FuzzAdmitRoutes feeds admission sequences of fresh, repeated,
// perturbed, extended and truncated routes on a small complete graph,
// where contiguous but non-simple routes abound, and checks that a
// route panics on admission, with the admission message, exactly when
// Graph.IsSimplePath rejects it, and that an admitted packet carries
// an equal route.
func FuzzAdmitRoutes(f *testing.F) {
	f.Add([]byte{0, 2, 0, 2, 1, 1, 2, 0, 5, 3, 1})
	f.Add([]byte{0, 3, 0, 2, 4, 1, 2, 1, 3, 1, 3, 0})
	f.Add([]byte{0, 1, 255, 1, 0, 2, 1, 4, 2, 0, 3, 5})
	f.Add([]byte{4, 0, 0, 1, 1, 0})
	g := graph.Complete(3)
	edges := g.NumEdges()
	// edge maps a byte onto a valid edge or NoEdge.
	edge := func(b byte) graph.EdgeID { return graph.EdgeID(int(b)%(edges+1)) - 1 }
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) > 256 {
			tape = tape[:256]
		}
		e := New(g, policy.FIFO{}, nil)
		next := func() byte {
			if len(tape) == 0 {
				return 0
			}
			b := tape[0]
			tape = tape[1:]
			return b
		}
		var prev []graph.EdgeID
		for len(tape) > 0 {
			var r []graph.EdgeID
			switch op := next(); op % 5 {
			case 0: // fresh route of up to 4 edges
				for n := int(next() % 5); n > 0; n-- {
					r = append(r, edge(next()))
				}
			case 1: // repeat
				r = slices.Clone(prev)
			case 2: // perturb one edge
				r = slices.Clone(prev)
				if len(r) > 0 {
					r[int(next())%len(r)] = edge(next())
				}
			case 3: // extend
				r = append(slices.Clone(prev), edge(next()))
			default: // truncate
				r = slices.Clone(prev)
				if len(r) > 0 {
					r = r[:len(r)-1]
				}
			}
			want := ""
			if !g.IsSimplePath(r) {
				want = "sim: injection route is not a simple path: " + g.RouteString(r)
			}
			var p *packet.Packet
			if got := panicMsg(func() { p = e.Seed(packet.Inj(r...)) }); got != want {
				t.Fatalf("admit %s: panic %q, want %q", g.RouteString(r), got, want)
			}
			if want == "" && !slices.Equal(p.Route(), r) {
				t.Fatalf("admitted %s as %s", g.RouteString(r), g.RouteString(p.Route()))
			}
			prev = r
		}
	})
}

package sim

import (
	"reflect"
	"slices"
	"testing"

	"aqt/internal/graph"
	"aqt/internal/packet"
	"aqt/internal/policy"
)

// injectLog records every admitted packet, keeping copies: the packet
// itself is valid only until it leaves the network.
type injectLog struct {
	ptrs   []*packet.Packet
	ids    []packet.ID
	routes map[packet.ID][]graph.EdgeID
}

func (l *injectLog) OnInject(_ int64, p *packet.Packet) {
	l.ptrs = append(l.ptrs, p)
	l.ids = append(l.ids, p.ID)
	if l.routes != nil {
		l.routes[p.ID] = slices.Clone(p.Route())
	}
}

// zeroedSlot reports whether every field of p is zero but its store
// back-pointer, which a slot keeps for its lifetime.
func zeroedSlot(p *packet.Packet) bool {
	v := reflect.ValueOf(p).Elem()
	for i := 0; i < v.NumField(); i++ {
		if v.Type().Field(i).Name != "store" && !v.Field(i).IsZero() {
			return false
		}
	}
	return true
}

// TestReleasedSlotReused: once a packet is absorbed its slot is zeroed
// and handed to the next admission, while packet IDs keep counting
// densely.
func TestReleasedSlotReused(t *testing.T) {
	g := graph.Line(2)
	e := New(g, policy.FIFO{}, &onceInjector{at: 2, injs: []packet.Injection{packet.TaggedInj("next", route(g, "e1")...)}})
	log := &injectLog{}
	e.AddEventObserver(log)
	a := e.Seed(packet.TaggedInj("first", route(g, "e1")...))
	e.Run(1)
	if e.Absorbed() != 1 {
		t.Fatalf("absorbed %d after step 1, want 1", e.Absorbed())
	}
	if !zeroedSlot(a) {
		t.Fatalf("released slot not zeroed: %+v", *a)
	}
	e.Run(1)
	if len(log.ptrs) != 2 || log.ptrs[1] != a {
		t.Fatalf("step-2 admission did not reuse the released slot")
	}
	if a.ID != 1 || a.Tag() != "next" || a.InjectedAt != 2 || a.Reroutes != 0 {
		t.Fatalf("reused slot holds %+v, want a fresh packet #1 injected at 2", *a)
	}
}

// TestRecycledIDsDenseAndUnique: under sustained load that recycles
// slots many times over, admission still assigns IDs 0, 1, 2, … and
// never more slots than the peak backlog needs.
func TestRecycledIDsDenseAndUnique(t *testing.T) {
	g := graph.Line(4)
	injs := []packet.Injection{
		packet.Inj(route(g, "e1", "e2")...),
		packet.Inj(route(g, "e3", "e4")...),
	}
	e := New(g, policy.FIFO{}, InjectFunc(func(*Engine) []packet.Injection { return injs }))
	log := &injectLog{}
	e.AddEventObserver(log)
	peak := int64(0)
	for i := 0; i < 2000; i++ {
		e.Step()
		peak = max(peak, e.TotalQueued())
	}
	slots := map[*packet.Packet]bool{}
	for i, id := range log.ids {
		if id != packet.ID(i) {
			t.Fatalf("admission %d got ID %d", i, id)
		}
		slots[log.ptrs[i]] = true
	}
	if int64(len(slots)) > peak+int64(len(injs)) {
		t.Fatalf("%d distinct slots for %d admissions, peak backlog %d", len(slots), len(log.ids), peak)
	}
}

// TestSeedDroppedOnArrivalReturnsNil: in bounded mode a seed the drop
// policy discards on arrival is released before Seed returns, and Seed
// reports it with nil.
func TestSeedDroppedOnArrivalReturnsNil(t *testing.T) {
	g, e := boundedLine(1, 1, DropTail{}, nil)
	log := &dropLog{}
	e.AddEventObserver(log)
	if p := e.Seed(packet.Inj(route(g, "e1")...)); p == nil || p.ID != 0 {
		t.Fatalf("first seed = %v, want packet #0", p)
	}
	if p := e.Seed(packet.Inj(route(g, "e1")...)); p != nil {
		t.Fatalf("seed dropped on arrival = %v, want nil", p)
	}
	if e.Dropped() != 1 || len(log.events) != 1 || log.events[0].id != 1 {
		t.Fatalf("dropped %d, drop log %v; want packet #1 dropped", e.Dropped(), log.events)
	}
	// Drop-head admits the arrival and evicts the resident instead.
	_, e = boundedLine(1, 1, DropHead{}, nil)
	e.Seed(packet.Inj(route(g, "e1")...))
	if p := e.Seed(packet.Inj(route(g, "e1")...)); p == nil || p.ID != 1 {
		t.Fatalf("drop-head seed = %v, want packet #1", p)
	}
}

// scribbler reuses one route buffer for every Inject and scribbles
// over it in PreStep and before each refill, cycling through routes of
// different lengths on the same first edge.
type scribbler struct {
	buf []graph.EdgeID
	out []packet.Injection
}

func (s *scribbler) scribble() {
	full := s.buf[:cap(s.buf)]
	for i := range full {
		full[i] = graph.EdgeID(len(full) - 1 - i)
	}
}

func (s *scribbler) PreStep(*Engine) { s.scribble() }

func (s *scribbler) Inject(e *Engine) []packet.Injection {
	s.scribble()
	n := 1 + int(e.Now()%3)
	s.buf = s.buf[:n]
	for i := range s.buf {
		s.buf[i] = graph.EdgeID(i)
	}
	s.out = append(s.out[:0], packet.Injection{Route: s.buf}, packet.Injection{Route: s.buf})
	return s.out
}

// TestAdversaryRewritingRouteInPlace: an adversary that rewrites its
// returned route slice after every Inject changes no admitted packet's
// route, though admission shares one stored route among equal ones.
func TestAdversaryRewritingRouteInPlace(t *testing.T) {
	g := graph.Line(4)
	adv := &scribbler{buf: make([]graph.EdgeID, 0, 4)}
	e := New(g, policy.FIFO{}, adv)
	log := &injectLog{routes: map[packet.ID][]graph.EdgeID{}}
	e.AddEventObserver(log)
	check := func(p *packet.Packet) {
		if want := log.routes[p.ID]; !slices.Equal(p.Route(), want) {
			t.Fatalf("t=%d: packet #%d route %v, admitted with %v", e.Now(), p.ID, p.Route(), want)
		}
	}
	e.AddEventObserver(absorbCheck(check))
	for i := 0; i < 300; i++ {
		e.Step()
		e.ForEachQueued(func(_ graph.EdgeID, p *packet.Packet) { check(p) })
	}
	if e.Absorbed() == 0 {
		t.Fatal("nothing absorbed")
	}
}

type absorbCheck func(p *packet.Packet)

func (f absorbCheck) OnAbsorb(_ int64, p *packet.Packet) { f(p) }

// TestRerouteMemoMatchesRequest: reroutes of packets sharing one old
// route share the new route exactly when (old route, position, suffix,
// extension) agree; a memo entry never answers a different request.
func TestRerouteMemoMatchesRequest(t *testing.T) {
	g := graph.Line(5)
	e := New(g, policy.FIFO{}, nil)
	r := route(g, "e1", "e2", "e3")
	e.SeedN(8, packet.Inj(r...))
	var ps []*packet.Packet
	e.ForEachQueued(func(_ graph.EdgeID, p *packet.Packet) { ps = append(ps, p) })
	if &ps[0].Route()[0] != &ps[7].Route()[0] {
		t.Fatal("equal seeded routes are not shared")
	}
	e.Run(1) // ps[0] now sits on e2 (pos 1), the rest on e1 (pos 0)
	e4 := route(g, "e4")
	ext := []graph.EdgeID{e4[0]}
	cases := []struct {
		p           *packet.Packet
		suffix, ext []graph.EdgeID
		want        []graph.EdgeID
	}{
		{ps[1], nil, ext, route(g, "e1", "e2", "e3", "e4")},
		{ps[0], route(g, "e3"), ext, route(g, "e1", "e2", "e3", "e4")}, // same content, other position
		{ps[2], route(g, "e2"), nil, route(g, "e1", "e2")},             // same key as ps[1], other tail
		{ps[3], route(g, "e2", "e3"), ext, route(g, "e1", "e2", "e3", "e4")},
		{ps[4], route(g, "e2", "e3", "e4"), nil, route(g, "e1", "e2", "e3", "e4")},
		{ps[5], route(g, "e2", "e3"), ext, route(g, "e1", "e2", "e3", "e4")}, // repeats ps[3]
	}
	for i, c := range cases {
		if c.ext != nil && c.suffix == nil {
			e.ExtendRoute(c.p, c.ext)
		} else {
			e.reroute(c.p, c.suffix, c.ext)
		}
		if !slices.Equal(c.p.Route(), c.want) {
			t.Fatalf("case %d: route %v, want %v", i, c.p.Route(), c.want)
		}
	}
	if &ps[5].Route()[0] != &ps[4].Route()[0] || &ps[4].Route()[0] != &ps[3].Route()[0] {
		t.Error("equal reroutes of one old route at one position built separate routes")
	}
	if &ps[0].Route()[0] == &ps[1].Route()[0] {
		t.Error("reroutes at different positions share a route")
	}
	// The memo is per step: a later step's reroute of an untouched
	// packet with the same request still gets the right route.
	ext2 := slices.Clone(ext)
	e.Run(1)
	var rest []*packet.Packet
	e.ForEachQueued(func(_ graph.EdgeID, p *packet.Packet) {
		if p.Reroutes == 0 {
			rest = append(rest, p)
		}
	})
	if len(rest) != 2 {
		t.Fatalf("%d packets left unrerouted, want 2", len(rest))
	}
	for _, p := range rest {
		e.ExtendRoute(p, ext2)
		if !slices.Equal(p.Route(), route(g, "e1", "e2", "e3", "e4")) {
			t.Fatalf("step-2 reroute: route %v", p.Route())
		}
	}
	e.CheckConservation()
}

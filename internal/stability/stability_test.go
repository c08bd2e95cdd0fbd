package stability

import (
	"strings"
	"testing"
	"testing/quick"

	"aqt/internal/adversary"
	"aqt/internal/graph"
	"aqt/internal/obs"
	"aqt/internal/packet"
	"aqt/internal/policy"
	"aqt/internal/rational"
	"aqt/internal/sim"
)

func TestResidenceBound(t *testing.T) {
	if got := ResidenceBound(10, rational.New(1, 3)); got != 3 {
		t.Errorf("floor(10/3) = %d", got)
	}
	if got := ResidenceBound(12, rational.New(1, 4)); got != 3 {
		t.Errorf("floor(12/4) = %d", got)
	}
}

func TestRateBounds(t *testing.T) {
	if !GreedyRateBound(3).Eq(rational.New(1, 4)) {
		t.Error("greedy bound wrong")
	}
	if !TimePriorityRateBound(3).Eq(rational.New(1, 3)) {
		t.Error("time-priority bound wrong")
	}
	for _, f := range []func(){func() { GreedyRateBound(0) }, func() { TimePriorityRateBound(0) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("d=0 did not panic")
				}
			}()
			f()
		}()
	}
}

func TestInitialConfigResidenceBound(t *testing.T) {
	// S=10, w=5, r=1/8, bound rate 1/4: w* = ceil(16/(1/8)) = 128,
	// residence = floor(128/4) = 32.
	got := InitialConfigResidenceBound(10, 5, rational.New(1, 8), rational.New(1, 4))
	if got != 32 {
		t.Errorf("bound = %d, want 32", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("r >= bound did not panic")
		}
	}()
	InitialConfigResidenceBound(10, 5, rational.New(1, 4), rational.New(1, 4))
}

// theorem41Network builds a random-ish multi-path network and a (w,r)
// adversary at the given rate with routes of length <= d.
func theorem41Setup(d int, w int64, rate rational.Rat, seed int64) (*graph.Graph, sim.Adversary) {
	g := graph.Complete(d + 2)
	adv := adversary.NewRandomWR(g, w, rate, d, seed)
	return g, adv
}

func TestTheorem41AllGreedyPolicies(t *testing.T) {
	// Every policy is greedy; at r <= 1/(d+1) the floor(wr) residence
	// bound must hold for all of them.
	d := 3
	w := int64(40)
	rate := GreedyRateBound(d) // exactly 1/(d+1)
	for _, pol := range policy.All() {
		g, adv := theorem41Setup(d, w, rate, 11)
		res := CheckResidence(g, pol, adv, w, rate, d, 4000)
		if res.Injected == 0 {
			t.Fatalf("%s: adversary injected nothing", pol.Name())
		}
		if !res.OK() {
			t.Errorf("Theorem 4.1 violated: %s", res)
		}
	}
}

func TestTheorem43TimePriorityAtOneOverD(t *testing.T) {
	// FIFO and LIS tolerate the higher rate 1/d.
	d := 3
	w := int64(42)
	rate := TimePriorityRateBound(d) // 1/d
	for _, pol := range []policy.Policy{policy.FIFO{}, policy.LIS{}} {
		if !pol.Traits().TimePriority {
			t.Fatalf("%s is not time-priority", pol.Name())
		}
		g, adv := theorem41Setup(d, w, rate, 23)
		res := CheckResidence(g, pol, adv, w, rate, d, 4000)
		if res.Injected == 0 {
			t.Fatal("adversary injected nothing")
		}
		if !res.OK() {
			t.Errorf("Theorem 4.3 violated: %s", res)
		}
	}
}

func TestResidenceResultString(t *testing.T) {
	res := ResidenceResult{Policy: "FIFO", W: 10, Rate: rational.New(1, 4), D: 3,
		Bound: 2, Measured: 5}
	if res.OK() {
		t.Error("5 > 2 should not be OK")
	}
	if !strings.Contains(res.String(), "VIOLATED") {
		t.Errorf("String = %q", res.String())
	}
	res.Measured = 2
	if !res.OK() || !strings.Contains(res.String(), "OK") {
		t.Error("2 <= 2 should be OK")
	}
}

func TestClassify(t *testing.T) {
	mk := func(vals ...int64) []obs.Point {
		out := make([]obs.Point, len(vals))
		for i, v := range vals {
			out[i] = obs.Point{T: int64(i), V: v}
		}
		return out
	}
	if v := Classify(mk(1, 2, 3), 1.25); v != Inconclusive {
		t.Errorf("short series = %v", v)
	}
	// Flat series: stable.
	if v := Classify(mk(5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5), 1.25); v != Stable {
		t.Errorf("flat = %v", v)
	}
	// Linearly growing series: diverging.
	grow := make([]int64, 30)
	for i := range grow {
		grow[i] = int64(10 * (i + 1))
	}
	if v := Classify(mk(grow...), 1.25); v != Diverging {
		t.Errorf("growing = %v", v)
	}
	// Empty network forever: stable.
	if v := Classify(mk(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), 1.25); v != Stable {
		t.Errorf("empty = %v", v)
	}
	// Zero middle then nonzero tail: diverging.
	if v := Classify(mk(0, 0, 0, 0, 0, 0, 0, 0, 7, 7, 7, 7), 1.25); v != Diverging {
		t.Errorf("late burst = %v", v)
	}
	if Stable.String() != "stable" || Diverging.String() != "diverging" || Inconclusive.String() != "inconclusive" {
		t.Error("verdict strings wrong")
	}
}

func TestRunClassifiesDrainingSystem(t *testing.T) {
	g := graph.Ring(4)
	adv := adversary.NewRandomWR(g, 20, rational.New(1, 6), 2, 5)
	eng := sim.New(g, policy.FIFO{}, adv)
	rep := Run(eng, 3000, 10, 1.25)
	if rep.Verdict != Stable {
		t.Errorf("low-rate ring under FIFO should be stable, got %v (peak %d, final %d)",
			rep.Verdict, rep.PeakTotal, rep.FinalTotal)
	}
	if len(rep.Samples) == 0 {
		t.Error("no samples recorded")
	}
}

func TestRunClassifiesOverload(t *testing.T) {
	// A single edge fed at rate 2 cannot drain: diverging.
	g := graph.Line(1)
	adv := adversary.NewScript(adversary.Stream{
		Start: 1, Rate: rational.FromInt(2), Budget: -1,
		Route: []graph.EdgeID{g.MustEdge("e1")},
	})
	eng := sim.New(g, policy.FIFO{}, adv)
	rep := Run(eng, 2000, 10, 1.25)
	if rep.Verdict != Diverging {
		t.Errorf("overloaded edge should diverge, got %v", rep.Verdict)
	}
}

func TestMaxRouteLenObserver(t *testing.T) {
	g := graph.Line(4)
	m := &MaxRouteLen{}
	e := sim.New(g, policy.FIFO{}, nil)
	e.AddObserver(m)
	p := e.Seed(packet.InjNamed(g, "e1", "e2"))
	if m.D != 2 {
		t.Errorf("D = %d after seed", m.D)
	}
	e.ExtendRoute(p, []graph.EdgeID{g.MustEdge("e3"), g.MustEdge("e4")})
	if m.D != 4 {
		t.Errorf("D = %d after extension", m.D)
	}
}

// Property: for random d, w and any rate <= 1/(d+1), FIFO and LIS obey
// the floor(wr) residence bound on complete graphs.
func TestQuickResidenceBoundHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep")
	}
	f := func(dRaw, wRaw uint8, seed int64) bool {
		d := int(dRaw%3) + 1
		w := int64(wRaw%30) + int64(d+1) // ensure floor(wr) >= 1
		rate := GreedyRateBound(d)
		for _, pol := range []policy.Policy{policy.FIFO{}, policy.LIS{}, policy.NTG{}} {
			g, adv := theorem41Setup(d, w, rate, seed)
			res := CheckResidence(g, pol, adv, w, rate, d, 1200)
			if !res.OK() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

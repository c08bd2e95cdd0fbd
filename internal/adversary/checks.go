package adversary

import (
	"errors"
	"fmt"

	"aqt/internal/graph"
	"aqt/internal/rational"
	"aqt/internal/sim"
)

// The validation errors behind the constructor panics, exported so
// declarative front ends (internal/scenario) can reject a bad spec with
// exactly the message a hand-built adversary would panic with.
var (
	ErrStreamRoute = errors.New("adversary: stream needs exactly one of Route and RouteFn")
	ErrStreamRate  = errors.New("adversary: stream rate must be positive")
	ErrBurstStream = errors.New("adversary: burst stream needs period >= 1, burst >= 1 and a route")
	ErrWindow      = errors.New("adversary: window must be >= 1")
	ErrMaxLen      = errors.New("adversary: maxLen must be >= 1")
)

// CheckStream validates a Stream specification. Script.AddStream panics
// with exactly this error on violation.
func CheckStream(st Stream) error {
	if (st.Route == nil) == (st.RouteFn == nil) {
		return ErrStreamRoute
	}
	if st.Rate.Sign() <= 0 {
		return ErrStreamRate
	}
	return nil
}

// CheckBurstStream validates a BurstStream specification.
// NewBurstScript panics with exactly this error on violation.
func CheckBurstStream(st BurstStream) error {
	if st.Period < 1 || st.Burst < 1 || len(st.Route) == 0 {
		return ErrBurstStream
	}
	return nil
}

// CheckWindow validates a (w,·) window length. NewWindowValidator and
// NewRandomWR panic with exactly this error on violation.
func CheckWindow(w int64) error {
	if w < 1 {
		return ErrWindow
	}
	return nil
}

// CheckWindowRate validates a full (w,r) pair up front: the window must
// be positive and the pair must be admissible in the sense of
// Definition 2.1 — floor(r·w) >= 1, otherwise the adversary may never
// inject a single packet in any window.
func CheckWindowRate(w int64, rate rational.Rat) error {
	if err := CheckWindow(w); err != nil {
		return err
	}
	if rate.Sign() <= 0 {
		return fmt.Errorf("adversary: window rate must be positive, got %v", rate)
	}
	if bound := rate.FloorMulInt(w); bound < 1 {
		return fmt.Errorf("adversary: (w,r) = (%d,%v) admits no injections: floor(r*w) = 0 (Definition 2.1)", w, rate)
	}
	return nil
}

// SameExecution compares the complete externally observable state of
// two engines: snapshot (modulo Stats.Nanos, which is wall-clock),
// residence, and every queue packet by packet — identity, full route,
// position, injection and arrival steps, and tag. Reroute counters are
// deliberately not compared: Remark 1 replays carry final routes up
// front, so an oblivious re-execution has Reroutes == 0 while matching
// the adaptive original everywhere it matters.
//
// It is the shared gate of the leap-vs-step harness and of the
// scenario differential matrix: two runs accepted by SameExecution are
// bit-identical in every quantity the paper's analysis reads.
func SameExecution(a, b *sim.Engine) error {
	sa, sb := a.Snap(), b.Snap()
	sa.Stats.Nanos, sb.Stats.Nanos = 0, 0
	if sa != sb {
		return fmt.Errorf("snapshot differs: %+v vs %+v", sa, sb)
	}
	if ra, rb := a.MaxResidence(true), b.MaxResidence(true); ra != rb {
		return fmt.Errorf("max residence differs: %d vs %d", ra, rb)
	}
	if a.Graph().NumEdges() != b.Graph().NumEdges() {
		return fmt.Errorf("different graphs: %d vs %d edges", a.Graph().NumEdges(), b.Graph().NumEdges())
	}
	for eid := 0; eid < a.Graph().NumEdges(); eid++ {
		id := graph.EdgeID(eid)
		qa, qb := a.Queue(id), b.Queue(id)
		if qa.Len() != qb.Len() {
			return fmt.Errorf("t=%d: queue at edge %d differs: %d vs %d packets",
				a.Now(), eid, qa.Len(), qb.Len())
		}
		for i := 0; i < qa.Len(); i++ {
			pa, pb := qa.At(i), qb.At(i)
			if pa.ID != pb.ID || pa.Pos != pb.Pos || pa.InjectedAt != pb.InjectedAt ||
				pa.ArrivedAt != pb.ArrivedAt || pa.Tag() != pb.Tag() || !sameRoute(pa.Route(), pb.Route()) {
				return fmt.Errorf("t=%d: edge %d slot %d differs: %v vs %v",
					a.Now(), eid, i, pa, pb)
			}
		}
	}
	return nil
}

func sameRoute(a, b []graph.EdgeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

package adversary

import (
	"testing"

	"aqt/internal/graph"
	"aqt/internal/packet"
)

// refSharedEdge is the counting-map SharedEdge the candidate-narrowing
// version replaced, kept as the independent reference.
func refSharedEdge(pkts []*packet.Packet) (graph.EdgeID, bool) {
	if len(pkts) == 0 {
		return graph.NoEdge, false
	}
	counts := make(map[graph.EdgeID]int)
	for _, p := range pkts {
		seen := make(map[graph.EdgeID]bool)
		for _, e := range p.RemainingRoute() {
			if !seen[e] {
				seen[e] = true
				counts[e]++
			}
		}
	}
	best, found := graph.NoEdge, false
	for e, c := range counts {
		if c == len(pkts) && (!found || e < best) {
			best, found = e, true
		}
	}
	return best, found
}

// FuzzSharedEdge checks SharedEdge against refSharedEdge on packet sets
// built from the tape: up to 12 packets whose routes draw from a small
// edge alphabet (so common edges, repeats and ties are frequent), with
// arbitrary positions, including routes past the 64-edge scratch.
func FuzzSharedEdge(f *testing.F) {
	f.Add([]byte{3, 4, 0, 1, 2, 3, 5, 3, 1, 2, 3, 4, 9, 2, 0, 3, 7, 6, 5})
	f.Add([]byte{1, 0, 0})
	// Edges 5 and 2 are both common; the tie goes to 2.
	f.Add([]byte{2, 2, 5, 2, 0, 2, 2, 5, 0})
	f.Add([]byte{2, 80, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0, 1, 2, 3, 4, 5, 6, 7, 3, 1, 9, 9, 9})
	f.Add([]byte{4, 2, 0, 5, 5, 2, 1, 5, 5, 2, 0, 5, 7, 2, 0, 7, 5})
	f.Fuzz(func(t *testing.T, tape []byte) {
		next := func() int {
			if len(tape) == 0 {
				return 0
			}
			b := tape[0]
			tape = tape[1:]
			return int(b)
		}
		pkts := make([]*packet.Packet, next()%13)
		for i := range pkts {
			route := make([]graph.EdgeID, next()%100)
			for j := range route {
				route[j] = graph.EdgeID(next() % 12)
			}
			pkts[i] = routedPkt(route, next()%(len(route)+1), 0)
		}
		gotE, gotOK := SharedEdge(pkts)
		wantE, wantOK := refSharedEdge(pkts)
		if gotE != wantE || gotOK != wantOK {
			t.Fatalf("SharedEdge = (%d, %v), reference (%d, %v)", gotE, gotOK, wantE, wantOK)
		}
	})
}

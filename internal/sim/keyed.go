package sim

import (
	"aqt/internal/graph"
	"aqt/internal/packet"
)

// Keyed-policy fast path: for policies whose rule is "minimize
// (key, enqueueSeq)" (policy.Keyed), the engine maintains a per-edge
// binary min-heap of (key, seq) entries, replacing the O(n) buffer scan
// per send with an amortized O(log n) pop. The ring buffer stays the
// source of truth (observers and invariant checkers keep seeing enqueue
// order); the heap is only an index into it, and the heap top's packet
// is located in the ring by binary search on its sequence number.
//
// Lazy deletion (tombstones): the heap may hold stale entries. A
// Lemma 3.3 reroute that changes a buffered packet's selection key does
// not rebuild the heap — the pre-tombstone eager scheme paid O(n) per
// rerouted buffer, which dominated reroute-heavy phases — it pushes one
// fresh (newKey, seq) entry for just that packet and leaves the old
// entry behind as a tombstone. Correctness rests on one invariant:
//
//	for every packet p buffered at edge eid, heaps[eid] holds at
//	least one entry equal to (SelectionKey(p), p.EnqueueSeq).
//
// An entry (k, s) is stale iff the buffer no longer holds seq s
// (IndexOfSeq(s) == -1: the packet was already sent and only its
// duplicate entries remain), or its key disagrees with the packet's
// current SelectionKey (a later reroute changed it; the reroute pushed
// a fresher entry). Every non-stale entry equals (SelectionKey(p), seq)
// for some buffered p, so popping in heap order and discarding stale
// entries yields exactly the packet minimizing (key, seq) — the
// policy's selection rule.
//
// heapStale counts, per edge, an upper bound on the stale entries
// still in the heap (each key-changing reroute strands exactly one;
// pops discard them one at a time). When tombstones exceed half the
// heap right after a reroute, the heap is compacted — rebuilt from the
// buffer in O(n) — so memory and pop cost stay proportional to live
// entries. Compaction is amortized: it needs > len/2 reroute pushes
// since the previous compaction, each of which paid only O(log n).

// keyEntry is one heap element.
type keyEntry struct {
	key int64
	seq int64
}

// keyHeap is a hand-rolled min-heap over (key, seq); container/heap is
// avoided to keep pushes allocation-free on the hot path.
type keyHeap []keyEntry

func (h keyHeap) less(i, j int) bool {
	if h[i].key != h[j].key {
		return h[i].key < h[j].key
	}
	return h[i].seq < h[j].seq
}

func (h *keyHeap) push(e keyEntry) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(*h).less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *keyHeap) pop() keyEntry {
	old := *h
	top := old[0]
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	h.siftDown(0)
	return top
}

func (h keyHeap) siftDown(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}

// popKeyed selects and removes the packet minimizing (SelectionKey,
// EnqueueSeq) from the nonempty buffer of edge eid, discarding stale
// heap entries (tombstones) along the way, and returns its handle.
func (e *Engine) popKeyed(eid graph.EdgeID) packet.Handle {
	buf := &e.buffers[eid]
	h := &e.heaps[eid]
	for len(*h) > 0 {
		top := h.pop()
		i := buf.IndexOfSeq(top.seq)
		if i < 0 {
			// The packet already left this buffer; only this duplicate
			// entry survived it.
			e.skipStale(eid)
			continue
		}
		p := buf.At(i)
		if e.keyed.SelectionKey(p) != top.key {
			// A reroute changed the key after this entry was pushed; the
			// reroute pushed a fresh entry, so this one is a tombstone.
			e.skipStale(eid)
			continue
		}
		return buf.RemoveAt(i)
	}
	panic("sim: keyed heap exhausted with a nonempty buffer (tombstone invariant violated)")
}

func (e *Engine) skipStale(eid graph.EdgeID) {
	e.stats.HeapSkips++
	if e.heapStale[eid] > 0 {
		e.heapStale[eid]--
		e.heapStaleTot--
	}
}

// tombstone records that a reroute changed a buffered packet's
// selection key: push a fresh entry for just that packet, count the
// stranded old entry, and compact when tombstones dominate the heap.
func (e *Engine) tombstone(eid graph.EdgeID, fresh keyEntry) {
	e.heaps[eid].push(fresh)
	e.heapStale[eid]++
	e.heapStaleTot++
	if 2*e.heapStale[eid] > len(e.heaps[eid]) {
		e.compactHeap(int(eid))
	}
}

// compactHeap regenerates the heap of edge eid from its buffer
// contents, dropping every tombstone. This is the only remaining O(n)
// rebuild; it runs amortized (see the package comment above).
func (e *Engine) compactHeap(eid int) {
	e.stats.HeapCompactions++
	e.stats.HeapRebuilds++
	h := e.heaps[eid][:0]
	buf := &e.buffers[eid]
	for i := 0; i < buf.Len(); i++ {
		p := buf.At(i)
		h = append(h, keyEntry{key: e.keyed.SelectionKey(p), seq: p.EnqueueSeq})
	}
	// Floyd heap construction.
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
	e.heaps[eid] = h
	e.heapStaleTot -= e.heapStale[eid]
	e.heapStale[eid] = 0
}

// Bounded buffers: finite per-edge capacity with pluggable drop
// policies, after Miller, Patt-Shamir and Rosenbaum ("With Great Speed
// Come Small Buffers", PODC 2019). With Config.BufferCap = B > 0 every
// edge buffer holds at most B packets; a packet arriving (by injection
// or transit) at a full buffer triggers the configured DropPolicy,
// which either discards the arrival or evicts a buffered packet to
// make room. Dropped packets leave the system permanently — they are
// never retransmitted — so the conservation law becomes
//
//	injected = absorbed + queued + dropped,
//
// enforced by Engine.CheckConservation. BufferCap = 0 (the default) is
// the paper's unbounded model; the engine is then bit-identical to an
// engine built without a Config (gated by the unbounded-equivalence
// differential tests in internal/scenario).
//
// Leap-mode compatibility: leaped windows require a static adversary
// horizon, so they contain no injections; idle windows hold no packets
// at all, and drain windows only move packets from final-edge buffers
// to absorption — no enqueue ever happens inside a leapable window, so
// no drop can. Bounded engines therefore leap exactly like unbounded
// ones, and RunLeap stays bit-identical to Run (proved for a bounded
// scenario in internal/scenario's differential matrix).
package sim

import (
	"fmt"

	"aqt/internal/buffer"
	"aqt/internal/graph"
	"aqt/internal/packet"
)

// DropPolicy decides what to discard when a packet arrives at a full
// buffer. Victim returns the enqueue-order index (0 = front) of the
// buffered packet to evict — the arrival is then enqueued at the back
// — or -1 to drop the arrival itself. Implementations must be
// deterministic functions of the buffer contents and the arrival;
// executions stay fully reproducible. The engine panics on any other
// return value.
type DropPolicy interface {
	Name() string
	Victim(buf *buffer.Buffer, p *packet.Packet, now int64) int
}

// DropTail discards the arriving packet (the classical tail-drop
// queue). Buffered packets are never disturbed, so scheduling under
// DropTail sees exactly the prefix of arrivals that fit.
type DropTail struct{}

// Name implements DropPolicy.
func (DropTail) Name() string { return "tail" }

// Victim implements DropPolicy: always the arrival.
func (DropTail) Victim(*buffer.Buffer, *packet.Packet, int64) int { return -1 }

// DropHead evicts the packet at the front of the buffer (the oldest in
// enqueue order) and admits the arrival — the drop-from-front queue,
// which favours fresh traffic over stale backlog.
type DropHead struct{}

// Name implements DropPolicy.
func (DropHead) Name() string { return "head" }

// Victim implements DropPolicy: always the front packet.
func (DropHead) Victim(*buffer.Buffer, *packet.Packet, int64) int { return 0 }

// DropNTG discards, among the buffered packets and the arrival, one
// with the fewest remaining hops (nearest to go — the packet that has
// the least work left and so frees the least future bandwidth by
// surviving). Ties break deterministically: the arrival is dropped
// when it ties the buffered minimum (survivors stay untouched), and
// among buffered ties the lowest enqueue-order index goes.
type DropNTG struct{}

// Name implements DropPolicy.
func (DropNTG) Name() string { return "ntg" }

// Victim implements DropPolicy.
func (DropNTG) Victim(buf *buffer.Buffer, p *packet.Packet, _ int64) int {
	min, at := p.RemainingHops(), -1
	for i := 0; i < buf.Len(); i++ {
		if h := buf.At(i).RemainingHops(); h < min {
			min, at = h, i
		}
	}
	return at
}

// DropByName returns the drop policy with the given name
// (tail | head | ntg).
func DropByName(name string) (DropPolicy, error) {
	switch name {
	case "tail":
		return DropTail{}, nil
	case "head":
		return DropHead{}, nil
	case "ntg":
		return DropNTG{}, nil
	}
	return nil, fmt.Errorf("unknown drop policy %q (tail|head|ntg)", name)
}

// DropObserver is additionally notified of every dropped packet: at
// step t, packet p was discarded at the full buffer of edge eid —
// either the arrival itself (never enqueued there) or an evicted
// resident. Fires from the same event-dispatch layer as the other
// event observers, so AddEventObserver wiring preserves the
// observerless Run fast path. p is valid only until the OnDrop
// callbacks return: the engine then zeroes and reuses its slot, so an
// observer copies what it keeps.
type DropObserver interface {
	OnDrop(t int64, eid graph.EdgeID, p *packet.Packet)
}

// tryEnqueue places p at the back of the buffer of its current edge,
// applying the capacity limit first: at a full buffer the drop policy
// either discards the arrival (tryEnqueue reports false, and p is not
// enqueued anywhere and already released) or evicts a resident to make
// room. In unbounded mode (BufferCap == 0) this is exactly enqueue.
func (e *Engine) tryEnqueue(h packet.Handle, p *packet.Packet, t int64) bool {
	if e.cfg.BufferCap > 0 {
		eid := p.CurrentEdge()
		if buf := &e.buffers[eid]; buf.Len() >= e.cfg.BufferCap {
			v := e.cfg.Drop.Victim(buf, p, t)
			if v < 0 {
				e.dropPacket(eid, h, p, t)
				return false
			}
			if v >= buf.Len() {
				panic(fmt.Sprintf("sim: drop policy %s returned victim index %d for a buffer of %d",
					e.cfg.Drop.Name(), v, buf.Len()))
			}
			e.evict(eid, v, t)
		}
	}
	e.enqueue(h, p, t)
	return true
}

// evict removes the resident at enqueue-order index v from the buffer
// of edge eid and accounts it as dropped, mirroring the send substep's
// bookkeeping: occupancy histogram, nonFinal count and — under a keyed
// policy — the lazy-deletion stale counter (the evicted packet's heap
// entry becomes a tombstone exactly like a sent packet's duplicate
// entries, and popKeyed discards it by IndexOfSeq miss).
func (e *Engine) evict(eid graph.EdgeID, v int, t int64) {
	buf := &e.buffers[eid]
	vh := buf.RemoveAt(v)
	victim := e.slab.Get(vh)
	e.shrinkLen(eid, buf.Len())
	if victim.RemainingHops() > 1 {
		e.nonFinal--
	}
	if e.keyed != nil {
		e.heapStale[eid]++
		e.heapStaleTot++
		if 2*e.heapStale[eid] > len(e.heaps[eid]) {
			e.compactHeap(int(eid))
		}
	}
	e.dropPacket(eid, vh, victim, t)
}

// dropPacket accounts one dropped packet p, in slot h, at edge eid,
// notifies the DropObservers and releases the slot. Only reachable in
// bounded mode, where dropsPerEdge is allocated.
func (e *Engine) dropPacket(eid graph.EdgeID, h packet.Handle, p *packet.Packet, t int64) {
	e.dropped++
	e.stats.Drops++
	e.dropsPerEdge[eid]++
	for _, ob := range e.dropObs {
		ob.OnDrop(t, eid, p)
	}
	e.slab.Release(h)
}

// Dropped returns the lifetime number of dropped packets (0 in
// unbounded mode).
func (e *Engine) Dropped() int64 { return e.dropped }

// DropsAt returns the lifetime number of packets dropped at the buffer
// of edge eid.
func (e *Engine) DropsAt(eid graph.EdgeID) int64 {
	if e.dropsPerEdge == nil {
		return 0
	}
	return e.dropsPerEdge[eid]
}

// BufferCap returns the per-edge buffer capacity (0 = unbounded).
func (e *Engine) BufferCap() int { return e.cfg.BufferCap }

// Drop returns the configured drop policy (nil in unbounded mode).
func (e *Engine) Drop() DropPolicy {
	if e.cfg.BufferCap == 0 {
		return nil
	}
	return e.cfg.Drop
}

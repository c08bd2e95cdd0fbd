// Quickstart: build a ring network, drive it with random
// (w,r)-compliant adversarial traffic under FIFO, and print queue
// statistics and a stability verdict — the smallest end-to-end tour of
// the library.
package main

import (
	"fmt"

	"aqt"
)

func main() {
	// A directed 8-cycle: every node is a switch, every edge a
	// unit-capacity link with a buffer at its tail.
	g := aqt.Ring(8)

	// A (w, r) adversary (Definition 2.1 of the paper): in every
	// window of w = 20 steps it injects at most floor(r*w) = 5 packets
	// requiring any single edge. Routes here are random simple paths
	// of at most d = 3 hops.
	const w, d = 20, 3
	rate := aqt.R(1, 4)
	adv := aqt.NewRandomWR(g, w, rate, d, 42)

	// Run FIFO for 10k steps, sampling the backlog.
	eng := aqt.NewEngine(g, aqt.FIFO{}, adv)
	sam := aqt.NewSampler(aqt.SamplerConfig{Every: 20})
	sam.Attach(eng)
	eng.Run(10_000)

	snap := eng.Snap()
	fmt.Println("quickstart: FIFO on an 8-ring under a (20, 1/4) adversary")
	fmt.Printf("  injected %d, absorbed %d, in flight %d\n",
		snap.Injected, snap.Absorbed, snap.TotalQueued)
	fmt.Printf("  peak backlog %d packets\n", sam.PeakTotal())

	// Theorem 4.1: at r <= 1/(d+1) no packet waits more than
	// floor(w*r) steps in any one buffer — check it live.
	bound := aqt.ResidenceBound(w, rate)
	fmt.Printf("  max per-buffer residence %d (Theorem 4.1 bound %d)\n",
		eng.MaxResidence(true), bound)
	fmt.Printf("  verdict: %v\n", aqt.Classify(sam.Backlog(), 1.25))
}

package main

import (
	"fmt"
	"io"

	"aqt/internal/adversary"
	"aqt/internal/policy"
	"aqt/internal/rational"
	"aqt/internal/scenario"
	"aqt/internal/stability"
)

// cmdStabilityCheck exercises the paper's section 4 bounds on a chosen
// topology: it drives random (w,r) traffic at the theorem's rate and
// verifies that no packet stays in one buffer longer than floor(w·r)
// steps (Theorem 4.1 for arbitrary greedy policies at r ≤ 1/(d+1);
// Theorem 4.3 for time-priority policies at r ≤ 1/d). The checks fan
// out across a stability.SweepGrid worker pool and print in the fixed
// theorem/policy order whatever -workers is.
//
//	aqt stabilitycheck -d 3 -w 40 -steps 20000 [-topo complete -size 5] [-workers 8]
func cmdStabilityCheck(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("stabilitycheck", stderr)
	d := fs.Int("d", 3, "longest route length")
	w := fs.Int64("w", 40, "adversary window")
	steps := fs.Int64("steps", 20000, "steps per run")
	topo := fs.String("topo", "complete", "topology: complete|ring|grid")
	size := fs.Int("size", 0, "topology size (0 = d+2)")
	seed := fs.Int64("seed", 7, "adversary seed")
	workers := fs.Int("workers", 0, "check worker pool size (0 = GOMAXPROCS)")
	progress := fs.Bool("progress", false, "live check-progress status line on stderr")
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}

	if *d < 1 {
		return fail(stderr, "stabilitycheck", fmt.Errorf("-d must be >= 1, got %d", *d))
	}
	if *w < 1 {
		return fail(stderr, "stabilitycheck", fmt.Errorf("-w must be >= 1, got %d", *w))
	}
	sz := *size
	if sz == 0 {
		sz = *d + 2
	}
	// Built once here so a bad topology is a usage error, then once per
	// probe so each graph stays confined to the worker that uses it.
	if _, err := scenario.NamedTopology(*topo, sz); err != nil {
		return fail(stderr, "stabilitycheck", err)
	}

	// One check per (rate regime, policy); greedy checks first, then
	// the tighter time-priority pair, exactly as they print.
	type check struct {
		pol  policy.Policy
		rate rational.Rat
		seed int64
	}
	greedyRate := stability.GreedyRateBound(*d)
	tpRate := stability.TimePriorityRateBound(*d)
	var checks []check
	for _, pol := range policy.All() {
		checks = append(checks, check{pol, greedyRate, *seed})
	}
	nGreedy := len(checks)
	for _, pol := range []policy.Policy{policy.FIFO{}, policy.LIS{}} {
		checks = append(checks, check{pol, tpRate, *seed + 1})
	}

	tel, _ := startTelemetry("", *progress, stderr) // no server, no error
	results := stability.SweepGridOpt(checks, func(c check) stability.ResidenceResult {
		g, _ := scenario.NamedTopology(*topo, sz)
		adv := adversary.NewRandomWR(g, *w, c.rate, *d, c.seed)
		return stability.CheckResidence(g, c.pol, adv, *w, c.rate, *d, *steps)
	}, *workers, tel.progress())
	tel.finish(false)

	bad := 0
	fmt.Fprintf(stdout, "Theorem 4.1 — every greedy policy at r = 1/(d+1) = 1/%d:\n", *d+1)
	for i, r := range results {
		if i == nGreedy {
			fmt.Fprintf(stdout, "\nTheorem 4.3 — time-priority policies at r = 1/d = 1/%d:\n", *d)
		}
		if r.Panic != "" {
			fmt.Fprintf(stderr, "aqt stabilitycheck: %s check panicked: %s\n", r.Point.pol.Name(), r.Panic)
			return 2
		}
		fmt.Fprintf(stdout, "  %s\n", r.Value)
		if !r.Value.OK() {
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "\naqt stabilitycheck: %d bound violation(s)\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "\nall residence bounds held")
	return 0
}

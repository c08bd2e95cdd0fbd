package main

import (
	"fmt"
	"io"

	"aqt/internal/baselines"
	"aqt/internal/core"
	"aqt/internal/gadget"
	"aqt/internal/rational"
)

// cmdInstability runs the paper's headline construction (Theorem
// 3.17): FIFO on the cyclic gadget chain G_ε at rate 1/2 + ε,
// reporting the queue blow-up per adversary cycle.
//
//	aqt instability -eps 1/5 -cycles 4 [-sstar 0] [-validate]
func cmdInstability(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("instability", stderr)
	epsStr := fs.String("eps", "1/5", "epsilon: the adversary rate is 1/2 + eps")
	cycles := fs.Int("cycles", 4, "adversary cycles to run")
	sstar := fs.Int64("sstar", 0, "initial queue S* (0 = 4*S0)")
	validate := fs.Bool("validate", true, "check the Lemma 3.3 rerouting preconditions at runtime")
	extraM := fs.Int("extram", 0, "extra gadgets beyond the computed chain length")
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}

	eps, err := parseEps(*epsStr)
	if err != nil {
		return fail(stderr, "instability", err)
	}
	if s0 := core.Solve(eps).S0; *sstar != 0 && *sstar <= 2*s0 {
		return fail(stderr, "instability", fmt.Errorf("-sstar must exceed 2*S0 = %d", 2*s0))
	}
	ins := core.NewInstability(eps, core.InstabilityOptions{
		SStar:    *sstar,
		Validate: *validate,
		ExtraM:   *extraM,
	})
	growth, _ := ins.P.PumpGrowth().Float64()
	fmt.Fprintf(stdout, "%s\n", ins.P)
	fmt.Fprintf(stdout, "rate r = %v, chain M = %d gadgets, graph %d nodes / %d edges, S* = %d\n",
		ins.P.R, ins.M, ins.Chain.G.NumNodes(), ins.Chain.G.NumEdges(), ins.SStar)
	fmt.Fprintf(stdout, "per-pump growth (exact): %s ≈ %.4f\n\n", "2(1-R_n)", growth)

	fmt.Fprintf(stdout, "%-6s %10s %10s %10s %10s %9s %12s\n",
		"cycle", "S1", "S2", "S3", "S4", "growth", "steps")
	for i := 0; i < *cycles; i++ {
		rec, ok := ins.RunCycle()
		fmt.Fprintf(stdout, "%-6d %10d %10d %10d %10d %9.4f %12d\n",
			rec.Cycle, rec.S1, rec.S2, rec.S3, rec.S4, rec.Growth(), rec.Steps)
		if !ok {
			fmt.Fprintln(stderr, "aqt instability: cycle did not complete within its step cap")
			return 1
		}
	}
	if !ins.Unstable() {
		fmt.Fprintln(stdout, "\nno sustained growth observed")
		return 1
	}
	fmt.Fprintf(stdout, "\nFIFO is UNSTABLE on G_eps at rate %v: the backlog grew every cycle.\n", ins.P.R)
	return 0
}

// parseEps parses an ε flag: the paper's construction needs
// 0 < ε < 1/2.
func parseEps(s string) (rational.Rat, error) {
	eps, err := rational.Parse(s)
	if err == nil && (eps.Sign() <= 0 || eps.Cmp(rational.New(1, 2)) >= 0) {
		err = fmt.Errorf("need 0 < eps < 1/2, got %v", eps)
	}
	return eps, err
}

// cmdGadgetviz renders the paper's figures and parameter tables: DOT
// drawings of Fₙ, F²ₙ (Figure 3.1) and G_ε (Figure 3.2), and the
// (ε → n, S₀, M) solver output.
//
//	aqt gadgetviz -dot f2 -n 3            # Figure 3.1 as DOT on stdout
//	aqt gadgetviz -dot geps -eps 1/5      # Figure 3.2 as DOT
//	aqt gadgetviz -params -eps 1/5        # parameter table
//	aqt gadgetviz -thresholds             # depth-threshold table r*(n)
func cmdGadgetviz(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("gadgetviz", stderr)
	dot := fs.String("dot", "", "emit DOT: fn | f2 | geps")
	n := fs.Int("n", 3, "gadget path length for -dot fn/f2")
	epsStr := fs.String("eps", "1/5", "epsilon for -dot geps and -params")
	params := fs.Bool("params", false, "print the parameter solution for -eps")
	thresholds := fs.Bool("thresholds", false, "print the depth-threshold table r*(n)")
	if code, ok := parseFlags(fs, args); !ok {
		return code
	}

	die := func(err error) int { return fail(stderr, "gadgetviz", err) }
	eps, err := parseEps(*epsStr)
	if err != nil {
		return die(err)
	}
	if *n < 1 && (*dot == "fn" || *dot == "f2") {
		return die(fmt.Errorf("-n must be >= 1, got %d", *n))
	}

	var c *gadget.Chain
	var title string
	switch *dot {
	case "fn":
		c, title = gadget.NewChain(*n, 1, false), fmt.Sprintf("F_%d", *n)
	case "f2":
		c, title = gadget.NewChain(*n, 2, false), fmt.Sprintf("F2_%d (Figure 3.1)", *n)
	case "geps":
		p := core.Solve(eps)
		m := p.MinMEmpirical(rational.FromInt(2))
		c, title = gadget.NewChain(p.N, m, true), fmt.Sprintf("G_eps eps=%v (Figure 3.2)", eps)
	case "":
	default:
		return die(fmt.Errorf("unknown -dot value %q", *dot))
	}
	if c != nil {
		if err := c.G.DOT(stdout, title); err != nil {
			return die(err)
		}
		return 0
	}

	if *params {
		p := core.Solve(eps)
		g, _ := p.PumpGrowth().Float64()
		fmt.Fprintf(stdout, "eps = %v  =>  r = %v\n", p.Eps, p.R)
		fmt.Fprintf(stdout, "n (gadget depth)        = %d\n", p.N)
		fmt.Fprintf(stdout, "S0 (min pump size)      = %d\n", p.S0)
		fmt.Fprintf(stdout, "pump growth 2(1-R_n)    = %.4f (lemma guarantees >= 1+eps = %.4f)\n",
			g, 1+eps.Float())
		fmt.Fprintf(stdout, "M (paper, (1+eps)-based)= %d\n", p.MinM(rational.FromInt(1)))
		fmt.Fprintf(stdout, "M (empirical, margin 2) = %d\n", p.MinMEmpirical(rational.FromInt(2)))
		fmt.Fprintf(stdout, "appendix estimates      : n ~ %.1f, S0 ~ %.0f\n",
			core.AsymptoticN(eps.Float()), core.AsymptoticS0(eps.Float()))
		return 0
	}
	if *thresholds {
		fmt.Fprintln(stdout, "depth n  r*(n) (pump threshold: r^n = 2r-1)")
		for _, depth := range []int{3, 4, 5, 6, 8, 10, 12, 16, 24, 32, 64} {
			fmt.Fprintf(stdout, "%7d  %.5f\n", depth, baselines.DepthThreshold(depth, 22).Float())
		}
		fmt.Fprintln(stdout, "limit    0.50000 (the paper's 1/2 + eps bound)")
		return 0
	}
	fs.Usage()
	return 0
}

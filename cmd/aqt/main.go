// Command aqt runs the simulator and the paper's constructions; `aqt`
// with no arguments lists its subcommands, and `aqt <command> -h` their
// flags. Rates are rationals ("1/4") or decimals ("0.25").
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"aqt/internal/obs"
	"aqt/internal/sim"
)

type command struct {
	name, summary string
	run           func(args []string, stdout, stderr io.Writer) int
}

var commands = []command{
	{"sim", "(w,r) traffic on a named topology, with queue statistics and a verdict", cmdSim},
	{"scenario", "validate, run and emit declarative scenario files", cmdScenario},
	{"experiments", "regenerate every table of EXPERIMENTS.md", cmdExperiments},
	{"instability", "Theorem 3.17: FIFO is unstable on G_eps at rate 1/2 + eps", cmdInstability},
	{"sweep", "pump growth against injection rate and gadget depth", cmdSweep},
	{"stabilitycheck", "Theorems 4.1 and 4.3: residence stays within floor(w*r)", cmdStabilityCheck},
	{"gadgetviz", "Figures 3.1 and 3.2 as DOT, parameter and threshold tables", cmdGadgetviz},
}

func main() {
	os.Exit(dispatch("aqt", commands, os.Args[1:], os.Stdout, os.Stderr))
}

// dispatch runs the command of cmds that args[0] names, or prints the
// usage listing cmds and returns 2.
func dispatch(prog string, cmds []command, args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		for _, c := range cmds {
			if c.name == args[0] {
				return c.run(args[1:], stdout, stderr)
			}
		}
		fmt.Fprintf(stderr, "%s: unknown command %q\n", prog, args[0])
	}
	fmt.Fprintf(stderr, "usage: %s <command> [flags] [args]\n", prog)
	for _, c := range cmds {
		fmt.Fprintf(stderr, "  %-15s %s\n", c.name, c.summary)
	}
	return 2
}

// newFlags returns the flag set of subcommand name. Parse errors and
// the -h listing go to stderr.
func newFlags(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("aqt "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// parseFlags parses args into fs. When ok is false the subcommand
// exits at once with code: 0 after -h, 2 after a bad flag.
func parseFlags(fs *flag.FlagSet, args []string) (code int, ok bool) {
	err := fs.Parse(args)
	if err == flag.ErrHelp {
		return 0, false
	}
	return 2, err == nil
}

// fail reports err on stderr under the subcommand's name and returns
// the usage exit code.
func fail(stderr io.Writer, name string, err error) int {
	fmt.Fprintf(stderr, "aqt %s: %v\n", name, err)
	return 2
}

// telemetry is a subcommand's -serve server and -progress status line;
// either may be absent. Status lines and server notices go to stderr
// only, so stdout is the same with and without them.
type telemetry struct {
	srv     *obs.Server
	sl      *obs.StatusLine
	stderr  io.Writer
	publish func()
}

// startTelemetry starts serving on addr ("" = no server) and opens a
// status line when progress is set. On error the returned telemetry
// still finishes cleanly.
func startTelemetry(addr string, progress bool, stderr io.Writer) (*telemetry, error) {
	t := &telemetry{stderr: stderr}
	if progress {
		t.sl = obs.NewStatusLine(stderr)
	}
	if addr != "" {
		t.srv = obs.NewServer()
		got, err := t.srv.Start(addr)
		if err != nil {
			return t, err
		}
		fmt.Fprintf(stderr, "telemetry: serving on http://%s\n", got)
	}
	return t, nil
}

// progress returns the sweep-progress hook feeding /progress and the
// status line, or nil when there is neither.
func (t *telemetry) progress() obs.ProgressFunc {
	if t.srv == nil && t.sl == nil {
		return nil
	}
	return func(p obs.SweepProgress) {
		if t.srv != nil {
			t.srv.OnProgress(p)
		}
		if t.sl != nil {
			t.sl.Update(p)
		}
	}
}

// watch publishes a run's telemetry now and at every sample of sam,
// from the engine goroutine: handlers only read the published copies.
func (t *telemetry) watch(e *sim.Engine, reg *obs.Registry, sam *obs.Sampler, sp *obs.SpanTracer, fr *obs.FlightRecorder) {
	if t.srv == nil {
		return
	}
	t.publish = func() { t.srv.PublishTelemetry(e.Now(), reg, sam, sp, fr) }
	sam.OnSample = t.publish
	t.publish()
}

// finish ends the status line, publishes the end-of-run state, and
// then closes the server or, with hold, serves until killed.
func (t *telemetry) finish(hold bool) {
	if t.sl != nil {
		t.sl.Finish()
	}
	if t.srv == nil {
		return
	}
	if t.publish != nil {
		t.publish()
	}
	if hold {
		fmt.Fprintln(t.stderr, "telemetry: run finished; holding server until killed")
		select {}
	}
	t.srv.Close()
}

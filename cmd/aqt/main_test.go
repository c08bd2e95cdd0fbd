package main

import (
	"flag"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata golden files")

// aqt runs the command in-process and reports a panic as a test
// failure instead of crashing the test binary.
func aqt(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	func() {
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("aqt %v panicked: %v", args, p)
			}
		}()
		code = dispatch("aqt", commands, args, &out, &errb)
	}()
	return code, out.String(), errb.String()
}

// TestMainUsage: no command or an unknown one exits 2 with the usage
// listing every command.
func TestMainUsage(t *testing.T) {
	for _, args := range [][]string{nil, {"frobnicate"}} {
		code, _, stderr := aqt(t, args...)
		if code != 2 {
			t.Errorf("aqt %v: exit %d, want 2", args, code)
		}
		for _, c := range commands {
			if !strings.Contains(stderr, "  "+c.name+" ") {
				t.Errorf("aqt %v: usage does not list %q:\n%s", args, c.name, stderr)
			}
		}
	}
}

// flagDefaults lists the flags of a -h listing as "name=default" in
// order; a zero default leaves nothing after "=".
func flagDefaults(help string) string {
	var out []string
	for _, blk := range strings.Split(help, "\n  -")[1:] {
		head, usage, _ := strings.Cut(blk, "\n")
		def := ""
		if i := strings.LastIndex(usage, " (default "); i >= 0 {
			def = strings.TrimSuffix(strings.TrimSpace(usage[i+len(" (default "):]), ")")
		}
		out = append(out, strings.Fields(head)[0]+"="+def)
	}
	return strings.Join(out, " ")
}

// TestFlagsPinned holds every subcommand to the flag names and
// defaults of the standalone command it replaced (aqtsim, scenario,
// experiments, instability, sweep, stabilitycheck, gadgetviz), as
// their -h listings printed them.
func TestFlagsPinned(t *testing.T) {
	for _, tc := range []struct{ cmd, want string }{
		{"sim", `adv="random" cap= checkpoint= csv= drop="tail" leap= maxlen=3 metrics= policies= policy="FIFO" rate="1/4" restore= sample-every= seed=1 serve= serve-hold= size=6 spans= steps=10000 topo="ring" trace= tracecap=4096 validate=true w=20`},
		{"scenario run", `checkpoint-dir="checkpoints" checkpoint-every= restore= sample-every= serve= serve-hold= workers=`},
		{"scenario emit", `dir="scenarios"`},
		{"experiments", `csvdir= j= list= markdown= metrics= only= progress= quick= serve= trace=`},
		{"instability", `cycles=4 eps="1/5" extram= sstar= validate=true`},
		{"sweep", `depths="3,4,6,9,12" from=0.5 n=9 points=7 progress= rate= scap=3000 serve= to=0.8 workers=`},
		{"stabilitycheck", `d=3 progress= seed=7 size= steps=20000 topo="complete" w=40 workers=`},
		{"gadgetviz", `dot= eps="1/5" n=3 params= thresholds=`},
	} {
		code, _, stderr := aqt(t, append(strings.Fields(tc.cmd), "-h")...)
		if code != 0 {
			t.Errorf("%s -h: exit %d, want 0", tc.cmd, code)
		}
		if got := flagDefaults(stderr); got != tc.want {
			t.Errorf("%s flags:\n got %s\nwant %s", tc.cmd, got, tc.want)
		}
	}
}

// TestBadFlagValues: out-of-range flag values are usage errors — exit
// 2 with a one-line message — never a panic.
func TestBadFlagValues(t *testing.T) {
	for _, args := range [][]string{
		{"instability", "-eps", "NaN"},
		{"gadgetviz", "-params", "-eps", "Inf"},
		{"sim", "-w", "0"},
		{"sim", "-topo", "complete", "-size", "-3"},
		{"stabilitycheck", "-size", "1"},
		{"instability", "-eps", "1/2"},
		{"instability", "-sstar", "10"},
		{"gadgetviz", "-dot", "fn", "-n", "0"},
		{"sim", "-maxlen", "0"},
		{"stabilitycheck", "-d", "0"},
		{"sweep", "-from", "NaN"},
		{"sweep", "-points", "-1"},
		{"stabilitycheck", "-w", "0"},
		{"sweep", "-n", "0"},
	} {
		code, stdout, stderr := aqt(t, args...)
		if code != 2 || stdout != "" || strings.Count(stderr, "\n") != 1 || !strings.HasPrefix(stderr, "aqt "+args[0]+": ") {
			t.Errorf("aqt %v: exit %d, stdout %q, stderr %q; want exit 2 and one stderr line", args, code, stdout, stderr)
		}
	}
}

// TestSubcommandSmoke runs every subcommand on a small input that
// exits 0.
func TestSubcommandSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"sim", "-topo", "line", "-size", "3", "-steps", "200"}, "(w,r) compliance: OK"},
		{[]string{"sim", "-policies"}, "FIFO"},
		{[]string{"scenario", "emit", "-dir", dir, "quickstart"}, "wrote\t" + filepath.Join(dir, "quickstart.json")},
		{[]string{"experiments", "-quick", "-only", "F1"}, "F1"},
		{[]string{"instability", "-eps", "1/3", "-cycles", "1"}, "FIFO is UNSTABLE"},
		{[]string{"sweep", "-n", "3", "-points", "1", "-scap", "100"}, "rate sweep at depth n = 3"},
		{[]string{"stabilitycheck", "-d", "1", "-w", "4", "-steps", "200"}, "all residence bounds held"},
		{[]string{"gadgetviz", "-params", "-eps", "1/5"}, "n (gadget depth)"},
		{[]string{"gadgetviz", "-dot", "fn", "-n", "1"}, "digraph"},
	} {
		code, stdout, stderr := aqt(t, tc.args...)
		if code != 0 || !strings.Contains(stdout, tc.want) {
			t.Errorf("aqt %v: exit %d, stdout lacks %q\nstdout: %s\nstderr: %s", tc.args, code, tc.want, stdout, stderr)
		}
	}
}

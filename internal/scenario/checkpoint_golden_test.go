package scenario

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite checkpoint golden files")

// TestCheckpointGolden pins the checkpoint wire format byte-for-byte:
// two corpus scenarios — quickstart (sequence/script/burst adversary,
// sampler via the "recorder" alias + latency) and e14 (bounded drop-tail with real drops) —
// run to a fixed step and encoded. Any change to the encoding shows up
// here first and forces a deliberate decision: bump CheckpointVersion
// (and sim.CheckpointVersion if the engine document changed) or fix
// the regression. Regenerate with `go test ./internal/scenario -run
// TestCheckpointGolden -update`.
func TestCheckpointGolden(t *testing.T) {
	cases := []struct {
		file string
		k    int64
	}{
		{"quickstart.json", 123},
		{"e14.json", 120},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.file, func(t *testing.T) {
			base := parseSpecFile(t, filepath.Join("..", "..", "scenarios", tc.file))
			b := buildFresh(t, base)
			b.Engine.Run(tc.k)
			cp, err := b.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			got := cp.Encode()
			golden := filepath.Join("testdata", fmt.Sprintf("checkpoint_%s.golden", base.Name))
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (regenerate with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("checkpoint encoding changed for %s at k=%d.\n"+
					"If intentional, bump the checkpoint version and regenerate with -update.\n--- got ---\n%s\n--- want ---\n%s",
					tc.file, tc.k, got, want)
			}
			// The golden itself must decode and restore.
			cp2, err := DecodeCheckpoint(golden, want)
			if err != nil {
				t.Fatalf("golden no longer decodes: %v", err)
			}
			fresh := buildFresh(t, base)
			if err := fresh.Restore(cp2); err != nil {
				t.Fatalf("golden no longer restores: %v", err)
			}
		})
	}
}

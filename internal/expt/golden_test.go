package expt

import (
	"os"
	"strings"
	"testing"
)

// experimentsSection extracts one "### <id>: ..." section (header,
// table and notes) from EXPERIMENTS.md.
func experimentsSection(t *testing.T, id string) string {
	t.Helper()
	raw, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatalf("reading EXPERIMENTS.md: %v", err)
	}
	lines := strings.Split(string(raw), "\n")
	start := -1
	for i, l := range lines {
		if strings.HasPrefix(l, "### "+id+":") {
			start = i
			break
		}
	}
	if start < 0 {
		t.Fatalf("EXPERIMENTS.md has no section %s", id)
	}
	end := len(lines)
	for i := start + 1; i < len(lines); i++ {
		if strings.HasPrefix(lines[i], "### ") {
			end = i
			break
		}
	}
	return strings.TrimSpace(strings.Join(lines[start:end], "\n"))
}

// regenerated runs the runner at full (non-quick) sizing and renders
// its markdown exactly as `aqt experiments` does for EXPERIMENTS.md.
func regenerated(t *testing.T, id string) string {
	t.Helper()
	r := ByID(id)
	if r == nil {
		t.Fatalf("no runner %s", id)
	}
	var sb strings.Builder
	r.Run(false).Markdown(&sb)
	return strings.TrimSpace(sb.String())
}

// TestE1TableMatchesExperimentsMD and its B2 sibling pin that the
// parallel fan-out inside the runners changed nothing observable: the
// full-size tables regenerate byte-identical to the ones recorded in
// EXPERIMENTS.md (modulo surrounding blank lines).
func TestE1TableMatchesExperimentsMD(t *testing.T) {
	if testing.Short() {
		t.Skip("full instability cycles")
	}
	got, want := regenerated(t, "E1"), experimentsSection(t, "E1")
	if got != want {
		t.Errorf("E1 table drifted from EXPERIMENTS.md:\n--- regenerated ---\n%s\n--- recorded ---\n%s", got, want)
	}
}

func TestB2TableMatchesExperimentsMD(t *testing.T) {
	if testing.Short() {
		t.Skip("full ladder grid")
	}
	got, want := regenerated(t, "B2"), experimentsSection(t, "B2")
	if got != want {
		t.Errorf("B2 table drifted from EXPERIMENTS.md:\n--- regenerated ---\n%s\n--- recorded ---\n%s", got, want)
	}
}

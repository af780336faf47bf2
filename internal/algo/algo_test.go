package algo_test

import (
	"testing"

	"github.com/routeplanning/mamorl/internal/algo"
	"github.com/routeplanning/mamorl/internal/experiments"
	"github.com/routeplanning/mamorl/internal/sim"
)

var wireNames = []string{"approx", "approx-pk", "baseline1", "baseline2", "random"}

func TestTable(t *testing.T) {
	for _, name := range wireNames {
		e, err := algo.Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if e.Name != name {
			t.Errorf("Lookup(%q) returned %q", name, e.Name)
		}
		if _, err := algo.Lookup(e.Title); err == nil {
			t.Errorf("title %q resolves as a wire name", e.Title)
		}
		if got, want := e.Collision == sim.AbortOnCollision, name == "baseline2"; got != want {
			t.Errorf("%s: aborts on collision = %v, want %v", name, got, want)
		}
		if got, want := e.NeedsModel, name == "approx" || name == "approx-pk"; got != want {
			t.Errorf("%s: NeedsModel = %v, want %v", name, got, want)
		}
		if got, want := e.NeedsRegion, name == "approx-pk"; got != want {
			t.Errorf("%s: NeedsRegion = %v, want %v", name, got, want)
		}
	}
	if _, err := algo.Lookup("quantum"); err == nil || err.Error() != `unknown algorithm "quantum"` {
		t.Errorf("Lookup(quantum) error = %v", err)
	}
}

// TestTitlesMatchExperiments pins the titles to the experiments constants
// that Table 6 rows, and the benchmark's per-algorithm metrics, are keyed
// on. Exact MaMoRL is the one row that is not a deployable planner.
func TestTitlesMatchExperiments(t *testing.T) {
	n := 0
	for _, title := range experiments.AllAlgorithms {
		if title == experiments.AlgoMaMoRL {
			if _, err := algo.ByTitle(title); err == nil {
				t.Errorf("exact MaMoRL resolves by title")
			}
			continue
		}
		e, err := algo.ByTitle(title)
		if err != nil {
			t.Errorf("ByTitle(%q): %v", title, err)
			continue
		}
		if e.Title != title {
			t.Errorf("ByTitle(%q) returned %q", title, e.Title)
		}
		n++
	}
	if n != len(wireNames) {
		t.Errorf("%d titles resolve, want %d", n, len(wireNames))
	}
}

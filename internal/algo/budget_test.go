package algo_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"github.com/routeplanning/mamorl/internal/algo"
	"github.com/routeplanning/mamorl/internal/approx"
	"github.com/routeplanning/mamorl/internal/features"
	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/limits"
	"github.com/routeplanning/mamorl/internal/partial"
	"github.com/routeplanning/mamorl/internal/sim"
)

// TestBudgetDeterminism pins that a plan budget is pure accounting: every
// served planner, charged through both its constructor and its mission
// as the service charges it, plans byte for byte what it plans without a
// budget, and the budget records what the plan spent.
func TestBudgetDeterminism(t *testing.T) {
	model, err := goldenModel()
	if err != nil {
		t.Fatalf("model: %v", err)
	}
	g, err := grid.GenerateSynthetic(grid.SyntheticConfig{Nodes: 200, Edges: 430, MaxOutDegree: 9, Seed: 2})
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	plain, err := approx.TrainingScenario(g, 3, 3, 1.2, 3)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	obstacles := plain
	obstacles.Obstacles = goldenObstacles(plain)
	for _, name := range wireNames {
		e, err := algo.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(e.Title, func(t *testing.T) {
			for _, sc := range []sim.Scenario{plain, obstacles} {
				free := budgetedPlan(t, e, sc, model, nil)
				b := limits.New(limits.Limits{Nodes: 1 << 40, Bytes: 1 << 50})
				if got := budgetedPlan(t, e, sc, model, b); got != free {
					t.Errorf("%d obstacles: budgeted plan %s, unbudgeted %s", len(sc.Obstacles), got, free)
				}
				if b.Used(limits.Bytes) == 0 {
					t.Errorf("%d obstacles: budget accrued no bytes", len(sc.Obstacles))
				}
				if e.NeedsModel && b.Used(limits.Nodes) == 0 {
					t.Errorf("%d obstacles: budget accrued no node expansions", len(sc.Obstacles))
				}
			}
		})
	}
}

// budgetedPlan runs entry e on sc under budget b (nil for none) and returns
// the plan's digest (see hashPlan).
func budgetedPlan(t *testing.T, e algo.Entry, sc sim.Scenario, model approx.Model, b *limits.Budget) string {
	t.Helper()
	pl, err := e.New(algo.Inputs{Scenario: sc, Model: model, Ext: features.New(),
		Region: partial.DestRegion(sc), Seed: 3, Budget: b})
	if err != nil {
		t.Fatalf("%s: %v", e.Name, err)
	}
	h := sha256.New()
	hashPlan(h, sc, pl, sim.RunOptions{Collision: e.Collision, Budget: b})
	return hex.EncodeToString(h.Sum(nil))
}

// Package algo is the table of the five deployable planners the paper
// compares (Section 4.1.2) and TMPLAR serves (Section 4.7). The service,
// the experiment harness and the mamorl CLI select planners by lookup here.
package algo

import (
	"fmt"

	"github.com/routeplanning/mamorl/internal/approx"
	"github.com/routeplanning/mamorl/internal/baselines"
	"github.com/routeplanning/mamorl/internal/features"
	"github.com/routeplanning/mamorl/internal/geo"
	"github.com/routeplanning/mamorl/internal/limits"
	"github.com/routeplanning/mamorl/internal/partial"
	"github.com/routeplanning/mamorl/internal/sim"
)

// Inputs is what a constructor reads: Model, Ext and Budget only when the
// entry NeedsModel, Region only when it NeedsRegion.
type Inputs struct {
	Scenario sim.Scenario
	Model    approx.Model
	Ext      features.Extractor
	Region   geo.Rect
	Seed     int64
	Budget   *limits.Budget
}

// Entry is one planner: its wire name (PlanRequest.Algorithm, the mamorl
// CLI's -algorithm), its title in the paper's tables, the collision policy
// its missions run under, what it needs, and its constructor.
type Entry struct {
	Name, Title             string
	Collision               sim.CollisionPolicy
	NeedsModel, NeedsRegion bool
	New                     func(Inputs) (sim.Planner, error)
}

var entries = [...]Entry{
	{Name: "approx", Title: "Approx-MaMoRL", NeedsModel: true,
		New: func(in Inputs) (sim.Planner, error) { return newApprox(in), nil }},
	{Name: "approx-pk", Title: "Approx-MaMoRL with Partial Knowledge", NeedsModel: true, NeedsRegion: true,
		New: func(in Inputs) (sim.Planner, error) {
			pl, err := partial.NewPlanner(in.Scenario, in.Region, newApprox(in))
			if err != nil {
				return nil, err
			}
			return pl, nil
		}},
	{Name: "baseline1", Title: "Baseline-1",
		New: func(in Inputs) (sim.Planner, error) { return baselines.NewRoundRobin(in.Seed), nil }},
	// Baseline-2 collides in almost every run; the paper counts it failed
	// at its first collision.
	{Name: "baseline2", Title: "Baseline-2", Collision: sim.AbortOnCollision,
		New: func(in Inputs) (sim.Planner, error) { return baselines.NewIndependent(in.Seed), nil }},
	{Name: "random", Title: "Random Walk-Baseline",
		New: func(in Inputs) (sim.Planner, error) { return baselines.NewRandomWalk(in.Seed), nil }},
}

func newApprox(in Inputs) *approx.Planner {
	pl := approx.NewPlanner(in.Model, in.Ext, in.Seed)
	pl.SetBudget(in.Budget)
	return pl
}

// Lookup returns the entry with the given wire name.
func Lookup(name string) (Entry, error) {
	return find(name, func(e Entry) string { return e.Name })
}

// ByTitle returns the entry with the given title.
func ByTitle(title string) (Entry, error) {
	return find(title, func(e Entry) string { return e.Title })
}

func find(key string, field func(Entry) string) (Entry, error) {
	for _, e := range entries {
		if field(e) == key {
			return e, nil
		}
	}
	return Entry{}, fmt.Errorf("unknown algorithm %q", key)
}

package partial

import (
	"testing"

	"github.com/routeplanning/mamorl/internal/approx"
	"github.com/routeplanning/mamorl/internal/core"
	"github.com/routeplanning/mamorl/internal/geo"
	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/rewardfn"
	"github.com/routeplanning/mamorl/internal/sim"
	"github.com/routeplanning/mamorl/internal/vessel"
)

// fixtures shared across tests: one trained linear model.
var (
	sharedModel *approx.LinearModel
	sharedPipe  *approx.Pipeline
)

func model(t *testing.T) (*approx.LinearModel, *approx.Pipeline) {
	t.Helper()
	if sharedModel == nil {
		p, err := approx.NewPipeline(approx.TrainConfig{Seed: 21, SampleEpisodes: 3})
		if err != nil {
			t.Fatalf("NewPipeline: %v", err)
		}
		m, _, err := approx.FitLinear(p.Data)
		if err != nil {
			t.Fatalf("FitLinear: %v", err)
		}
		sharedModel, sharedPipe = m, p
	}
	return sharedModel, sharedPipe
}

// scenario: 200-node synthetic grid; destination pushed into a corner
// region.
func scenario(t *testing.T, seed int64) (sim.Scenario, geo.Rect) {
	t.Helper()
	g, err := grid.GenerateSynthetic(grid.SyntheticConfig{Nodes: 200, Edges: 430, MaxOutDegree: 8, Seed: seed})
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	sc, err := approx.TrainingScenario(g, 2, 3, 1.2, 3)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	// Region: a box around the destination, a few edge-lengths wide.
	dp := g.Pos(sc.Dest)
	r := 3 * g.AvgEdgeWeight()
	region := geo.NewRect(geo.Point{X: dp.X - r, Y: dp.Y - r}, geo.Point{X: dp.X + r, Y: dp.Y + r})
	return sc, region
}

func TestPartialKnowledgeFindsDestination(t *testing.T) {
	lm, pipe := model(t)
	sc, region := scenario(t, 31)
	inner := approx.NewPlanner(lm, pipe.Extractor, 5)
	p, err := NewPlanner(sc, region, inner)
	if err != nil {
		t.Fatalf("NewPlanner: %v", err)
	}
	if p.Name() != "Approx-MaMoRL+PK" {
		t.Errorf("Name = %q", p.Name())
	}
	res, err := sim.Run(sc, p, sim.RunOptions{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Found {
		t.Fatalf("partial knowledge planner failed: %+v", res)
	}
}

func TestPartialKnowledgeBeatsBlindSearchOnTime(t *testing.T) {
	// With the destination region known, missions should normally finish in
	// fewer epochs than blind exploration. Averaged over seeds to avoid
	// flakiness; the margin is generous (any win counts).
	lm, pipe := model(t)
	var pkSteps, blindSteps int
	for _, seed := range []int64{41, 42, 43} {
		sc, region := scenario(t, seed)
		inner := approx.NewPlanner(lm, pipe.Extractor, seed)
		p, err := NewPlanner(sc, region, inner)
		if err != nil {
			t.Fatalf("NewPlanner: %v", err)
		}
		res, err := sim.Run(sc, p, sim.RunOptions{})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		pkSteps += res.Steps

		blind := approx.NewPlanner(lm, pipe.Extractor, seed)
		bres, err := sim.Run(sc, blind, sim.RunOptions{})
		if err != nil {
			t.Fatalf("Run blind: %v", err)
		}
		blindSteps += bres.Steps
	}
	if pkSteps > 2*blindSteps {
		t.Errorf("partial knowledge (%d steps) much worse than blind (%d)", pkSteps, blindSteps)
	}
}

func TestNewPlannerValidation(t *testing.T) {
	lm, pipe := model(t)
	sc, region := scenario(t, 51)
	inner := approx.NewPlanner(lm, pipe.Extractor, 5)

	// Region not containing the destination.
	bad := geo.NewRect(geo.Point{X: -1e6, Y: -1e6}, geo.Point{X: -1e6 + 1, Y: -1e6 + 1})
	if _, err := NewPlanner(sc, bad, inner); err == nil {
		t.Error("region without destination accepted")
	}

	// Invalid scenario propagates.
	badSc := sc
	badSc.Dest = -1
	if _, err := NewPlanner(badSc, region, inner); err == nil {
		t.Error("invalid scenario accepted")
	}
}

func TestSourceInsideRegionSkipsTransit(t *testing.T) {
	lm, pipe := model(t)
	// A line grid where everything lies inside the region: planning must
	// immediately delegate to the inner planner.
	b := grid.NewBuilder("line", geo.Planar)
	for i := 0; i < 12; i++ {
		b.AddNode(geo.Point{X: float64(i), Y: 0})
	}
	for i := 0; i < 11; i++ {
		b.AddEdge(grid.NodeID(i), grid.NodeID(i+1))
	}
	g := b.MustBuild()
	sc := sim.Scenario{
		Grid:      g,
		Team:      vessel.NewTeam([]grid.NodeID{0, 2}, 1.1, 2),
		Dest:      10,
		CommEvery: 3,
	}
	region := geo.NewRect(geo.Point{X: -1, Y: -1}, geo.Point{X: 12, Y: 1})
	inner := approx.NewPlanner(lm, pipe.Extractor, 3)
	p, err := NewPlanner(sc, region, inner)
	if err != nil {
		t.Fatalf("NewPlanner: %v", err)
	}
	res, err := sim.Run(sc, p, sim.RunOptions{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Found {
		t.Fatalf("in-region mission failed: %+v", res)
	}
}

func TestTransitFollowsShortestPath(t *testing.T) {
	lm, pipe := model(t)
	// Line grid; region at the far end. The transit leg must march straight
	// toward the region, never backward.
	b := grid.NewBuilder("line", geo.Planar)
	const n = 20
	for i := 0; i < n; i++ {
		b.AddNode(geo.Point{X: float64(i), Y: 0})
	}
	for i := 0; i < n-1; i++ {
		b.AddEdge(grid.NodeID(i), grid.NodeID(i+1))
	}
	g := b.MustBuild()
	sc := sim.Scenario{
		Grid:      g,
		Team:      vessel.NewTeam([]grid.NodeID{0, 2}, 1.1, 2),
		Dest:      n - 2,
		CommEvery: 3,
	}
	region := geo.NewRect(geo.Point{X: float64(n - 4), Y: -1}, geo.Point{X: float64(n), Y: 1})
	inner := approx.NewPlanner(lm, pipe.Extractor, 3)
	p, err := NewPlanner(sc, region, inner)
	if err != nil {
		t.Fatalf("NewPlanner: %v", err)
	}
	m, err := sim.NewMission(sc, sim.RunOptions{})
	if err != nil {
		t.Fatalf("NewMission: %v", err)
	}
	prev0 := m.Cur(0)
	for step := 0; !m.Done() && step < 100; step++ {
		acts := []sim.Action{p.Decide(m, 0), p.Decide(m, 1)}
		if _, err := m.ExecuteStep(acts); err != nil {
			t.Fatalf("ExecuteStep: %v", err)
		}
		cur0 := m.Cur(0)
		if g.Pos(cur0).X < g.Pos(prev0).X {
			t.Fatalf("asset 0 moved backward during transit: %d -> %d", prev0, cur0)
		}
		prev0 = cur0
	}
	if !m.Done() {
		t.Fatal("mission did not finish")
	}
}

func TestExactMaMoRLWithPartialKnowledge(t *testing.T) {
	// The paper's Section 4.1.2-1 describes partial knowledge for MaMoRL
	// itself: Dijkstra to the region, then the solver inside it. The exact
	// solver composes through the same Maskable interface.
	g, err := grid.GenerateSynthetic(grid.SyntheticConfig{Nodes: 60, Edges: 125, MaxOutDegree: 5, Seed: 77})
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	sc, err := approx.TrainingScenario(g, 2, 2, 1.2, 3)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	exact, err := core.NewPlanner(sc, core.Config{Seed: 1}, rewardfn.DefaultWeights())
	if err != nil {
		t.Fatalf("exact: %v", err)
	}
	if err := exact.Train(); err != nil {
		t.Fatalf("train: %v", err)
	}
	dp := g.Pos(sc.Dest)
	r := 3 * g.AvgEdgeWeight()
	region := geo.NewRect(geo.Point{X: dp.X - r, Y: dp.Y - r}, geo.Point{X: dp.X + r, Y: dp.Y + r})
	p, err := NewPlanner(sc, region, exact)
	if err != nil {
		t.Fatalf("NewPlanner: %v", err)
	}
	res, err := sim.Run(sc, p, sim.RunOptions{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Found {
		t.Fatalf("exact+PK failed: %+v", res)
	}
}

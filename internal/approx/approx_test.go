package approx

import (
	"math"
	"testing"
	"time"

	"github.com/routeplanning/mamorl/internal/features"
	"github.com/routeplanning/mamorl/internal/geo"
	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/neural"
	"github.com/routeplanning/mamorl/internal/rewardfn"
	"github.com/routeplanning/mamorl/internal/sim"
	"github.com/routeplanning/mamorl/internal/vessel"
)

// testPipeline builds one small pipeline per test binary run; building it
// is the expensive part (exact MaMoRL training), so tests share it.
var sharedPipeline *Pipeline

func pipeline(t *testing.T) *Pipeline {
	t.Helper()
	if sharedPipeline == nil {
		p, err := NewPipeline(TrainConfig{Seed: 11, SampleEpisodes: 3})
		if err != nil {
			t.Fatalf("NewPipeline: %v", err)
		}
		sharedPipeline = p
	}
	return sharedPipeline
}

func TestPipelineCollectsBothSampleKinds(t *testing.T) {
	p := pipeline(t)
	tmm, lm := p.Data.Len()
	if tmm < 100 || lm < 100 {
		t.Fatalf("too few samples: tmm=%d lm=%d", tmm, lm)
	}
	if p.Data.TMMX.Cols() != features.TMMDim {
		t.Errorf("TMM feature width = %d", p.Data.TMMX.Cols())
	}
	if p.Data.LMX.Cols() != features.LMDim {
		t.Errorf("LM feature width = %d", p.Data.LMX.Cols())
	}
	// TMM targets are probabilities.
	for _, y := range p.Data.TMMY {
		if y < -1e-9 || y > 1+1e-9 {
			t.Fatalf("TMM target %v outside [0,1]", y)
		}
	}
}

func TestFitLinearAndPlan(t *testing.T) {
	p := pipeline(t)
	model, dur, err := FitLinear(p.Data)
	if err != nil {
		t.Fatalf("FitLinear: %v", err)
	}
	if dur <= 0 {
		t.Error("training duration must be positive")
	}
	if len(model.TMM.Weights) != features.TMMDim || len(model.LM.Weights) != features.LMDim {
		t.Errorf("weight widths: %d/%d", len(model.TMM.Weights), len(model.LM.Weights))
	}

	// Plan on a grid the model never saw.
	g, err := grid.GenerateSynthetic(grid.SyntheticConfig{Nodes: 120, Edges: 260, MaxOutDegree: 7, Seed: 99})
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	sc, err := TrainingScenario(g, 2, 3, 1.2, 3)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	planner := NewPlanner(model, p.Extractor, 5)
	res, err := sim.Run(sc, planner, sim.RunOptions{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Found {
		t.Fatalf("Approx-MaMoRL failed on unseen grid: %+v", res)
	}
	if res.Collisions != 0 {
		t.Errorf("cooperative planner collided %d times", res.Collisions)
	}
}

func TestFitNeuralAndPlan(t *testing.T) {
	p := pipeline(t)
	model, dur, err := FitNeural(p.Data, neural.TrainOptions{Epochs: 60, BatchSize: 128, LearningRate: 0.05}, 3)
	if err != nil {
		t.Fatalf("FitNeural: %v", err)
	}
	if dur <= 0 {
		t.Error("duration must be positive")
	}
	g, err := grid.GenerateSynthetic(grid.SyntheticConfig{Nodes: 80, Edges: 170, MaxOutDegree: 6, Seed: 41})
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	sc, err := TrainingScenario(g, 2, 3, 1.2, 3)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	planner := NewPlanner(model, p.Extractor, 7)
	if planner.Name() != "NN-Approx-MaMoRL" {
		t.Errorf("Name = %q", planner.Name())
	}
	res, err := sim.Run(sc, planner, sim.RunOptions{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Found {
		t.Fatalf("NN-Approx failed: %+v", res)
	}
}

func TestLinearFasterThanNeural(t *testing.T) {
	// Figure 3's headline: linear regression trains much faster than the
	// neural network on the same data (the paper reports 15x with the full
	// 10000-epoch budget; any clear gap validates the mechanism).
	p := pipeline(t)
	_, linDur, err := FitLinear(p.Data)
	if err != nil {
		t.Fatalf("FitLinear: %v", err)
	}
	_, nnDur, err := FitNeural(p.Data, neural.TrainOptions{Epochs: 200, BatchSize: 256, LearningRate: 0.05}, 3)
	if err != nil {
		t.Fatalf("FitNeural: %v", err)
	}
	if nnDur < linDur {
		t.Errorf("NN (%v) trained faster than linear (%v)?", nnDur, linDur)
	}
}

func TestMemoryBytesScalesWithTeam(t *testing.T) {
	p := pipeline(t)
	model, _, err := FitLinear(p.Data)
	if err != nil {
		t.Fatalf("FitLinear: %v", err)
	}
	planner := NewPlanner(model, p.Extractor, 1)
	b2 := planner.MemoryBytes(2)
	b3 := planner.MemoryBytes(3)
	if b2 <= 0 || b3 != b2*3/2 {
		t.Errorf("memory bytes: N=2 %d, N=3 %d (want 3:2 ratio)", b2, b3)
	}
	// Order of magnitude: a few hundred bytes to a few KB, as in Table 6 —
	// not gigabytes.
	if b2 > 64*1024 {
		t.Errorf("approx planner uses %d bytes; Table 6 reports ~1 KB", b2)
	}
}

func TestFrontierFallbackPreventsOscillation(t *testing.T) {
	p := pipeline(t)
	model, _, err := FitLinear(p.Data)
	if err != nil {
		t.Fatalf("FitLinear: %v", err)
	}
	// Tiny sensing radius on a long line: after the local area is sensed,
	// only the frontier fallback makes progress.
	b := grid.NewBuilder("line", geo.Planar)
	const n = 30
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
		Dest:      n - 1,
		CommEvery: 3,
		MaxSteps:  10 * n,
	}
	planner := NewPlanner(model, p.Extractor, 13)
	res, err := sim.Run(sc, planner, sim.RunOptions{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Found {
		t.Fatalf("planner oscillated and never reached the frontier: %+v", res)
	}
}

func TestRewardProxyProperties(t *testing.T) {
	p := pipeline(t)
	m, err := sim.NewMission(p.Scenario, sim.RunOptions{})
	if err != nil {
		t.Fatalf("NewMission: %v", err)
	}
	w := rewardfn.DefaultWeights().Normalized()
	for _, a := range m.LegalActionsFor(0) {
		y := rewardProxy(m, 0, a, features.NoDest, w)
		if math.IsNaN(y) || math.IsInf(y, 0) {
			t.Fatalf("non-finite proxy for %v", a)
		}
	}
	// Progress toward a hint increases the target.
	acts := m.LegalActionsFor(0)
	var move sim.Action
	for _, a := range acts {
		if !a.IsWait() {
			move = a
			break
		}
	}
	to, _ := m.Apply(m.Cur(0), move)
	base := rewardProxy(m, 0, move, features.NoDest, w)
	hinted := rewardProxy(m, 0, move, to, w) // dest exactly where we move
	if hinted <= base {
		t.Errorf("progress should raise the target: %v vs %v", hinted, base)
	}
}

func TestWaitProxyIsZero(t *testing.T) {
	// Regression guard: rewarding waits with inverse-time/fuel once taught
	// the model that parking forever beats searching. Waits must target 0.
	p := pipeline(t)
	m, err := sim.NewMission(p.Scenario, sim.RunOptions{})
	if err != nil {
		t.Fatalf("NewMission: %v", err)
	}
	w := rewardfn.DefaultWeights().Normalized()
	if got := rewardProxy(m, 0, sim.Wait, features.NoDest, w); got != 0 {
		t.Fatalf("wait proxy = %v, want 0", got)
	}
	if got := rewardProxy(m, 0, sim.Wait, p.Scenario.Dest, w); got != 0 {
		t.Fatalf("wait proxy with dest = %v, want 0", got)
	}
	// And any exploring move must beat it.
	for _, a := range m.LegalActionsFor(0) {
		if a.IsWait() {
			continue
		}
		if rewardProxy(m, 0, a, features.NoDest, w) <= 0 {
			t.Errorf("move %v has non-positive target", a)
		}
	}
}

func TestCollectSamplesTiming(t *testing.T) {
	// Sanity: sampling a pipeline's worth of data is fast (seconds, not
	// minutes) — it bounds the experiment harness runtime.
	start := time.Now()
	pipeline(t)
	if d := time.Since(start); d > 2*time.Minute {
		t.Errorf("pipeline took %v", d)
	}
}

func TestTrainingScenarioErrors(t *testing.T) {
	g, err := grid.GenerateSynthetic(grid.SyntheticConfig{Nodes: 20, Edges: 40, MaxOutDegree: 6, Seed: 1})
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	if _, err := TrainingScenario(g, 0, 3, 1, 3); err == nil {
		t.Error("0 assets accepted")
	}
	if _, err := TrainingScenario(g, 15, 3, 1, 3); err == nil {
		t.Error("too many assets accepted")
	}
}

func TestFarthestNode(t *testing.T) {
	b := grid.NewBuilder("line", geo.Planar)
	for i := 0; i < 10; i++ {
		b.AddNode(geo.Point{X: float64(i), Y: 0})
	}
	for i := 0; i < 9; i++ {
		b.AddEdge(grid.NodeID(i), grid.NodeID(i+1))
	}
	g := b.MustBuild()
	if got := FarthestNode(g, []grid.NodeID{0}); got != 9 {
		t.Errorf("FarthestNode from 0 = %d, want 9", got)
	}
	if got := FarthestNode(g, []grid.NodeID{0, 9}); got != 4 && got != 5 {
		t.Errorf("FarthestNode from both ends = %d, want middle", got)
	}
}

func TestAblationOptionsToggleMechanisms(t *testing.T) {
	p := pipeline(t)
	model, _, err := FitLinear(p.Data)
	if err != nil {
		t.Fatalf("FitLinear: %v", err)
	}
	g, err := grid.GenerateSynthetic(grid.SyntheticConfig{Nodes: 120, Edges: 260, MaxOutDegree: 7, Seed: 63})
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	sc, err := TrainingScenario(g, 3, 3, 1.2, 3)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	// Every ablated variant must still terminate its missions (liveness may
	// degrade, but the MaxSteps guard bounds them) and produce valid runs.
	for _, opts := range []Options{
		{NoFrontier: true},
		{NoVoronoi: true},
		{NoRightOfWay: true},
		{NoWatchdog: true},
		{NoTMMBlocking: true},
		{NoFrontier: true, NoVoronoi: true, NoRightOfWay: true, NoWatchdog: true, NoTMMBlocking: true},
	} {
		pl := NewPlannerOpts(model, p.Extractor, 9, opts)
		res, err := sim.Run(sc, pl, sim.RunOptions{})
		if err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		if res.Steps == 0 {
			t.Errorf("opts %+v: mission did not run", opts)
		}
	}
	// The full planner still finds on this instance.
	res, err := sim.Run(sc, NewPlanner(model, p.Extractor, 9), sim.RunOptions{})
	if err != nil {
		t.Fatalf("full: %v", err)
	}
	if !res.Found {
		t.Errorf("full planner failed: %+v", res)
	}
}

func TestMaskedToReturnsIndependentCopy(t *testing.T) {
	pdata := pipeline(t)
	model, _, err := FitLinear(pdata.Data)
	if err != nil {
		t.Fatalf("FitLinear: %v", err)
	}
	base := NewPlanner(model, pdata.Extractor, 1)
	masked := base.MaskedTo(func(grid.NodeID) bool { return false })
	if masked == nil {
		t.Fatal("MaskedTo returned nil")
	}
	if base.ext.Mask != nil {
		t.Error("MaskedTo mutated the original planner")
	}
	// Regression: the copy used to share the watchdog state, the
	// navigator, and the rng with the original (shallow struct copy), so
	// running both corrupted each other's watchdog state.
	mp := masked.(*Planner)
	if mp.rng == base.rng {
		t.Error("masked copy shares the rng")
	}
	if mp.budget != base.budget || mp.seed != base.seed+1 {
		t.Errorf("masked copy: budget shared %v, seed %d from %d", mp.budget == base.budget, mp.seed, base.seed)
	}
	g, err := grid.GenerateSynthetic(grid.SyntheticConfig{Nodes: 60, Edges: 130, MaxOutDegree: 6, Seed: 3})
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	sc, err := TrainingScenario(g, 2, 3, 1.2, 3)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	m, err := sim.NewMission(sc, sim.RunOptions{})
	if err != nil {
		t.Fatalf("NewMission: %v", err)
	}
	base.live.Stalled(m, 0)
	again := base.MaskedTo(nil).(*Planner)
	for k := 0; k < 10; k++ {
		again.live.Stalled(m, 0)
	}
	if base.live.Stalled(m, 0) {
		t.Error("masked copy aliases the original's watchdog state")
	}
}

func TestPlannerRespectsObstacles(t *testing.T) {
	p := pipeline(t)
	model, _, err := FitLinear(p.Data)
	if err != nil {
		t.Fatalf("FitLinear: %v", err)
	}
	// Walled lattice: a vertical obstacle wall with one gap.
	g := grid.Lattice("walled", 9, 7)
	id := func(x, y int) grid.NodeID { return grid.NodeID(y*9 + x) }
	var wall []grid.NodeID
	for y := 0; y < 6; y++ {
		wall = append(wall, id(4, y))
	}
	sc := sim.Scenario{
		Grid:      g,
		Team:      vessel.NewTeam([]grid.NodeID{id(0, 0), id(0, 6)}, 1.2, 2),
		Dest:      id(8, 0),
		CommEvery: 3,
		Obstacles: wall,
	}
	if err := sc.Validate(); err != nil {
		t.Fatalf("scenario: %v", err)
	}
	entered := false
	obst := map[grid.NodeID]bool{}
	for _, v := range wall {
		obst[v] = true
	}
	res, err := sim.Run(sc, NewPlanner(model, p.Extractor, 3), sim.RunOptions{
		OnStep: func(m *sim.Mission, _ []sim.Action) {
			for i := 0; i < m.NumAssets(); i++ {
				if obst[m.Cur(i)] {
					entered = true
				}
			}
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if entered {
		t.Fatal("an asset entered an obstacle node")
	}
	if !res.Found {
		t.Fatalf("walled mission failed: %+v", res)
	}
}

func TestRendezvousMissionGathersTeam(t *testing.T) {
	p := pipeline(t)
	model, _, err := FitLinear(p.Data)
	if err != nil {
		t.Fatalf("FitLinear: %v", err)
	}
	g, err := grid.GenerateSynthetic(grid.SyntheticConfig{Nodes: 150, Edges: 330, MaxOutDegree: 8, Seed: 71})
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	sc, err := TrainingScenario(g, 3, 3, 1.2, 3)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	sc.Rendezvous = true
	var final *sim.Mission
	res, err := sim.Run(sc, NewPlanner(model, p.Extractor, 5), sim.RunOptions{
		OnStep: func(m *sim.Mission, _ []sim.Action) { final = m },
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Found {
		t.Fatalf("rendezvous mission failed: %+v", res)
	}
	if res.DiscoverySteps < 0 || res.DiscoverySteps > res.Steps {
		t.Fatalf("discovery bookkeeping wrong: %+v", res)
	}
	// All assets end within sensing range of the destination.
	for i := 0; i < final.NumAssets(); i++ {
		if d := g.Distance(final.Cur(i), sc.Dest); d > sc.Team[i].SensingRadius {
			t.Errorf("asset %d ended %.2f from the destination", i, d)
		}
	}
}

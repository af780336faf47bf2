package approx

import (
	"fmt"
	"math"

	"github.com/routeplanning/mamorl/internal/core"
	"github.com/routeplanning/mamorl/internal/features"
	"github.com/routeplanning/mamorl/internal/graphalg"
	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/rewardfn"
	"github.com/routeplanning/mamorl/internal/sim"
	"github.com/routeplanning/mamorl/internal/trace"
	"github.com/routeplanning/mamorl/internal/vessel"
)

// TrainConfig describes the end-to-end pipeline of Section 4.2: exact
// MaMoRL is trained on a small grid, its P values and rewards are sampled,
// and the approximate models are fitted to those samples. Zero values
// select the paper's setup (a 50-node, 93-edge grid with 2 assets).
type TrainConfig struct {
	// Grid, when non-nil, is used as the training grid directly (e.g. a
	// subregion of an ocean mesh for the transfer-learning experiment);
	// the GridNodes/GridEdges/GridMaxDeg fields are then ignored.
	Grid *grid.Grid
	// Training grid shape (Section 4.2's "small grid").
	GridNodes  int
	GridEdges  int
	GridMaxDeg int
	// Assets is the training team size.
	Assets int
	// MaxSpeed is the training team's speed ceiling. Features are
	// speed-normalized, so models transfer to teams with other ceilings.
	MaxSpeed int
	// SensingRadiusFactor scales sensing radius in units of average edge
	// weight.
	SensingRadiusFactor float64
	// CommEvery is the training communication period k.
	CommEvery int
	// SampleEpisodes is the number of ε-greedy sampling missions.
	SampleEpisodes int
	// Seed drives grid generation, exact training and sampling.
	Seed int64
	// Core configures the exact solver used as the sample source.
	Core core.Config
	// Weights scalarize LM targets.
	Weights rewardfn.Weights
	// Tracer, when non-nil, records the pipeline as a "train.pipeline" span
	// and is propagated to the exact solver (per-episode training spans) and
	// the sample collector (per-episode sampling spans).
	Tracer *trace.Tracer
	// OnEpisode, when non-nil, receives the exact solver's per-episode
	// learning-curve records (core.EpisodeStats). Pure observation, like
	// Tracer.
	OnEpisode func(core.EpisodeStats)
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.GridNodes == 0 {
		c.GridNodes = 50
	}
	if c.GridEdges == 0 {
		c.GridEdges = 93
	}
	if c.GridMaxDeg == 0 {
		c.GridMaxDeg = 5
	}
	if c.Assets == 0 {
		c.Assets = 2
	}
	if c.MaxSpeed == 0 {
		c.MaxSpeed = 3
	}
	if c.SensingRadiusFactor == 0 {
		c.SensingRadiusFactor = 1.2
	}
	if c.CommEvery == 0 {
		c.CommEvery = 3
	}
	if c.SampleEpisodes == 0 {
		c.SampleEpisodes = 5
	}
	if c.Weights == (rewardfn.Weights{}) {
		c.Weights = rewardfn.DefaultWeights()
	}
	return c
}

// Pipeline is a completed sample-collection run, ready to fit models.
type Pipeline struct {
	// Scenario is the training scenario the samples came from.
	Scenario sim.Scenario
	// Exact is the trained exact solver.
	Exact *core.Planner
	// Data holds the regression samples.
	Data *TrainingData
	// Extractor used for the samples; planners must reuse it.
	Extractor features.Extractor
}

// NewPipeline builds the training scenario, trains exact MaMoRL on it, and
// collects samples.
func NewPipeline(cfg TrainConfig) (*Pipeline, error) {
	cfg = cfg.withDefaults()
	sp := cfg.Tracer.Start("train.pipeline", trace.Int("seed", cfg.Seed))
	defer sp.End()
	g := cfg.Grid
	if g == nil {
		var err error
		g, err = trainingGrid(cfg)
		if err != nil {
			return nil, err
		}
	}
	sc, err := TrainingScenario(g, cfg.Assets, cfg.MaxSpeed, cfg.SensingRadiusFactor, cfg.CommEvery)
	if err != nil {
		return nil, err
	}
	coreCfg := cfg.Core
	coreCfg.Seed = cfg.Seed
	coreCfg.Tracer = cfg.Tracer
	if cfg.OnEpisode != nil {
		coreCfg.OnEpisode = cfg.OnEpisode
	}
	exact, err := core.NewPlanner(sc, coreCfg, cfg.Weights)
	if err != nil {
		return nil, fmt.Errorf("approx: exact solver: %w", err)
	}
	if err := exact.Train(); err != nil {
		return nil, err
	}
	ext := features.New()
	data, err := CollectSamples(exact, CollectOptions{
		Episodes:  cfg.SampleEpisodes,
		Weights:   cfg.Weights,
		Extractor: ext,
		Tracer:    cfg.Tracer,
	})
	if err != nil {
		return nil, err
	}
	if sp.Enabled() {
		tmm, lm := data.Len()
		sp.SetAttrs(
			trace.Int("nodes", int64(g.NumNodes())),
			trace.Int("tmm_samples", int64(tmm)),
			trace.Int("lm_samples", int64(lm)))
	}
	return &Pipeline{Scenario: sc, Exact: exact, Data: data, Extractor: ext}, nil
}

// trainingGrid generates the Section 4.2 training grid for a (defaulted)
// config.
func trainingGrid(cfg TrainConfig) (*grid.Grid, error) {
	g, err := grid.GenerateSynthetic(grid.SyntheticConfig{
		Name:         "approx-training",
		Nodes:        cfg.GridNodes,
		Edges:        cfg.GridEdges,
		MaxOutDegree: cfg.GridMaxDeg,
		Seed:         cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("approx: training grid: %w", err)
	}
	return g, nil
}

// DefaultTrainingGrid generates the default training grid for a seed — the
// grid NewPipeline builds when TrainConfig.Grid is nil and the shape fields
// are zero. The model registry keys artifacts on this grid's fingerprint,
// so a warm-starting server can test for a registry hit without paying the
// training cost.
func DefaultTrainingGrid(seed int64) (*grid.Grid, error) {
	return trainingGrid(TrainConfig{Seed: seed}.withDefaults())
}

// Effective returns the config with all defaulting applied — the values a
// pipeline run would actually use, recorded in registry manifests.
func (c TrainConfig) Effective() TrainConfig { return c.withDefaults() }

// TrainingScenario spreads a team over a grid and aims it at the node
// farthest from the team, giving sampling missions room to explore.
func TrainingScenario(g *grid.Grid, assets, maxSpeed int, radiusFactor float64, commEvery int) (sim.Scenario, error) {
	if assets < 1 || assets > g.NumNodes()/2 {
		return sim.Scenario{}, fmt.Errorf("approx: %d assets on a %d-node grid", assets, g.NumNodes())
	}
	// Spread sources evenly through the node ID space (generated grids have
	// geometrically scattered IDs, so this spreads positions too).
	sources := make([]grid.NodeID, assets)
	stride := g.NumNodes() / assets
	for i := range sources {
		sources[i] = grid.NodeID(i * stride)
	}
	radius := radiusFactor * g.AvgEdgeWeight()
	team := vessel.NewTeam(sources, radius, maxSpeed)
	dest := FarthestNode(g, sources)
	sc := sim.Scenario{Grid: g, Team: team, Dest: dest, CommEvery: commEvery}
	if err := sc.Validate(); err != nil {
		return sim.Scenario{}, err
	}
	return sc, nil
}

// FarthestNode returns the node maximizing the minimum hop distance from
// the given sources — a destination that forces real exploration.
func FarthestNode(g *grid.Grid, sources []grid.NodeID) grid.NodeID {
	best := grid.NodeID(0)
	bestD := -1
	hops := make([][]int, len(sources))
	for i, s := range sources {
		hops[i] = graphalg.HopDistances(g, s)
	}
	for v := 0; v < g.NumNodes(); v++ {
		minD := math.MaxInt
		for i := range sources {
			if h := hops[i][v]; h >= 0 && h < minD {
				minD = h
			}
		}
		if minD != math.MaxInt && minD > bestD {
			bestD = minD
			best = grid.NodeID(v)
		}
	}
	return best
}

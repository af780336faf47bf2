// Package mamorl is the public API of the MaMoRL cooperative route-planning
// framework — a from-scratch Go implementation of "Cooperative Route
// Planning Framework for Multiple Distributed Assets in Maritime
// Applications" (SIGMOD 2022).
//
// The framework plans routes for a team of distributed assets (ships,
// unmanned vehicles) searching a discrete maritime grid for a destination at
// an initially unknown location, minimizing total fuel and mission makespan
// while avoiding collisions (the Route Planning Problem, RPP). It contains:
//
//   - the exact MaMoRL solver over the Team Discrete MDP (NewExactPlanner),
//     tractable only on small instances — by design;
//   - Approx-MaMoRL, the deployable linear-regression approximation the
//     paper ships inside the Navy's TMPLAR tool (Train / Model.NewPlanner),
//     and its neural-network counterpart NN-Approx-MaMoRL;
//   - the partial-knowledge variant that routes assets to a known
//     destination region by Dijkstra before searching it;
//   - the paper's three baselines, grid generators (synthetic and
//     procedural ocean meshes matching the paper's datasets), the mission
//     simulator, and a TMPLAR-style JSON planning service.
//
// Quickstart:
//
//	g, _ := mamorl.GenerateSyntheticGrid(mamorl.SyntheticConfig{
//		Nodes: 400, Edges: 846, MaxOutDegree: 9, Seed: 1,
//	})
//	model, _ := mamorl.Train(mamorl.TrainConfig{Seed: 1})
//	sc, _ := mamorl.NewScenario(g, 4, 2.0, 3, 3) // 4 assets, radius 2, speed 3, comm k=3
//	res, _ := mamorl.Run(sc, model.NewPlanner(1), mamorl.RunOptions{})
//	fmt.Println(res)
package mamorl

import (
	"context"
	"errors"
	"io"

	"github.com/routeplanning/mamorl/internal/algo"
	"github.com/routeplanning/mamorl/internal/approx"
	"github.com/routeplanning/mamorl/internal/baselines"
	"github.com/routeplanning/mamorl/internal/core"
	"github.com/routeplanning/mamorl/internal/features"
	"github.com/routeplanning/mamorl/internal/geo"
	"github.com/routeplanning/mamorl/internal/graphalg"
	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/neural"
	"github.com/routeplanning/mamorl/internal/obs"
	"github.com/routeplanning/mamorl/internal/partial"
	"github.com/routeplanning/mamorl/internal/registry"
	"github.com/routeplanning/mamorl/internal/render"
	"github.com/routeplanning/mamorl/internal/rewardfn"
	"github.com/routeplanning/mamorl/internal/sim"
	"github.com/routeplanning/mamorl/internal/slo"
	"github.com/routeplanning/mamorl/internal/tmplar"
	"github.com/routeplanning/mamorl/internal/vessel"
	"github.com/routeplanning/mamorl/internal/weather"
)

// Geometry.
type (
	// Point is a location: longitude/latitude for ocean grids, planar
	// coordinates for synthetic ones.
	Point = geo.Point
	// Rect is an axis-aligned region, used for partial destination
	// knowledge.
	Rect = geo.Rect
)

// NewRect builds the rectangle spanning two corners.
func NewRect(a, b Point) Rect { return geo.NewRect(a, b) }

// Grids.
type (
	// Grid is the discrete maritime grid G = (V, E).
	Grid = grid.Grid
	// NodeID identifies a grid node.
	NodeID = grid.NodeID
	// SyntheticConfig configures GenerateSyntheticGrid.
	SyntheticConfig = grid.SyntheticConfig
	// OceanMeshConfig configures GenerateOceanMesh.
	OceanMeshConfig = grid.OceanMeshConfig
)

// GenerateSyntheticGrid produces a connected random geometric graph with
// controlled |V|, |E| and maximum out-degree (the paper's synthetic data).
func GenerateSyntheticGrid(cfg SyntheticConfig) (*Grid, error) { return grid.GenerateSynthetic(cfg) }

// GenerateOceanMesh produces a procedural coastal mesh (the stand-in for
// the paper's GSHHG/Gmsh ocean grids; see DESIGN.md §3).
func GenerateOceanMesh(cfg OceanMeshConfig) (*Grid, error) { return grid.GenerateOceanMesh(cfg) }

// CaribbeanGrid generates the Caribbean dataset (710 nodes, 1684 edges).
func CaribbeanGrid(seed int64) (*Grid, error) { return grid.CaribbeanGrid(seed) }

// NorthAmericaShoreGrid generates the North America Shore dataset
// (3291 nodes, 7811 edges).
func NorthAmericaShoreGrid(seed int64) (*Grid, error) { return grid.NorthAmericaShoreGrid(seed) }

// AtlanticGrid generates the Atlantic dataset (14655 nodes, 35061 edges).
func AtlanticGrid(seed int64) (*Grid, error) { return grid.AtlanticGrid(seed) }

// LoadGrid reads a grid from a JSON file; SaveGrid writes one.
func LoadGrid(path string) (*Grid, error) { return grid.LoadFile(path) }
func SaveGrid(path string, g *Grid) error { return grid.SaveFile(path, g) }

// Assets and missions.
type (
	// Asset is one distributed asset: sensing radius, max speed, source.
	Asset = vessel.Asset
	// Team is an ordered set of assets.
	Team = vessel.Team
	// Scenario is a complete RPP instance.
	Scenario = sim.Scenario
	// Mission is a live episode (used by custom planners).
	Mission = sim.Mission
	// Action is one asset's per-epoch decision.
	Action = sim.Action
	// Planner decides one asset's action per epoch.
	Planner = sim.Planner
	// RunOptions tunes a mission run.
	RunOptions = sim.RunOptions
	// Result summarizes a finished mission.
	Result = sim.Result
	// Weights scalarizes the multi-objective reward.
	Weights = rewardfn.Weights
	// Trace records a mission epoch by epoch (install Trace.Record as
	// RunOptions.OnStep); see sim.Trace.
	Trace = sim.Trace
)

// NewTrace returns an empty trace recorder for sc's mission.
func NewTrace(sc Scenario) *Trace { return sim.NewTrace(sc) }

// ReadTrace parses a trace written by Trace.WriteJSON.
func ReadTrace(r io.Reader) (*Trace, error) { return sim.ReadTrace(r) }

// RenderMission draws a trace over its grid as an ASCII map (asset tracks,
// final positions, destination, obstacles): the terminal analogue of
// TMPLAR's global view. Pass dest < 0 when unknown.
func RenderMission(g *Grid, tr *Trace, obstacles []NodeID, dest NodeID, width, height int) string {
	return render.Mission(g, tr, obstacles, dest, render.Options{Width: width, Height: height})
}

// RenderGrid draws a grid (and optional obstacles) as an ASCII map.
func RenderGrid(g *Grid, obstacles []NodeID, width, height int) string {
	return render.Grid(g, obstacles, render.Options{Width: width, Height: height})
}

// Collision policies.
const (
	// RecordCollisions counts collisions and continues.
	RecordCollisions = sim.RecordCollisions
	// AbortOnCollision fails the mission at the first collision.
	AbortOnCollision = sim.AbortOnCollision
)

// NewTeam builds n identical assets at the given sources.
func NewTeam(sources []NodeID, sensingRadius float64, maxSpeed int) Team {
	return vessel.NewTeam(sources, sensingRadius, maxSpeed)
}

// NewScenario spreads a team of n assets over the grid (sources evenly
// spaced, destination at the node farthest from the team) — the scenario
// construction the paper's experiments use. sensingRadius is in multiples
// of the grid's average edge weight.
func NewScenario(g *Grid, assets int, sensingRadiusFactor float64, maxSpeed, commEvery int) (Scenario, error) {
	return approx.TrainingScenario(g, assets, maxSpeed, sensingRadiusFactor, commEvery)
}

// FarthestNode returns the node maximizing the minimum hop distance from
// the sources.
func FarthestNode(g *Grid, sources []NodeID) NodeID { return approx.FarthestNode(g, sources) }

// Run executes a mission under a planner.
func Run(sc Scenario, p Planner, opts RunOptions) (Result, error) { return sim.Run(sc, p, opts) }

// RunContext is Run with cancellation: the mission aborts between epochs
// when ctx is cancelled or its deadline passes, returning the partial
// Result alongside a wrapped ctx.Err().
func RunContext(ctx context.Context, sc Scenario, p Planner, opts RunOptions) (Result, error) {
	return sim.RunContext(ctx, sc, p, opts)
}

// DefaultWeights returns the paper's scalarization: exploration first, time
// and fuel sharing the remainder.
func DefaultWeights() Weights { return rewardfn.DefaultWeights() }

// --- Approx-MaMoRL (the deployed planner) -----------------------------------

// TrainConfig configures Train; the zero value reproduces the paper's
// Section 4.2 setup (exact MaMoRL on a 50-node grid with 2 assets as the
// sample source).
type TrainConfig = approx.TrainConfig

// NeuralTrainOptions configures the NN-Approx-MaMoRL SGD budget; the zero
// value selects the paper's Table 5 settings, and negative or non-finite
// values are an error.
type NeuralTrainOptions = neural.TrainOptions

// Model is a trained Approx-MaMoRL (or NN-Approx-MaMoRL) model: the learned
// stand-ins for the Teammate and Learning Modules.
type Model struct {
	pipe   *approx.Pipeline // nil when the model was loaded from disk
	cfg    TrainConfig      // the config Train was called with
	ext    features.Extractor
	linear *approx.LinearModel
	nn     *approx.NeuralModel
}

// Train runs the full Section 4.2 pipeline — train exact MaMoRL on a small
// grid, sample its P values and rewards, fit the linear model — and returns
// the deployable model.
func Train(cfg TrainConfig) (*Model, error) {
	pipe, err := approx.NewPipeline(cfg)
	if err != nil {
		return nil, err
	}
	lin, _, err := approx.FitLinear(pipe.Data)
	if err != nil {
		return nil, err
	}
	return &Model{pipe: pipe, cfg: cfg, ext: pipe.Extractor, linear: lin}, nil
}

// Save persists the linear model's weights as JSON (the whole deployable
// planner state — a few hundred bytes).
func (m *Model) Save(path string) error { return m.linear.Save(path) }

// LoadModel restores a model saved by Save. Loaded models can plan but
// cannot FitNeural (the training samples are not persisted).
func LoadModel(path string) (*Model, error) {
	lin, err := approx.LoadLinear(path)
	if err != nil {
		return nil, err
	}
	return &Model{ext: features.New(), linear: lin}, nil
}

// FitNeural additionally fits the NN-Approx-MaMoRL networks on the same
// samples (Table 5's architecture). It fails on models loaded from disk.
func (m *Model) FitNeural(opts NeuralTrainOptions, seed int64) error {
	if m.pipe == nil {
		return errors.New("mamorl: FitNeural needs a freshly trained model (samples are not persisted)")
	}
	nn, _, err := approx.FitNeural(m.pipe.Data, opts, seed)
	if err != nil {
		return err
	}
	m.nn = nn
	return nil
}

// NewPlanner returns an Approx-MaMoRL planner. Construct a fresh planner
// per mission (planners keep per-mission cursors).
func (m *Model) NewPlanner(seed int64) Planner {
	return approx.NewPlanner(m.linear, m.ext, seed)
}

// NewNeuralPlanner returns an NN-Approx-MaMoRL planner; FitNeural must have
// been called.
func (m *Model) NewNeuralPlanner(seed int64) Planner {
	if m.nn == nil {
		panic("mamorl: FitNeural has not been called")
	}
	return approx.NewPlanner(m.nn, m.ext, seed)
}

// NewPartialKnowledgePlanner returns the partial-knowledge variant for a
// scenario whose destination is known to lie inside region.
func (m *Model) NewPartialKnowledgePlanner(sc Scenario, region Rect, seed int64) (Planner, error) {
	inner := approx.NewPlanner(m.linear, m.ext, seed)
	return partial.NewPlanner(sc, region, inner)
}

// ModelBytes reports the linear model's parameter footprint in bytes (the
// whole planner state Approx-MaMoRL deploys per asset).
func (m *Model) ModelBytes() int { return m.linear.Bytes() }

// --- Model registry -----------------------------------------------------------

// ModelRegistry is a content-addressed, versioned store of trained model
// artifacts (manifest JSON + gob weight blobs). tmplard warm-starts from one
// via TMPLAROptions.ModelDir; `mamorl train -model-dir` populates one.
type ModelRegistry = registry.Store

// ModelManifest describes one stored artifact: kind, training grid name and
// fingerprint, seed, training params, and the weight blob's SHA-256.
type ModelManifest = registry.Manifest

// OpenModelRegistry opens (creating if necessary) a model registry rooted at
// dir.
func OpenModelRegistry(dir string) (*ModelRegistry, error) { return registry.Open(dir) }

// SaveToRegistry registers the model's linear weights under its training
// provenance (grid, seed, params). Registering the same trained model twice
// is idempotent: the artifact is content-addressed. It fails on models
// loaded from disk, whose training grid is not persisted.
func (m *Model) SaveToRegistry(reg *ModelRegistry) (ModelManifest, error) {
	if m.pipe == nil {
		return ModelManifest{}, errors.New("mamorl: SaveToRegistry needs a freshly trained model (the training grid is not persisted)")
	}
	return registry.PutLinear(reg, m.linear, registry.TrainMeta(m.pipe.Scenario.Grid, m.cfg))
}

// --- Exact MaMoRL -------------------------------------------------------------

// ExactConfig configures the exact solver; the zero value uses the paper's
// hyperparameters (α=0.9, γ=0.8, β=0.3, T=3, T_B=10).
type ExactConfig = core.Config

// ExactPlanner is the exact table-based MaMoRL solver.
type ExactPlanner = core.Planner

// ErrMemoryBudget is returned when an instance's Lemma 2 table footprint
// exceeds the configured budget — the programmatic form of the paper's
// Table 6 N/A rows.
var ErrMemoryBudget = core.ErrMemoryBudget

// NewExactPlanner builds the exact solver; call Train on it before
// planning. Instances whose P/Q tables exceed the memory budget fail with
// ErrMemoryBudget.
func NewExactPlanner(sc Scenario, cfg ExactConfig) (*ExactPlanner, error) {
	return core.NewPlanner(sc, cfg, rewardfn.DefaultWeights())
}

// ExactTableBytes returns the dense P- and Q-table footprints (Lemmata 1-2)
// for an instance, before attempting to build it.
func ExactTableBytes(g *Grid, team Team) (pBytes, qBytes float64) {
	actions := core.InstanceActions(g, team)
	sp := team.MaxSpeedOver()
	return core.PTableBytes(g.NumNodes(), len(team), actions, sp),
		core.QTableBytes(g.NumNodes(), len(team), actions, sp)
}

// --- Baselines ----------------------------------------------------------------

// NewBaseline1 returns the round-robin baseline (one asset moves per epoch).
func NewBaseline1(seed int64) Planner { return baselines.NewRoundRobin(seed) }

// NewBaseline2 returns the independent, collision-prone baseline.
func NewBaseline2(seed int64) Planner { return baselines.NewIndependent(seed) }

// NewRandomWalk returns the uniform random baseline.
func NewRandomWalk(seed int64) Planner { return baselines.NewRandomWalk(seed) }

// PlannerFor builds the planner the TMPLAR service calls name ("approx",
// "approx-pk", "baseline1", "baseline2" or "random") for one mission on sc,
// with the collision policy the paper evaluates it under. loadModel is
// called only for the Approx-MaMoRL planners; the partial-knowledge one
// searches a box a few average edge lengths wide around the destination.
func PlannerFor(name string, sc Scenario, seed int64, loadModel func() (*Model, error)) (Planner, RunOptions, error) {
	alg, err := algo.Lookup(name)
	if err != nil {
		return nil, RunOptions{}, err
	}
	in := algo.Inputs{Scenario: sc, Seed: seed, Region: partial.DestRegion(sc)}
	if alg.NeedsModel {
		m, err := loadModel()
		if err != nil {
			return nil, RunOptions{}, err
		}
		in.Model, in.Ext = m.linear, m.ext
	}
	pl, err := alg.New(in)
	return pl, RunOptions{Collision: alg.Collision}, err
}

// --- Routing utilities ----------------------------------------------------------

// ShortestPath returns the Dijkstra shortest path between two nodes.
func ShortestPath(g *Grid, from, to NodeID) ([]NodeID, float64, error) {
	sp := graphalg.Dijkstra(g, from)
	path, err := sp.PathTo(to)
	if err != nil {
		return nil, 0, err
	}
	return path, sp.Dist[to], nil
}

// CruiseSpeed returns the speed minimizing the time/fuel average over an
// edge of the given weight (the paper's Table 2 rule).
func CruiseSpeed(weight float64, maxSpeed int) int { return vessel.CruiseSpeed(weight, maxSpeed) }

// FuelRate returns the fuel-per-time rate at a speed (Equation 4).
func FuelRate(speed float64) float64 { return vessel.FuelRate(speed) }

// --- Environment (weather) --------------------------------------------------

// Weather types: set Scenario.Weather to subject a mission to currents and
// storms (execution-time effects; planners command nominal speeds). This is
// the "dynamic weather-impacted environment" of the paper's TMPLAR
// deployment context (Section 4.7).
type (
	// WeatherField scales effective speed per edge and mission time.
	WeatherField = weather.Field
	// Gyre is a steady rotating current.
	Gyre = weather.Gyre
	// Storms is a set of drifting storm cells.
	Storms = weather.Storms
	// StormCell is one drifting disc of heavy weather.
	StormCell = weather.StormCell
	// CalmWeather is the neutral field.
	CalmWeather = weather.Calm
	// ComposeWeather multiplies several fields.
	ComposeWeather = weather.Compose
)

// --- TMPLAR service -------------------------------------------------------------

// TMPLARServer is the JSON-over-HTTP planning service of Section 4.7.
type TMPLARServer = tmplar.Server

// TMPLAROptions tunes the serving behavior: per-request planning deadline,
// request body limits, request logging, and the metrics registry.
type TMPLAROptions = tmplar.Options

// MetricsRegistry is the stdlib-only metrics registry backing GET /metrics.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.New() }

// NewTMPLARServer trains the deployable model and returns the service with
// default options. Register grids with InstallGrid, then serve Handler().
func NewTMPLARServer(seed int64) (*TMPLARServer, error) { return tmplar.NewServer(seed) }

// NewTMPLARServerOpts is NewTMPLARServer with explicit serving options.
func NewTMPLARServerOpts(seed int64, opts TMPLAROptions) (*TMPLARServer, error) {
	return tmplar.NewServerOpts(seed, opts)
}

// BuildInfo identifies the running binary: module version, Go version, and
// VCS metadata embedded by the toolchain. Served at GET /version.
type BuildInfo = tmplar.BuildInfo

// ReadBuildInfo collects the binary's embedded build metadata.
func ReadBuildInfo() BuildInfo { return tmplar.ReadBuildInfo() }

// MetricsSampler periodically snapshots a metrics registry into a ring of
// timestamped samples; it feeds GET /debug/metrics/stream and /debug/dash.
type MetricsSampler = obs.Sampler

// SLOSpec declares one service-level objective (latency or error-rate),
// evaluated continuously into burn-rate states served at GET /debug/slo.
// Set TMPLAROptions.SLOs to override the compiled-in defaults.
type SLOSpec = slo.Spec

// SLOEngine is the burn-rate evaluator behind GET /debug/slo; obtain a
// server's via TMPLARServer.SLO().
type SLOEngine = slo.Engine

// SLOReport is the evaluated verdict set served at GET /debug/slo.
type SLOReport = slo.Report

// DefaultSLOs returns the compiled-in objectives tmplard evaluates when no
// -slo-config file is given.
func DefaultSLOs() []SLOSpec { return slo.Defaults() }

// LoadSLOConfig reads and validates an SLO config file ({"slos": [...]}),
// for TMPLAROptions.SLOs / tmplard's -slo-config flag.
func LoadSLOConfig(path string) ([]SLOSpec, error) { return slo.LoadFile(path) }

// --- Custom planner support -----------------------------------------------------

// FrontierStep computes a step toward the nearest unsensed node; custom
// planners can use it as their exploration fallback. See sim.FrontierStep.
var FrontierStep = sim.FrontierStep

// LegalActions enumerates an asset's actions at a node.
func LegalActions(g *Grid, v NodeID, maxSpeed int) []Action { return sim.LegalActions(g, v, maxSpeed) }

// Wait is the wait action.
var Wait = sim.Wait

// NoDest marks an unknown destination in feature extraction.
const NoDest = features.NoDest

// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 4): the algorithm comparison with its memory/CPU
// bottlenecks (Table 6), the function-approximation comparison (Figure 3),
// the Pareto front (Figure 4), the relative-improvement parameter sweeps
// with and without partial knowledge (Figures 5 and 6), the running-time
// sweeps (Figure 7), and the transfer-learning study (Figure 8). Every
// driver returns structured results plus a formatted text table, and is
// wired to both cmd/experiments and the repository-root benchmarks.
package experiments

import (
	"fmt"

	"github.com/routeplanning/mamorl/internal/approx"
	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/obs"
	"github.com/routeplanning/mamorl/internal/sim"
	"github.com/routeplanning/mamorl/internal/trace"
)

// Params mirrors Table 4's default parameter values and adds the run
// bookkeeping the evaluation protocol prescribes ("all results are
// presented as an average of 10 runs").
type Params struct {
	Nodes        int // |V|
	Edges        int // |E|
	MaxOutDegree int // D_max
	Assets       int // |N|
	MaxSpeed     int // sp
	Episodes     int // T_B (training episodes of the sample source)
	CommEvery    int // k
	// CommRange limits periodic communication to assets within this metric
	// distance (0 = unlimited). Not varied by the paper; the comm-range
	// extension study sweeps it.
	CommRange float64

	// Runs is how many seeded runs are averaged per cell.
	Runs int
	// Parallel caps concurrent runs inside Evaluate. 0 or 1 runs serially
	// — the default, because wall-clock timing columns (Figure 7) are only
	// meaningful without CPU contention. Set higher to speed up large
	// objective-only sweeps.
	Parallel int
	// SensingRadiusFactor scales sensing radius in average edge weights.
	SensingRadiusFactor float64
	// Seed bases all run seeds.
	Seed int64

	// Tracer, when non-nil, records one span per cell (driver × setting)
	// and per leaf run, with the mission span nested under the run span.
	// Tracing is pure observation: PerRun records are byte-identical with
	// it on or off (TestTracingDeterminism pins this).
	Tracer *trace.Tracer
	// Progress, when non-nil, receives live run-completion telemetry
	// (Expect/RunDone) from every driver.
	Progress *Progress
	// Metrics, when non-nil, gains experiments_runs_total counters and the
	// experiments_inflight_runs gauge.
	Metrics *obs.Registry

	// traceParent parents run spans under the enclosing cell span. Drivers
	// set it via startCell; it is unexported so the public API stays
	// Tracer-only.
	traceParent *trace.Span
	// rendezvous makes every run's mission continue past discovery until
	// the team gathers (Scenario.Rendezvous); only RunRendezvous sets it.
	rendezvous bool
	// instances is the driver call's instance cache (withInstances), from
	// which scenarioFor takes every run's grid.
	instances *instanceCache
}

// startCell opens one span named name under p's tracer (or under an
// enclosing cell), returning Params whose leaf runs parent under it; runCell
// opens its run spans with it too. The caller must End the returned span; a
// nil tracer yields a nil span and the original Params, so call sites need
// no conditionals.
func startCell(p Params, name string, attrs ...trace.Attr) (Params, *trace.Span) {
	var sp *trace.Span
	if p.traceParent != nil {
		sp = p.traceParent.Child(name, attrs...)
	} else if p.Tracer.Enabled() {
		sp = p.Tracer.Start(name, attrs...)
	}
	if sp != nil {
		p.traceParent = sp
	}
	return p, sp
}

// DefaultParams returns Table 4's defaults with the paper's 10-run
// averaging.
func DefaultParams() Params {
	return Params{
		Nodes:               400,
		Edges:               846,
		MaxOutDegree:        9,
		Assets:              6,
		MaxSpeed:            5,
		Episodes:            10,
		CommEvery:           3,
		Runs:                10,
		SensingRadiusFactor: 1.2,
		Seed:                1,
	}
}

// Quick returns a copy with the run count reduced for tests and benches
// that only verify mechanics, not statistics.
func (p Params) Quick() Params {
	p.Runs = 3
	return p
}

// scenarioFor builds the seeded RPP instance for one run: a synthetic grid
// of the configured shape with the team spread across it and the
// destination at the node farthest from the team. The grid comes from p's
// instance cache, so every algorithm's run `run` plans on the same grid;
// the Scenario around it, Team included, is built afresh for each caller.
func scenarioFor(p Params, run int) (sim.Scenario, error) {
	g, err := p.instances.grid(grid.SyntheticConfig{
		Nodes:        p.Nodes,
		Edges:        p.Edges,
		MaxOutDegree: p.MaxOutDegree,
		Seed:         p.Seed + int64(run)*7919,
	}, p)
	if err != nil {
		return sim.Scenario{}, fmt.Errorf("experiments: run %d grid: %w", run, err)
	}
	return newScenario(g, p)
}

// newScenario places p's team and destination on g.
func newScenario(g *grid.Grid, p Params) (sim.Scenario, error) {
	sc, err := approx.TrainingScenario(g, p.Assets, p.MaxSpeed, p.SensingRadiusFactor, p.CommEvery)
	if err != nil {
		return sim.Scenario{}, err
	}
	sc.CommRange = p.CommRange
	sc.Rendezvous = p.rendezvous
	return sc, nil
}

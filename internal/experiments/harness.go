package experiments

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/routeplanning/mamorl/internal/algo"
	"github.com/routeplanning/mamorl/internal/approx"
	"github.com/routeplanning/mamorl/internal/core"
	"github.com/routeplanning/mamorl/internal/obs"
	"github.com/routeplanning/mamorl/internal/partial"
	"github.com/routeplanning/mamorl/internal/rewardfn"
	"github.com/routeplanning/mamorl/internal/sim"
	"github.com/routeplanning/mamorl/internal/stats"
	"github.com/routeplanning/mamorl/internal/trace"
)

// Algorithm names as they appear in the paper's tables.
const (
	AlgoMaMoRL     = "MaMoRL"
	AlgoApprox     = "Approx-MaMoRL"
	AlgoApproxPK   = "Approx-MaMoRL with Partial Knowledge"
	AlgoBaseline1  = "Baseline-1"
	AlgoBaseline2  = "Baseline-2"
	AlgoRandomWalk = "Random Walk-Baseline"
)

// AllAlgorithms lists every implemented algorithm in Table 6's row order.
var AllAlgorithms = []string{
	AlgoMaMoRL, AlgoApprox, AlgoApproxPK, AlgoBaseline1, AlgoBaseline2, AlgoRandomWalk,
}

// Harness owns the trained approximate model shared by all experiments
// (the paper trains Approx-MaMoRL once on a small grid and deploys it
// everywhere, Section 4.2).
type Harness struct {
	Pipe            *approx.Pipeline
	Linear          *approx.LinearModel
	LinearTrainTime time.Duration
}

// NewHarness trains the sample source and fits the linear model. The zero
// TrainConfig reproduces the paper's 50-node training setup.
func NewHarness(cfg approx.TrainConfig) (*Harness, error) {
	pipe, err := approx.NewPipeline(cfg)
	if err != nil {
		return nil, err
	}
	sp := cfg.Tracer.Start("fit.linear")
	lin, dur, err := approx.FitLinear(pipe.Data)
	if err != nil {
		sp.End()
		return nil, err
	}
	if sp.Enabled() {
		sp.SetAttrs(trace.Float("fit_seconds", dur.Seconds()))
		sp.End()
	}
	return &Harness{Pipe: pipe, Linear: lin, LinearTrainTime: dur}, nil
}

// RunValue is one seeded run's outcome, recorded at its run index whether
// or not the mission found the destination. It is the unit of the
// seed-pairing contract: two RunStats produced with the same Params use the
// same seed at the same run index, so pairing across algorithms means
// intersecting run indices where both have Found set (PairedObjectives).
type RunValue struct {
	Seed   int64
	Found  bool
	TTotal float64
	FTotal float64
}

// RunStats aggregates one algorithm's seeded runs on one parameter setting.
type RunStats struct {
	Algorithm string
	Runs      int
	// PerRun records every run's outcome at its run index (len == Runs for
	// a completed evaluation): the one per-run record. Paired t-tests
	// intersect two algorithms' found runs by index (PairedObjectives);
	// means and Figure 4's points read the found runs in run order.
	PerRun []RunValue
	// FoundRuns counts runs that discovered the destination; CollidedRuns
	// counts runs with at least one collision; AbortedRuns counts runs
	// terminated by the collision policy.
	FoundRuns    int
	CollidedRuns int
	AbortedRuns  int
	// CPUTime is the total wall time spent constructing, training and
	// running the planner across all runs.
	CPUTime time.Duration
	// MemoryBytes is the planner-state footprint: learned-weight bytes for
	// the approximations, the dense Lemma 2 requirement for exact MaMoRL.
	MemoryBytes float64
	// NA marks an algorithm that could not run (memory budget, or
	// collision aborts on every run), with the reason.
	NA       bool
	NAReason string
}

// MeanT returns the average T_total over the runs that found the
// destination.
func (r RunStats) MeanT() float64 {
	return stats.Mean(r.found(func(v RunValue) float64 { return v.TTotal }))
}

// MeanF returns the average F_total over the runs that found the
// destination.
func (r RunStats) MeanF() float64 {
	return stats.Mean(r.found(func(v RunValue) float64 { return v.FTotal }))
}

// found lists obj of the runs that found the destination, in run order.
func (r RunStats) found(obj func(RunValue) float64) []float64 {
	var xs []float64
	for _, v := range r.PerRun {
		if v.Found {
			xs = append(xs, obj(v))
		}
	}
	return xs
}

// baselineStateBytes estimates the per-team planner state of the
// non-learning planners: a seeded PRNG plus a per-asset cursor — hundreds
// of bytes, reported honestly rather than copied from the paper.
func baselineStateBytes(nAssets int) float64 { return float64(256 + 48*nAssets) }

// runOutcome is what a leaf returns for one seeded run: the seed its
// planner got, the mission result, the planner's CPU time and memory
// footprint, or the error that stopped the run.
type runOutcome struct {
	seed int64
	res  sim.Result
	cpu  time.Duration
	mem  float64
	err  error
}

// runSeed is the planner seed of run index `run` under p: the seed schedule
// of the named algorithms and Figure 3's neural arm.
func runSeed(p Params, run int) int64 { return p.Seed + int64(run)*104729 }

// RegisterMetricsHelp documents the experiment metric names for the
// Prometheus exposition (# HELP lines). Drivers that hand a registry to
// Params.Metrics call it once up front.
func RegisterMetricsHelp(m *obs.Registry) {
	m.SetHelp("experiments_runs_total", "Experiment leaf runs completed, by algorithm.")
	m.SetHelp("experiments_inflight_runs", "Experiment runs currently executing.")
	m.SetHelp("trace_span_seconds", "Span durations from the suite tracer, by span name.")
	m.SetHelp("trace_spans_total", "Spans completed by the suite tracer, by span name.")
}

// runCell is the one seeded run loop every driver goes through: it calls
// leaf for each of a cell's p.Runs runs under the shared budget and returns
// the outcomes at their run indices, whatever order they completed in. A
// leaf builds one run's mission and planner from its run index alone, runs
// it with the mission nested under the run span it is handed, and reports
// the seed its planner got. Around each run the loop skips the leaf once
// ctx is done, keeps the in-flight gauge, records the run span (tagged with
// that seed), counts experiments_runs_total by name and ticks the progress
// reporter. With no tracer, metrics or progress configured every branch is
// a nil check — determinism never depends on instrumentation.
func runCell(ctx context.Context, p Params, lim limiter, name string, leaf func(run int, sp *trace.Span) runOutcome) []runOutcome {
	p.Progress.Expect(p.Runs)
	return runIndexed(lim, p.Runs, func(run int) runOutcome {
		if p.Metrics != nil {
			g := p.Metrics.Gauge("experiments_inflight_runs")
			g.Inc()
			defer g.Dec()
		}
		_, sp := startCell(p, "run", trace.String("algorithm", name), trace.Int("run", int64(run)))
		out := runOutcome{err: ctx.Err()}
		if out.err == nil {
			out = leaf(run, sp)
			sp.SetAttrs(trace.Int("seed", out.seed))
		}
		if sp.Enabled() {
			if out.err != nil {
				sp.SetAttrs(trace.String("error", out.err.Error()))
			} else {
				sp.SetAttrs(
					trace.Bool("found", out.res.Found),
					trace.Int("steps", int64(out.res.Steps)))
			}
			sp.End()
		}
		if p.Metrics != nil {
			p.Metrics.Counter("experiments_runs_total", "algorithm", name).Inc()
		}
		p.Progress.RunDone()
		return out
	})
}

// Evaluate runs one algorithm over p.Runs seeded instances, in parallel if
// p.Parallel > 1. Run results stay aligned by seed regardless of
// completion order — PerRun[i] always holds run i — keeping paired t-tests
// across algorithms valid. Cancelling ctx stops the evaluation between
// missions (and aborts in-flight missions between epochs) and returns
// ctx's error.
func (h *Harness) Evaluate(ctx context.Context, algo string, p Params) (RunStats, error) {
	return h.evaluateWith(ctx, algo, withInstances(p), limiterFor(p))
}

// evaluateWith is Evaluate against a caller-owned run budget, so that a
// driver fanning out many cells (Table 6, the sweeps, Figure 4) shares one
// limiter across all of their run loops instead of multiplying p.Parallel
// by the cell count.
func (h *Harness) evaluateWith(ctx context.Context, title string, p Params, lim limiter) (RunStats, error) {
	return collectStats(title, runCell(ctx, p, lim, title, func(run int, sp *trace.Span) runOutcome {
		return h.runOne(ctx, title, p, run, sp)
	}))
}

// collectStats is the one fold of run outcomes (in run order) into
// RunStats. Every PerRun entry carries the seed its run's planner got; only
// runs that found the destination without a collision abort contribute
// objective values.
func collectStats(name string, outcomes []runOutcome) (RunStats, error) {
	runs := len(outcomes)
	rs := RunStats{Algorithm: name, Runs: runs}
	rs.PerRun = make([]RunValue, runs)
	for run, out := range outcomes {
		rs.PerRun[run] = RunValue{Seed: out.seed}
		if out.err != nil {
			if errors.Is(out.err, core.ErrMemoryBudget) {
				return RunStats{
					Algorithm:   name,
					Runs:        runs,
					NA:          true,
					NAReason:    "exceeds memory budget",
					MemoryBytes: out.mem,
				}, nil
			}
			return rs, out.err
		}
		rs.CPUTime += out.cpu
		rs.MemoryBytes = out.mem
		if out.res.Aborted {
			rs.AbortedRuns++
			rs.CollidedRuns++
			continue
		}
		if out.res.Collisions > 0 {
			rs.CollidedRuns++
		}
		// Only missions that discovered the destination contribute
		// objective values; a MaxSteps timeout has no meaningful T/F.
		if out.res.Found {
			rs.FoundRuns++
			rs.PerRun[run].Found = true
			rs.PerRun[run].TTotal = out.res.TTotal
			rs.PerRun[run].FTotal = out.res.FTotal
		}
	}
	if rs.FoundRuns == 0 {
		rs.NA = true
		switch {
		case rs.AbortedRuns == runs:
			rs.NAReason = fmt.Sprintf("collisions aborted all %d runs", runs)
		case rs.AbortedRuns > 0:
			rs.NAReason = fmt.Sprintf("collisions aborted %d/%d runs, rest timed out", rs.AbortedRuns, runs)
		default:
			rs.NAReason = "no run discovered the destination"
		}
	}
	return rs, nil
}

// runOne is the leaf of a named algorithm: it builds run `run`'s seeded
// instance, constructs the planner with runSeed(p, run) and runs the
// mission, reporting the planner's CPU time and memory footprint. The
// mission aborts between epochs when ctx is cancelled.
func (h *Harness) runOne(ctx context.Context, title string, p Params, run int, sp *trace.Span) runOutcome {
	seed := runSeed(p, run)
	sc, err := scenarioFor(p, run)
	if err != nil {
		return runOutcome{seed: seed, err: err}
	}
	opts := sim.RunOptions{TraceParent: sp}
	start := time.Now()
	// Exact MaMoRL trains on each instance and reports its Lemma 2 table
	// size; it is never served, so the planner table does not list it.
	if title == AlgoMaMoRL {
		pl, err := core.NewPlanner(sc, core.Config{Episodes: p.Episodes, Seed: seed}, rewardfn.DefaultWeights())
		if err != nil {
			out := runOutcome{seed: seed, err: err}
			if errors.Is(err, core.ErrMemoryBudget) {
				numActions := core.InstanceActions(sc.Grid, sc.Team)
				out.mem = core.QTableBytes(sc.Grid.NumNodes(), len(sc.Team), numActions, sc.Team.MaxSpeedOver())
			}
			return out
		}
		if err := pl.Train(); err != nil {
			return runOutcome{seed: seed, err: err}
		}
		res, err := sim.RunContext(ctx, sc, pl, opts)
		return runOutcome{seed: seed, res: res, cpu: time.Since(start), mem: pl.TableStats().DenseQBytes, err: err}
	}
	alg, err := algo.ByTitle(title)
	if err != nil {
		return runOutcome{seed: seed, err: fmt.Errorf("experiments: %w", err)}
	}
	if title == AlgoRandomWalk {
		// A random walk's hitting time is orders of magnitude beyond a
		// directed search (that is Table 6's point: T_total in the
		// thousands); give it the step budget to actually finish.
		sc.MaxSteps = sc.Grid.NumNodes() * 150
	}
	pl, err := alg.New(algo.Inputs{Scenario: sc, Model: h.Linear, Ext: h.Pipe.Extractor,
		Region: partial.DestRegion(sc), Seed: seed})
	if err != nil {
		return runOutcome{seed: seed, err: err}
	}
	opts.Collision = alg.Collision
	res, err := sim.RunContext(ctx, sc, pl, opts)
	mem := baselineStateBytes(len(sc.Team))
	if alg.NeedsModel {
		// approx.Planner.MemoryBytes: the learned weights, per asset.
		mem = float64(len(sc.Team) * h.Linear.Bytes())
	}
	return runOutcome{seed: seed, res: res, cpu: time.Since(start), mem: mem, err: err}
}

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
	lin, dur, err := approx.FitLinearOpts(pipe.Data, nil, cfg.FitWorkers)
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
	// a completed evaluation). This is the seed-aligned record backing
	// paired t-tests: TTotal/FTotal below drop failed runs and therefore
	// lose alignment as soon as two algorithms fail on different seeds.
	PerRun []RunValue
	// Per-run objective values (Definitions 1 and 2) of the runs that found
	// the destination, in run order. Means and distributional plots use
	// these; paired comparisons must use PerRun (see PairedObjectives).
	TTotal []float64
	FTotal []float64
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

// MeanT returns the average T_total over completed runs.
func (r RunStats) MeanT() float64 { return stats.Mean(r.TTotal) }

// MeanF returns the average F_total over completed runs.
func (r RunStats) MeanF() float64 { return stats.Mean(r.FTotal) }

// baselineStateBytes estimates the per-team planner state of the
// non-learning planners: a seeded PRNG plus a per-asset cursor — hundreds
// of bytes, reported honestly rather than copied from the paper.
func baselineStateBytes(nAssets int) float64 { return float64(256 + 48*nAssets) }

// runOutcome carries one seeded run's results through the (possibly
// parallel) evaluation loop.
type runOutcome struct {
	res sim.Result
	cpu time.Duration
	mem float64
	err error
}

// runSeed is the planner seed of run index `run` under p: the single place
// the seed schedule lives, so PerRun records and re-runs agree on it.
func runSeed(p Params, run int) int64 { return p.Seed + int64(run)*104729 }

// instrumentRun wraps one leaf run with the whole observability surface:
// the in-flight gauge, the per-run span (handed to fn so the mission can
// nest under it), the runs_total counter, and the progress tick. With no
// tracer/metrics/progress configured every branch is a nil check and fn
// runs untouched — determinism never depends on instrumentation.
// RegisterMetricsHelp documents the experiment metric names for the
// Prometheus exposition (# HELP lines). Drivers that hand a registry to
// Params.Metrics call it once up front.
func RegisterMetricsHelp(m *obs.Registry) {
	m.SetHelp("experiments_runs_total", "Experiment leaf runs completed, by algorithm.")
	m.SetHelp("experiments_inflight_runs", "Experiment runs currently executing.")
	m.SetHelp("trace_span_seconds", "Span durations from the suite tracer, by span name.")
	m.SetHelp("trace_spans_total", "Spans completed by the suite tracer, by span name.")
}

func instrumentRun(p Params, algo string, run int, fn func(sp *trace.Span) runOutcome) runOutcome {
	if p.Metrics != nil {
		g := p.Metrics.Gauge("experiments_inflight_runs")
		g.Inc()
		defer g.Dec()
	}
	var sp *trace.Span
	if p.traceParent != nil {
		sp = p.traceParent.Child("run")
	} else if p.Tracer.Enabled() {
		sp = p.Tracer.Start("run")
	}
	if sp.Enabled() {
		sp.SetAttrs(
			trace.String("algorithm", algo),
			trace.Int("run", int64(run)),
			trace.Int("seed", runSeed(p, run)))
	}
	out := fn(sp)
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
		p.Metrics.Counter("experiments_runs_total", "algorithm", algo).Inc()
	}
	p.Progress.RunDone()
	return out
}

// Evaluate runs one algorithm over p.Runs seeded instances, in parallel if
// p.Parallel > 1. Run results stay aligned by seed regardless of
// completion order — PerRun[i] always holds run i — keeping paired t-tests
// across algorithms valid. Cancelling ctx stops the evaluation between
// missions (and aborts in-flight missions between epochs) and returns
// ctx's error.
func (h *Harness) Evaluate(ctx context.Context, algo string, p Params) (RunStats, error) {
	return h.evaluateWith(ctx, algo, p, limiterFor(p))
}

// evaluateWith is Evaluate against a caller-owned run budget, so that a
// driver fanning out many cells (Table 6, the sweeps, Figure 8) shares one
// limiter across all of their inner run loops instead of multiplying
// p.Parallel by the cell count.
func (h *Harness) evaluateWith(ctx context.Context, algo string, p Params, lim limiter) (RunStats, error) {
	p.Progress.Expect(p.Runs)
	outcomes := runIndexed(lim, p.Runs, func(run int) runOutcome {
		return instrumentRun(p, algo, run, func(sp *trace.Span) runOutcome {
			if err := ctx.Err(); err != nil {
				return runOutcome{err: err}
			}
			sc, err := scenarioFor(p, run)
			if err != nil {
				return runOutcome{err: err}
			}
			res, cpu, mem, err := h.runOne(ctx, algo, sc, p, run, sp)
			if err != nil && errors.Is(err, core.ErrMemoryBudget) {
				numActions := core.InstanceActions(sc.Grid, sc.Team)
				return runOutcome{
					err: err,
					mem: core.QTableBytes(sc.Grid.NumNodes(), len(sc.Team), numActions, sc.Team.MaxSpeedOver()),
				}
			}
			return runOutcome{res: res, cpu: cpu, mem: mem, err: err}
		})
	})
	return collectStats(algo, p, outcomes)
}

// evaluateCustom runs an ad-hoc planner (one not named in AllAlgorithms)
// over the same seeded scenarios, run loop, and aggregation as Evaluate, so
// custom comparisons (Figure 3's neural model) stay seed-paired with the
// named algorithms instead of hand-rolling a drifting copy of the loop.
// mk constructs the run's planner and reports its memory footprint.
func evaluateCustom(ctx context.Context, name string, p Params, lim limiter,
	mk func(run int, sc sim.Scenario) (sim.Planner, float64)) (RunStats, error) {

	p.Progress.Expect(p.Runs)
	outcomes := runIndexed(lim, p.Runs, func(run int) runOutcome {
		return instrumentRun(p, name, run, func(sp *trace.Span) runOutcome {
			if err := ctx.Err(); err != nil {
				return runOutcome{err: err}
			}
			sc, err := scenarioFor(p, run)
			if err != nil {
				return runOutcome{err: err}
			}
			start := time.Now()
			pl, mem := mk(run, sc)
			if ap, ok := pl.(*approx.Planner); ok {
				ap.SetBudget(p.Budget)
			}
			res, err := sim.RunContext(ctx, sc, pl, sim.RunOptions{TraceParent: sp, Budget: p.Budget})
			return runOutcome{res: res, cpu: time.Since(start), mem: mem, err: err}
		})
	})
	return collectStats(name, p, outcomes)
}

// collectStats folds per-run outcomes (in run order, whatever order they
// completed in) into RunStats.
func collectStats(algo string, p Params, outcomes []runOutcome) (RunStats, error) {
	rs := RunStats{Algorithm: algo, Runs: p.Runs}
	rs.PerRun = make([]RunValue, p.Runs)
	for run, out := range outcomes {
		rs.PerRun[run] = RunValue{Seed: runSeed(p, run)}
		if out.err != nil {
			if errors.Is(out.err, core.ErrMemoryBudget) {
				return RunStats{
					Algorithm:   algo,
					Runs:        p.Runs,
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
			rs.TTotal = append(rs.TTotal, out.res.TTotal)
			rs.FTotal = append(rs.FTotal, out.res.FTotal)
		}
	}
	if len(rs.TTotal) == 0 {
		rs.NA = true
		switch {
		case rs.AbortedRuns == p.Runs:
			rs.NAReason = fmt.Sprintf("collisions aborted all %d runs", p.Runs)
		case rs.AbortedRuns > 0:
			rs.NAReason = fmt.Sprintf("collisions aborted %d/%d runs, rest timed out", rs.AbortedRuns, p.Runs)
		default:
			rs.NAReason = "no run discovered the destination"
		}
	}
	return rs, nil
}

// runOne executes a single seeded run of an algorithm, returning the
// mission result, the planner CPU time, and the planner memory footprint.
// The mission aborts between epochs when ctx is cancelled.
func (h *Harness) runOne(ctx context.Context, title string, sc sim.Scenario, p Params, run int, sp *trace.Span) (sim.Result, time.Duration, float64, error) {
	seed := runSeed(p, run)
	opts := sim.RunOptions{TraceParent: sp, Budget: p.Budget}
	start := time.Now()
	// Exact MaMoRL trains on each instance and reports its Lemma 2 table
	// size; it is never served, so the planner table does not list it.
	if title == AlgoMaMoRL {
		pl, err := core.NewPlanner(sc, core.Config{Episodes: p.Episodes, Seed: seed, Budget: p.Budget}, rewardfn.DefaultWeights())
		if err != nil {
			return sim.Result{}, 0, 0, err
		}
		if err := pl.Train(); err != nil {
			return sim.Result{}, 0, 0, err
		}
		res, err := sim.RunContext(ctx, sc, pl, opts)
		st := pl.TableStats()
		return res, time.Since(start), st.DenseQBytes, err
	}
	alg, err := algo.ByTitle(title)
	if err != nil {
		return sim.Result{}, 0, 0, fmt.Errorf("experiments: %w", err)
	}
	if title == AlgoRandomWalk {
		// A random walk's hitting time is orders of magnitude beyond a
		// directed search (that is Table 6's point: T_total in the
		// thousands); give it the step budget to actually finish.
		sc.MaxSteps = sc.Grid.NumNodes() * 150
	}
	pl, err := alg.New(algo.Inputs{Scenario: sc, Model: h.Linear, Ext: h.Pipe.Extractor,
		Region: partial.DestRegion(sc), Seed: seed, Budget: p.Budget})
	if err != nil {
		return sim.Result{}, 0, 0, err
	}
	opts.Collision = alg.Collision
	res, err := sim.RunContext(ctx, sc, pl, opts)
	mem := baselineStateBytes(len(sc.Team))
	if alg.NeedsModel {
		// approx.Planner.MemoryBytes: the learned weights, per asset.
		mem = float64(len(sc.Team) * h.Linear.Bytes())
	}
	return res, time.Since(start), mem, err
}

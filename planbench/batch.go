package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"

	"github.com/routeplanning/mamorl/internal/approx"
	"github.com/routeplanning/mamorl/internal/experiments"
)

// table6Rate is the number of RunTable6 passes per nominal second; a run
// makes table6Rate × --seconds passes, at least one.
const table6Rate = 0.5

// infeasibleBlocks are the Table 6 blocks on which exact MaMoRL exceeds the
// memory budget, as EXPERIMENTS.md records.
var infeasibleBlocks = map[string]bool{
	"|V|=704 |N|=2 Dmax=7": true,
	"|V|=400 |N|=3 Dmax=9": true,
}

// table6Params are the parameters of the pass with experiment seed s:
// Table 4's defaults at Quick run counts, Parallel = nproc.
func table6Params(s int64) experiments.Params {
	p := experiments.DefaultParams().Quick()
	p.Parallel = runtime.NumCPU()
	p.Seed = s
	return p
}

// table6Seeds is the pass sequence of a run of n passes: the consecutive
// experiment seeds 1..n, in an order the workload seed shuffles. Every run
// covers the same passes because their cost is heavy-tailed across
// experiment seeds (1.9–3.3 s a pass on a 2-core host, exact MaMoRL and
// partial-knowledge runs dominating): with seed-dependent passes, ten runs
// of different workload seeds spread by a quarter on throughput and plan
// quality, which would hide any change to the program.
func table6Seeds(seed int64, n int) []int64 {
	order := rand.New(rand.NewSource(seed)).Perm(n)
	seeds := make([]int64, n)
	for k, i := range order {
		seeds[k] = int64(i) + 1
	}
	return seeds
}

// checkTable6 checks one pass: every block × algorithm row is present, exact
// MaMoRL is N/A for memory on exactly the two infeasible blocks, and every
// other row records every run.
func checkTable6(rows []experiments.Table6Row) error {
	blocks := experiments.Table6Scenarios(experiments.DefaultParams())
	if want := len(blocks) * len(experiments.AllAlgorithms); len(rows) != want {
		return fmt.Errorf("table 6: %d rows, want %d", len(rows), want)
	}
	for i, r := range rows {
		b, a := blocks[i/len(experiments.AllAlgorithms)].Label, experiments.AllAlgorithms[i%len(experiments.AllAlgorithms)]
		if r.Scenario != b || r.Algorithm != a {
			return fmt.Errorf("table 6 row %d is %s / %s, want %s / %s", i, r.Scenario, r.Algorithm, b, a)
		}
		memNA := memoryNA(r)
		if want := a == experiments.AlgoMaMoRL && infeasibleBlocks[b]; memNA != want {
			return fmt.Errorf("table 6 %s / %s: memory N/A is %v, want %v", b, a, memNA, want)
		}
		if !memNA && len(r.Stats.PerRun) != r.Stats.Runs {
			return fmt.Errorf("table 6 %s / %s: %d of %d runs recorded", b, a, len(r.Stats.PerRun), r.Stats.Runs)
		}
	}
	return nil
}

// memoryNA reports whether exact MaMoRL was refused for memory on a row.
func memoryNA(r experiments.Table6Row) bool {
	return r.Stats.NA && r.Stats.NAReason == "exceeds memory budget"
}

// table6Outcomes turns a pass into one outcome per seeded run, in row and
// run order. Runs refused for memory are not plans and are skipped. Each
// outcome's digest covers the run's record, so the workload digest pins
// every PerRun value.
func table6Outcomes(rows []experiments.Table6Row) []outcome {
	var outs []outcome
	for _, r := range rows {
		if memoryNA(r) {
			continue
		}
		for run, v := range r.Stats.PerRun {
			rec := fmt.Appendf(nil, "%s/%s/%d/%+v", r.Scenario, r.Algorithm, run, v)
			outs = append(outs, outcome{status: 200, ok: true, found: v.Found, tTotal: v.TTotal, fTotal: v.FTotal, digest: sha256.Sum256(rec)})
		}
		// RunStats counts collided runs, not which ones; mark that many of
		// the row's runs as collided so the row's collision-free count is
		// exact.
		row := outs[len(outs)-len(r.Stats.PerRun):]
		for i := 0; i < r.Stats.CollidedRuns && i < len(row); i++ {
			row[i].collisions = 1
		}
	}
	return outs
}

// runPasses makes one checked RunTable6 pass per seed, one per segment.
func runPasses(h *experiments.Harness, clock *hostClock, seeds []int64) (window, [][]experiments.Table6Row, error) {
	n := len(seeds)
	passes := make([][]experiments.Table6Row, n)
	w, err := clock.repeat(n, func(k int) error {
		rows, err := h.RunTable6(context.Background(), table6Params(seeds[k]))
		if err != nil {
			return fmt.Errorf("table 6 pass %d: %w", k, err)
		}
		passes[k] = rows
		return nil
	}, func(k int) error {
		if err := checkTable6(passes[k]); err != nil {
			return fmt.Errorf("pass %d: %w", k, err)
		}
		return nil
	})
	return w, passes, err
}

// runTable6Batch runs the table6-batch workload: set-up is
// experiments.NewHarness (repeated, the last harness kept), then
// table6Rate × seconds RunTable6 passes over consecutive experiment seeds.
// A plan is one seeded run; the latency sample is one pass.
func runTable6Batch(seed int64, seconds int, traced bool, out *report) error {
	var h *experiments.Harness
	sw, err := out.clock.repeat(setupReps, func(int) error {
		var err error
		h, err = experiments.NewHarness(approx.TrainConfig{})
		return err
	}, func(int) error {
		// Each set-up starts from a clean heap, as in a fresh process.
		runtime.GC()
		return nil
	})
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	out.setup(sw)
	if traced {
		out.timing(out.PerLayer, "setup.harness_s", "s", median(sw.latMS)/1e3, median(sw.rawMS)/1e3)
	}

	seeds := table6Seeds(seed, max(1, int(table6Rate*float64(seconds)+0.5)))
	rt0 := readRuntime()
	w, passes, err := runPasses(h, out.clock, seeds)
	if err != nil {
		return err
	}
	rt1 := readRuntime()
	// Outcomes fold in experiment-seed order, so the quality metrics and
	// the digest do not depend on the order the passes ran in.
	bySeed := make([][]experiments.Table6Row, len(seeds))
	for k, s := range seeds {
		bySeed[s-1] = passes[k]
	}
	var outs []outcome
	for _, rows := range bySeed {
		outs = append(outs, table6Outcomes(rows)...)
	}
	q := foldQuality(outs)
	out.plans(w, q, len(outs))
	out.runtime(rt0, rt1, q.attempted)
	if !traced {
		return nil
	}
	return traceTable6(h, out, seeds, w, passes)
}

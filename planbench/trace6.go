package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/routeplanning/mamorl/internal/experiments"
	"github.com/routeplanning/mamorl/internal/grid"
)

// algoLabels names Table 6's algorithms in the experiments.cpu_s metrics.
var algoLabels = map[string]string{
	experiments.AlgoMaMoRL:     "mamorl",
	experiments.AlgoApprox:     "approx",
	experiments.AlgoApproxPK:   "approx_pk",
	experiments.AlgoBaseline1:  "baseline1",
	experiments.AlgoBaseline2:  "baseline2",
	experiments.AlgoRandomWalk: "random",
}

// traceTable6 replays the timed passes with a span around each RunTable6
// call, checks that every run's record equals the untraced run's, and
// reports the executor's busy share, each algorithm's CPU time per pass
// and the cost of generating Table 6's grids.
func traceTable6(h *experiments.Harness, out *report, seeds []int64, untraced window, want [][]experiments.Table6Row) error {
	rec := &recorder{epoch: time.Now()}
	n := len(want)
	passes := make([][]experiments.Table6Row, n)
	w, err := out.clock.repeat(n, func(k int) error {
		sp := rec.open("table6.pass", -1, k)
		rows, err := h.RunTable6(context.Background(), table6Params(seeds[k]))
		rec.close(sp)
		passes[k] = rows
		return err
	}, func(k int) error {
		if foldQuality(table6Outcomes(passes[k])).digest != foldQuality(table6Outcomes(want[k])).digest {
			return fmt.Errorf("traced replay of pass %d: run records differ from the untraced run", k)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m := out.PerLayer
	cpu, cpuRaw := map[string]float64{}, map[string]float64{}
	var busy float64
	for k, rows := range passes {
		for _, r := range rows {
			cpu[algoLabels[r.Algorithm]] += r.Stats.CPUTime.Seconds() * w.factor[k]
			cpuRaw[algoLabels[r.Algorithm]] += r.Stats.CPUTime.Seconds()
			busy += r.Stats.CPUTime.Seconds()
		}
	}
	m.set("experiments.busy_frac", "fraction", busy/(w.raw.Seconds()*float64(runtime.NumCPU())))
	for _, label := range algoLabels {
		out.timing(m, "experiments.cpu_s."+label, "s", cpu[label]/float64(n), cpuRaw[label]/float64(n))
	}

	// Table 6's four grid shapes, three seeds each, one call per segment.
	blocks := experiments.Table6Scenarios(experiments.DefaultParams())
	gw, err := out.clock.repeat(3*len(blocks), func(i int) error {
		p := blocks[i%len(blocks)].Params
		_, err := grid.GenerateSynthetic(grid.SyntheticConfig{
			Nodes: p.Nodes, Edges: p.Edges, MaxOutDegree: p.MaxOutDegree, Seed: int64(i),
		})
		return err
	}, func(int) error { return nil })
	if err != nil {
		return err
	}
	out.timing(m, "grid.generate_ms.p50", "ms", median(gw.latMS), median(gw.rawMS))
	out.Samples["grid.generate_ms.p50"] = len(gw.latMS)
	out.unmeasured(unmeasuredTable6)
	out.overhead(untraced, w)
	return out.writeSpans([]*recorder{rec}, w.factor)
}

// unmeasuredTable6 names the per-layer metrics table6-batch does not cross,
// or that its harness keeps out of reach, and why.
var unmeasuredTable6 = map[string]string{
	"tmplar.*, catalog.*, setup.server_s, setup.upload_s, setup.warm_s": "the experiments harness never touches tmplar, the catalog or HTTP",
	"sim.*, approx.*, model.*":  "experiments.Harness builds its planners and missions internally; no exported seam lets the benchmark wrap them, so only RunStats.CPUTime per algorithm is measured",
	"runtime.alloc_kb_per_plan": "TotalAlloc over the untraced window per seeded run",
}

// Benchmarks regenerating every table and figure of the paper's evaluation
// (see DESIGN.md §4 for the experiment index). Each benchmark runs the
// corresponding experiment driver at a reduced scale so that the full
// `go test -bench=. -benchmem` completes in minutes; pass
// `-args -paperscale` for the paper's full 10-run protocol.
//
// Reported custom metrics carry the reproduced quantities (mean T_total,
// F_total, relative improvements, table bytes) so a bench run doubles as a
// results table.
package mamorl_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/routeplanning/mamorl/internal/approx"
	"github.com/routeplanning/mamorl/internal/catalog"
	"github.com/routeplanning/mamorl/internal/core"
	"github.com/routeplanning/mamorl/internal/experiments"
	"github.com/routeplanning/mamorl/internal/features"
	"github.com/routeplanning/mamorl/internal/graphalg"
	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/neural"
	"github.com/routeplanning/mamorl/internal/rewardfn"
	"github.com/routeplanning/mamorl/internal/sim"
	"github.com/routeplanning/mamorl/internal/tmplar"
	"github.com/routeplanning/mamorl/internal/vessel"
	"github.com/routeplanning/mamorl/internal/weather"
)

var paperScale = flag.Bool("paperscale", false, "run benches at the paper's full 10-run protocol")

// benchParallel is the run budget handed to the experiment drivers that
// report objective metrics only (Table 6, Figure 4/8, ablation). The sweep
// benches (Figure 5/6/7) stay serial: their CPU-timing columns are only
// meaningful without contention.
var benchParallel = flag.Int("benchparallel", 0, "Params.Parallel for the objective-metric benches; 0 = GOMAXPROCS")

func parallelism() int {
	if *benchParallel > 0 {
		return *benchParallel
	}
	return runtime.GOMAXPROCS(0)
}

// benchHarness is shared across benchmarks (training the sample source once).
var (
	benchOnce    sync.Once
	benchH       *experiments.Harness
	benchHarnErr error
)

func harness(b *testing.B) *experiments.Harness {
	b.Helper()
	benchOnce.Do(func() {
		benchH, benchHarnErr = experiments.NewHarness(approx.TrainConfig{Seed: 1})
	})
	if benchHarnErr != nil {
		b.Fatalf("harness: %v", benchHarnErr)
	}
	return benchH
}

func benchParams() experiments.Params {
	p := experiments.DefaultParams()
	if !*paperScale {
		p = p.Quick()
		p.Nodes, p.Edges, p.MaxOutDegree = 200, 430, 8
		p.Assets, p.MaxSpeed = 3, 3
	}
	return p
}

// BenchmarkTable2ToyExample regenerates Table 2: time and fuel per speed
// for the toy example's two assets.
func BenchmarkTable2ToyExample(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, w := range []float64{2.0, 2.24} {
			for s := 1; s <= 3; s++ {
				sink += vessel.MoveTime(w, float64(s)) + vessel.MoveFuel(w, float64(s))
			}
		}
	}
	b.ReportMetric(vessel.MoveFuel(2, 2), "asset1_speed2_fuel")
	b.ReportMetric(vessel.MoveTime(2.24, 2), "asset2_speed2_time")
	_ = sink
}

// BenchmarkTable3Datasets regenerates the Caribbean mesh (and, at paper
// scale, the North America Shore and Atlantic meshes) and reports |V|/|E|.
func BenchmarkTable3Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, err := grid.CaribbeanGrid(int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if g.NumNodes() != 710 || g.NumEdges() != 1684 {
			b.Fatalf("caribbean size drifted: %v", g.Stats())
		}
	}
	if *paperScale {
		na, err := grid.NorthAmericaShoreGrid(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(na.NumNodes()), "na_shore_nodes")
		atl, err := grid.AtlanticGrid(1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(atl.NumNodes()), "atlantic_nodes")
	}
	b.ReportMetric(710, "caribbean_nodes")
	b.ReportMetric(1684, "caribbean_edges")
}

// BenchmarkTable5NNTraining trains the Table 5 network (2 layers: 5 ReLU +
// 1 linear) on the pipeline's LM samples.
func BenchmarkTable5NNTraining(b *testing.B) {
	h := harness(b)
	opts := neural.TrainOptions{Epochs: 50, BatchSize: 256, LearningRate: 0.05}
	if *paperScale {
		opts = neural.TrainOptions{} // batch 1000, 10000 epochs
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := approx.FitNeural(h.Pipe.Data, opts, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable6Comparison runs the full algorithm comparison: all six
// algorithms on the four scenario blocks, including the exact solver where
// the memory budget admits it.
func BenchmarkTable6Comparison(b *testing.B) {
	benchTable6(b, parallelism())
}

// BenchmarkTable6ComparisonSerial is the same workload with the executor
// budget pinned to 1; the ns/op ratio against BenchmarkTable6Comparison is
// the parallel speedup (the cells and PerRun outcomes are byte-identical
// either way — see internal/experiments/executor_test.go).
func BenchmarkTable6ComparisonSerial(b *testing.B) {
	benchTable6(b, 1)
}

func benchTable6(b *testing.B, parallel int) {
	h := harness(b)
	p := experiments.DefaultParams()
	if !*paperScale {
		p = p.Quick()
	}
	p.Parallel = parallel
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := h.RunTable6(context.Background(), p)
		if err != nil {
			b.Fatal(err)
		}
		// Surface the headline cells as metrics.
		for _, r := range rows {
			if r.Scenario == "|V|=400 |N|=2 Dmax=6" && !r.Stats.NA {
				switch r.Algorithm {
				case experiments.AlgoMaMoRL:
					b.ReportMetric(r.Stats.MeanT(), "exact_T_v400")
				case experiments.AlgoApprox:
					b.ReportMetric(r.Stats.MeanT(), "approx_T_v400")
				}
			}
		}
	}
}

// BenchmarkFigure3FunctionApprox compares linear vs neural training time
// and mission quality.
func BenchmarkFigure3FunctionApprox(b *testing.B) {
	h := harness(b)
	p := benchParams()
	opts := neural.TrainOptions{Epochs: 100, BatchSize: 256, LearningRate: 0.05}
	if *paperScale {
		opts = neural.TrainOptions{}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := h.RunFigure3(context.Background(), p, opts, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Speedup, "nn_train_slowdown_x")
		b.ReportMetric(r.Linear.MeanT(), "linear_T")
		b.ReportMetric(r.Neural.MeanT(), "nn_T")
	}
}

// BenchmarkFigure4Pareto extracts the Pareto front over per-run outcomes of
// the four runnable planners.
func BenchmarkFigure4Pareto(b *testing.B) {
	h := harness(b)
	p := benchParams()
	p.Parallel = parallelism()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := h.RunFigure4(context.Background(), p)
		if err != nil {
			b.Fatal(err)
		}
		approxShare := r.FrontShare[experiments.AlgoApprox] + r.FrontShare[experiments.AlgoApproxPK]
		b.ReportMetric(float64(len(r.Front)), "front_size")
		b.ReportMetric(float64(approxShare), "approx_front_points")
	}
}

// BenchmarkFigure5Sweeps runs the seven Figure 5 parameter sweeps for
// Approx-MaMoRL and reports the headline relative improvement.
func BenchmarkFigure5Sweeps(b *testing.B) {
	h := harness(b)
	p := benchParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweeps, err := h.RunSweeps(context.Background(), experiments.AlgoApprox, p, !*paperScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sweeps[0].Points[0].RITimeVsB1, "ri_time_vs_b1_pct")
		b.ReportMetric(sweeps[0].Points[0].RIFuelVsB1, "ri_fuel_vs_b1_pct")
	}
}

// BenchmarkFigure6PartialKnowledge runs the same sweeps with the
// partial-knowledge planner.
func BenchmarkFigure6PartialKnowledge(b *testing.B) {
	h := harness(b)
	p := benchParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweeps, err := h.RunSweeps(context.Background(), experiments.AlgoApproxPK, p, !*paperScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sweeps[0].Points[0].RITimeVsB1, "pk_ri_time_vs_b1_pct")
	}
}

// BenchmarkFigure7RunningTime reports the per-run planning time of
// Approx-MaMoRL vs Baseline-1 (the same sweep machinery viewed through its
// timing columns).
func BenchmarkFigure7RunningTime(b *testing.B) {
	h := harness(b)
	p := benchParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweeps, err := h.RunSweeps(context.Background(), experiments.AlgoApprox, p, !*paperScale)
		if err != nil {
			b.Fatal(err)
		}
		last := sweeps[0].Points[len(sweeps[0].Points)-1]
		b.ReportMetric(float64(last.SubjectCPU.Microseconds()), "approx_plan_us")
		b.ReportMetric(float64(last.B1CPU.Microseconds()), "baseline1_plan_us")
	}
}

// BenchmarkFigure8Transfer cross-evaluates basin-trained models. The quick
// configuration pairs the Caribbean with a 500-node mesh; paper scale uses
// the full North America Shore grid.
func BenchmarkFigure8Transfer(b *testing.B) {
	carib, err := grid.CaribbeanGrid(5)
	if err != nil {
		b.Fatal(err)
	}
	var partner *grid.Grid
	if *paperScale {
		partner, err = grid.NorthAmericaShoreGrid(5)
	} else {
		partner, err = grid.GenerateOceanMesh(grid.OceanMeshConfig{
			Name: "mini-shore", Region: carib.Bounds(), Nodes: 500, Edges: 1150, MaxOutDegree: 6, Seed: 9,
		})
	}
	if err != nil {
		b.Fatal(err)
	}
	runs := 3
	if *paperScale {
		runs = 10
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFigure8(context.Background(), carib, partner, experiments.Figure8Options{Runs: runs, Seed: int64(i), Parallel: parallelism()})
		if err != nil {
			b.Fatal(err)
		}
		// Transfer gap on the Caribbean: transferred vs native mean T.
		var native, transferred float64
		for _, c := range r.Cells {
			if c.EvaluatedOn == "caribbean" {
				if c.TrainedOn == "caribbean" {
					native = c.Stats.MeanT()
				} else {
					transferred = c.Stats.MeanT()
				}
			}
		}
		if native > 0 {
			b.ReportMetric(100*(transferred-native)/native, "transfer_gap_pct")
		}
	}
}

// BenchmarkLemmaTableSizes evaluates the Lemma 1-2 dense-size formulas for
// Table 6's scenarios (the memory-bottleneck analysis).
func BenchmarkLemmaTableSizes(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, s := range [][3]int{{704, 7, 2}, {400, 9, 3}, {400, 6, 2}, {200, 9, 2}} {
			actions := sim.ActionCount(s[1], 5)
			sink += core.PTableBytes(s[0], s[2], actions, 5)
			sink += core.QTableBytes(s[0], s[2], actions, 5)
		}
	}
	b.ReportMetric(core.QTableBytes(704, 2, sim.ActionCount(7, 5), 5)/(1<<30), "v704_q_gb")
	b.ReportMetric(core.QTableBytes(400, 3, sim.ActionCount(9, 5), 5)/(1<<40), "v400n3_q_tb")
	_ = sink
}

// --- Micro-benchmarks on the core machinery ----------------------------------

// BenchmarkApproxDecide measures one planning decision of the deployed
// planner (the latency TMPLAR sees per asset per epoch). The synthetic
// case decides for a four-asset team at its sources on a 400-node grid;
// the caribbean case decides for six assets mid-mission on the Caribbean
// mesh that plan-hot serves, packed close enough that teammates pass the
// reachability gate, so TMM rollouts, the gate and θ are all timed.
func BenchmarkApproxDecide(b *testing.B) {
	h := harness(b)
	b.Run("synthetic", func(b *testing.B) {
		g, err := grid.GenerateSynthetic(grid.SyntheticConfig{Nodes: 400, Edges: 846, MaxOutDegree: 9, Seed: 2})
		if err != nil {
			b.Fatal(err)
		}
		sc, err := approx.TrainingScenario(g, 4, 5, 1.2, 3)
		if err != nil {
			b.Fatal(err)
		}
		pl := approx.NewPlanner(h.Linear, h.Pipe.Extractor, 1)
		m, err := sim.NewMission(sc, sim.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = pl.Decide(m, i%len(sc.Team))
		}
	})
	b.Run("caribbean", func(b *testing.B) {
		pl := approx.NewPlanner(h.Linear, h.Pipe.Extractor, 1)
		m := caribbeanMidMission(b, pl)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = pl.Decide(m, i%m.NumAssets())
		}
	})
}

// caribbeanMidMission starts six assets with max speeds 3 to 5 on the
// Caribbean mesh's first node of the largest out-degree and five of its
// neighbours, aimed at the farthest node,
// and lets pl plan eight epochs. It fails unless every asset still has a
// teammate inside the planner's reachability gate.
func caribbeanMidMission(tb testing.TB, pl sim.Planner) *sim.Mission {
	tb.Helper()
	g, err := grid.CaribbeanGrid(1)
	if err != nil {
		tb.Fatal(err)
	}
	hub := grid.NodeID(0)
	for g.OutDegree(hub) < g.MaxOutDegree() {
		hub++
	}
	sources := []grid.NodeID{hub}
	for _, e := range g.Neighbors(hub)[:5] {
		sources = append(sources, e.To)
	}
	team := vessel.NewTeam(sources, 1.2*g.AvgEdgeWeight(), 3)
	for k := range team {
		team[k].MaxSpeed = 3 + k%3
	}
	sc := sim.Scenario{Grid: g, Team: team, Dest: approx.FarthestNode(g, sources), CommEvery: 3}
	m, err := sim.NewMission(sc, sim.RunOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	acts := make([]sim.Action, len(team))
	for epoch := 0; epoch < 8; epoch++ {
		for i := range acts {
			acts[i] = pl.Decide(m, i)
		}
		if _, err := m.ExecuteStep(acts); err != nil {
			tb.Fatal(err)
		}
	}
	if m.Done() {
		tb.Fatal("mission ended during warm-up")
	}
	for i := range team {
		near := false
		for j, vj := range m.Knowledge(i).LastKnown {
			stale := m.Step() - m.Knowledge(i).LastKnownStep[j]
			near = near || (j != i && g.Distance(m.Cur(i), vj) <= float64(stale+2)*g.MaxEdgeWeight())
		}
		if !near {
			tb.Fatalf("asset %d has no teammate inside the reachability gate", i)
		}
	}
	return m
}

// exactFixture is an untrained two-asset exact planner on a 100-node grid
// with a fresh mission: the fixture of BenchmarkExactDecide and of the
// exact planner's alloc pins.
func exactFixture(tb testing.TB) (*core.Planner, *sim.Mission) {
	tb.Helper()
	g, err := grid.GenerateSynthetic(grid.SyntheticConfig{Nodes: 100, Edges: 210, MaxOutDegree: 6, Seed: 2})
	if err != nil {
		tb.Fatal(err)
	}
	sc, err := approx.TrainingScenario(g, 2, 3, 1.2, 3)
	if err != nil {
		tb.Fatal(err)
	}
	pl, err := core.NewPlanner(sc, core.Config{Seed: 1}, rewardfn.DefaultWeights())
	if err != nil {
		tb.Fatal(err)
	}
	m, err := sim.NewMission(sc, sim.RunOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	return pl, m
}

// BenchmarkExactDecide measures one ASM decision of the exact solver, on
// empty tables at epoch 0 (t <= T).
func BenchmarkExactDecide(b *testing.B) {
	pl, m := exactFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pl.Decide(m, i%2)
	}
}

// exactTrainRun returns one exact MaMoRL run of Table 6 before it plans:
// building the planner and training it at Table 4's defaults, on the seed-1
// instance of the |V|=200 |N|=2 Dmax=9 block. Most of its decisions and
// updates are past the threshold T, on learned tables. The grid's
// sensing-ball memo is filled first, as the experiments' instance cache
// does, so the first run does not pay for it. It is the fixture of
// BenchmarkExactTrain and of TestExactTrainAllocs.
func exactTrainRun(tb testing.TB) func() {
	tb.Helper()
	var p experiments.Params
	for _, sc := range experiments.Table6Scenarios(experiments.DefaultParams()) {
		if sc.Label == "|V|=200 |N|=2 Dmax=9" {
			p = sc.Params
		}
	}
	g, err := grid.GenerateSynthetic(grid.SyntheticConfig{
		Nodes: p.Nodes, Edges: p.Edges, MaxOutDegree: p.MaxOutDegree, Seed: p.Seed})
	if err != nil {
		tb.Fatal(err)
	}
	sc, err := approx.TrainingScenario(g, p.Assets, p.MaxSpeed, p.SensingRadiusFactor, p.CommEvery)
	if err != nil {
		tb.Fatal(err)
	}
	for v := 0; v < g.NumNodes(); v++ {
		g.ForEachWithinRadius(grid.NodeID(v), sc.Team[0].SensingRadius, func(grid.NodeID) {})
	}
	return func() {
		pl, err := core.NewPlanner(sc, core.Config{Episodes: p.Episodes, Seed: p.Seed}, rewardfn.DefaultWeights())
		if err != nil {
			tb.Fatal(err)
		}
		if err := pl.Train(); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkExactTrain measures one exactTrainRun.
func BenchmarkExactTrain(b *testing.B) {
	run := exactTrainRun(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// table6Largest is Table 6's largest synthetic shape (704 nodes, 1550
// edges, D_max 7) at the given seed: the instance an experiment driver
// builds once per seeded run and shares across its algorithms.
func table6Largest(seed int64) grid.SyntheticConfig {
	return grid.SyntheticConfig{Nodes: 704, Edges: 1550, MaxOutDegree: 7, Seed: seed}
}

// BenchmarkGenerateSynthetic measures one table6Largest grid, cycling
// through seeds 1-3.
func BenchmarkGenerateSynthetic(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := grid.GenerateSynthetic(table6Largest(int64(i%3) + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDijkstraCaribbean measures shortest-path computation on the
// Caribbean mesh (the partial-knowledge transit planner's setup cost).
func BenchmarkDijkstraCaribbean(b *testing.B) {
	g, err := grid.CaribbeanGrid(5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = graphalg.Dijkstra(g, grid.NodeID(i%g.NumNodes()))
	}
}

// BenchmarkSensingQuery measures the WithinRadius spatial query issued by
// every asset at every epoch, in the three states of the grid's ball memo:
// warm (every ball filled), cold (each query is its node's first on a fresh
// grid, so it fills the ball) and fallback (a radius past the memo's table
// limit, answered by a spatial-index scan).
func BenchmarkSensingQuery(b *testing.B) {
	fresh := func(b *testing.B) (*grid.Grid, float64) {
		g, err := grid.CaribbeanGrid(5)
		if err != nil {
			b.Fatal(err)
		}
		return g, 1.5 * g.AvgEdgeWeight()
	}
	b.Run("warm", func(b *testing.B) {
		g, r := fresh(b)
		for v := 0; v < g.NumNodes(); v++ {
			_ = g.WithinRadius(grid.NodeID(v), r)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = g.WithinRadius(grid.NodeID(i%g.NumNodes()), r)
		}
	})
	b.Run("cold", func(b *testing.B) {
		g, r := fresh(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i > 0 && i%g.NumNodes() == 0 {
				b.StopTimer()
				g, r = fresh(b)
				b.StartTimer()
			}
			_ = g.WithinRadius(grid.NodeID(i%g.NumNodes()), r)
		}
	})
	b.Run("fallback", func(b *testing.B) {
		g, r := fresh(b)
		for k := 2; k <= 5; k++ { // four other radii take every table
			_ = g.WithinRadius(0, float64(k)*g.AvgEdgeWeight())
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = g.WithinRadius(grid.NodeID(i%g.NumNodes()), r)
		}
	})
}

// BenchmarkScenarioValidate measures the scenario check a plan request
// passes twice (at the service edge and in sim.NewMission) on the Caribbean
// mesh with 6 assets. The mesh is strongly connected, so without obstacles
// Validate only checks that every source lies in the grid; the obstacles
// case blocks five nodes, which puts it on the reverse reachability BFS.
func BenchmarkScenarioValidate(b *testing.B) {
	g, err := grid.CaribbeanGrid(5)
	if err != nil {
		b.Fatal(err)
	}
	sc, err := approx.TrainingScenario(g, 6, 3, 1.2, 3)
	if err != nil {
		b.Fatal(err)
	}
	blocked := sc
	for v := grid.NodeID(1); len(blocked.Obstacles) < 5; v += 97 {
		if v != sc.Dest && v%grid.NodeID(g.NumNodes()/6) != 0 {
			blocked.Obstacles = append(blocked.Obstacles, v)
		}
	}
	for _, c := range []struct {
		name string
		sc   sim.Scenario
	}{{"caribbean", sc}, {"obstacles", blocked}} {
		b.Run(c.name, func(b *testing.B) {
			if err := c.sc.Validate(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.sc.Validate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlanResponseJSON measures encoding one served plan body into a
// warmed buffer, as tmplar's servePlan does. The response folds a 2-asset
// Approx-MaMoRL mission on the Caribbean mesh into routes the way the
// service does: 23 KB, near the 20 KB a plan-hot response averages.
func BenchmarkPlanResponseJSON(b *testing.B) {
	h := harness(b)
	g, err := grid.CaribbeanGrid(5)
	if err != nil {
		b.Fatal(err)
	}
	sc, err := approx.TrainingScenario(g, 2, 3, 1.2, 3)
	if err != nil {
		b.Fatal(err)
	}
	routes := make([]tmplar.AssetRoute, len(sc.Team))
	record := func(m *sim.Mission, acts []sim.Action) {
		for i := range acts {
			mv := m.LastMove(i)
			leg := tmplar.RouteLeg{From: int32(mv.From), To: int32(mv.To), Speed: int(mv.Speed),
				Time: mv.Time(), Fuel: mv.Fuel(), Wait: mv.Wait}
			routes[i].Asset = i
			routes[i].Legs = append(routes[i].Legs, leg)
			routes[i].Time += leg.Time
			routes[i].Fuel += leg.Fuel
		}
	}
	res, err := sim.Run(sc, approx.NewPlanner(h.Linear, h.Pipe.Extractor, 1), sim.RunOptions{OnStep: record})
	if err != nil {
		b.Fatal(err)
	}
	resp := tmplar.PlanResponse{Found: res.Found, FoundBy: res.FoundBy, Steps: res.Steps,
		TTotal: res.TTotal, FTotal: res.FTotal, Collisions: res.Collisions, Routes: routes}
	buf, err := resp.AppendJSON(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = resp.AppendJSON(buf[:0])
	}
	b.ReportMetric(float64(len(buf))/1024, "resp_KiB")
}

// BenchmarkFrontierStep measures one frontier search, the fallback every
// cooperative planner takes when no move senses anything new, on a planner's
// reused scratch with the Voronoi test on. The planar case runs on the
// 400-node synthetic grid of the Decide alloc pins: every node but the one
// farthest from asset 0 is sensed, so each search crosses most of the grid
// and tests one candidate. The geodesic cases run on the 710-node
// Caribbean mesh, where the Voronoi test compares great-circle distances,
// and asset 0 has sensed exactly its own Voronoi cell. In the geodesic case
// the search meets an unsensed node outside the cell, finds no unsensed
// node left in the cell, and stops there. In the geodesic-cell case the
// cell's node farthest in hops from asset 0 is unsensed too, so the search
// cannot stop early and runs on, testing every unsensed node it meets
// against each teammate, until it reaches that node. These three read the
// grid's breadth-first order from its memo, warm after the first search,
// and search on their own only past the memo's cap. The
// geodesic-obstacles case is the geodesic one on a mission with obstacles,
// whose order the memo does not hold, so every search runs the
// breadth-first search itself.
func BenchmarkFrontierStep(b *testing.B) {
	b.Run("planar", func(b *testing.B) {
		m := decisionMission(b)
		senseAllBut(m, farthestFrom(m.Grid(), m.Cur(0)))
		rng := rand.New(rand.NewSource(1))
		var f sim.FrontierSearch
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, _ = f.Step(m, i%m.NumAssets(), nil, nil, grid.None, rng, true)
		}
	})
	for _, name := range []string{"geodesic", "geodesic-cell", "geodesic-obstacles"} {
		b.Run(name, func(b *testing.B) {
			m := cellSensedMission(b, name == "geodesic-obstacles")
			if name == "geodesic-cell" {
				k := m.Knowledge(0)
				hops := graphalg.HopDistances(m.Grid(), m.Cur(0))
				far := m.Cur(0)
				for u, d := range hops {
					if k.Sensed[u] && d > hops[far] {
						far = grid.NodeID(u)
					}
				}
				k.Sensed[far] = false
				k.SensedCount--
			}
			rng := rand.New(rand.NewSource(1))
			var f sim.FrontierSearch
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _ = f.Step(m, 0, nil, nil, grid.None, rng, true)
			}
		})
	}
}

// cellSensedMission is a fresh 4-asset mission on the Caribbean mesh in
// which asset 0 has sensed exactly its own Voronoi cell: the nodes no
// teammate's believed position is closer to. With obstacles, eight nodes
// spread over the mesh, none a source or the destination, are obstacles.
func cellSensedMission(b *testing.B, obstacles bool) *sim.Mission {
	g, err := grid.CaribbeanGrid(5)
	if err != nil {
		b.Fatal(err)
	}
	sc, err := approx.TrainingScenario(g, 4, 5, 1.2, 3)
	if err != nil {
		b.Fatal(err)
	}
	for v := grid.NodeID(1); obstacles && len(sc.Obstacles) < 8; v += grid.NodeID(g.NumNodes() / 9) {
		if v != sc.Dest && !slices.ContainsFunc(sc.Team, func(a vessel.Asset) bool { return a.Source == v }) {
			sc.Obstacles = append(sc.Obstacles, v)
		}
	}
	m, err := sim.NewMission(sc, sim.RunOptions{})
	if err != nil {
		b.Fatal(err)
	}
	k := m.Knowledge(0)
	k.SensedCount = 0
	for v := range k.Sensed {
		u := grid.NodeID(v)
		k.Sensed[v] = true
		for j := 1; j < m.NumAssets(); j++ {
			if g.Distance(k.LastKnown[j], u) < g.Distance(m.Cur(0), u) {
				k.Sensed[v] = false
			}
		}
		if k.Sensed[v] {
			k.SensedCount++
		}
	}
	return m
}

// BenchmarkHopOrderCold measures the breadth-first walks a first plan pays
// on a cold grid: 100 walks of 100 nodes, from sources spread over a freshly
// generated CaribbeanGrid(1), through one grid.HopOrder. "memo" walks avoid
// nothing, so each walk searches and the next Start publishes what it
// found; "alone" avoids one node, as a mission with obstacles does, so
// every walk searches on its own scratch and publishes nothing. Generating
// the grid is outside the timer.
func BenchmarkHopOrderCold(b *testing.B) {
	for _, name := range []string{"memo", "alone"} {
		b.Run(name, func(b *testing.B) {
			var w grid.HopOrder
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g, err := grid.CaribbeanGrid(1)
				if err != nil {
					b.Fatal(err)
				}
				var avoid map[grid.NodeID]bool
				if name == "alone" {
					avoid = map[grid.NodeID]bool{grid.NodeID(g.NumNodes() - 1): true}
				}
				b.StartTimer()
				for s := 0; s < 100; s++ {
					w.Start(g, grid.NodeID(s*g.NumNodes()/100), avoid)
					for k := 0; k < 100 && w.Next() != grid.None; k++ {
					}
				}
			}
		})
	}
}

// BenchmarkThetaContext measures priming one LM feature context, whose
// cost is θ's hop search over the other assets' believed nodes, for a
// 6-asset team at its sources on the Caribbean mesh.
func BenchmarkThetaContext(b *testing.B) {
	g, err := grid.CaribbeanGrid(5)
	if err != nil {
		b.Fatal(err)
	}
	sc, err := approx.TrainingScenario(g, 6, 3, 1.2, 3)
	if err != nil {
		b.Fatal(err)
	}
	m, err := sim.NewMission(sc, sim.RunOptions{})
	if err != nil {
		b.Fatal(err)
	}
	ext := features.New()
	var c features.NodeContext
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ext.LMContextInto(&c, m, i%len(sc.Team), features.NoDest)
	}
}

// BenchmarkAblation runs the deployment-mechanism ablation study: the full
// Approx-MaMoRL planner against variants with one mechanism disabled each
// (frontier fallback, Voronoi partitioning, right of way, stall watchdog,
// TMM blocking). Not in the paper — it quantifies the design choices
// DESIGN.md §2 documents.
func BenchmarkAblation(b *testing.B) {
	h := harness(b)
	p := benchParams()
	p.Assets = 6
	p.Parallel = parallelism()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := h.RunAblation(context.Background(), p)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Variant == "full" {
				b.ReportMetric(float64(r.Stats.FoundRuns)/float64(r.Stats.Runs), "full_found_rate")
			}
			if r.Variant == "no-frontier" {
				b.ReportMetric(float64(r.Stats.FoundRuns)/float64(r.Stats.Runs), "no_frontier_found_rate")
			}
		}
	}
}

// BenchmarkNavigatorStep measures one rendezvous transit decision.
func BenchmarkNavigatorStep(b *testing.B) {
	g, err := grid.GenerateSynthetic(grid.SyntheticConfig{Nodes: 400, Edges: 846, MaxOutDegree: 9, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	sc, err := approx.TrainingScenario(g, 3, 3, 1.2, 3)
	if err != nil {
		b.Fatal(err)
	}
	m, err := sim.NewMission(sc, sim.RunOptions{})
	if err != nil {
		b.Fatal(err)
	}
	var nv sim.Navigator
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = nv.Step(m, i%3, sc.Dest)
	}
}

// BenchmarkWeatherFields measures environmental field evaluation (issued
// once per asset move).
func BenchmarkWeatherFields(b *testing.B) {
	g, err := grid.GenerateSynthetic(grid.SyntheticConfig{Nodes: 200, Edges: 430, MaxOutDegree: 8, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	bounds := g.Bounds()
	field := weather.Compose{
		weather.Gyre{Center: bounds.Center(), Radius: bounds.Width() / 3, Strength: 0.4},
		weather.Storms{Cells: []weather.StormCell{
			{Center: bounds.Center(), Radius: bounds.Width() / 4, Slowdown: 0.4},
		}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := grid.NodeID(i % g.NumNodes())
		e := g.Neighbors(v)[0]
		_ = field.SpeedFactor(g, v, e.To, float64(i))
	}
}

// BenchmarkMissionStep measures one full simulator epoch (3 assets moving,
// sensing, communicating).
func BenchmarkMissionStep(b *testing.B) {
	g, err := grid.GenerateSynthetic(grid.SyntheticConfig{Nodes: 400, Edges: 846, MaxOutDegree: 9, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	sc, err := approx.TrainingScenario(g, 3, 3, 1.2, 3)
	if err != nil {
		b.Fatal(err)
	}
	sc.MaxSteps = 1 << 30
	m, err := sim.NewMission(sc, sim.RunOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Done() {
			b.StopTimer()
			m, err = sim.NewMission(sc, sim.RunOptions{})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		acts := make([]sim.Action, 3)
		for j := range acts {
			legal := m.LegalActionsFor(j)
			acts[j] = legal[i%len(legal)]
		}
		if _, err := m.ExecuteStep(acts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCatalogDecide measures one Decide served through the planner
// catalog. The hot case is the steady state of a resident tenant: Acquire is
// a map hit, and Do builds the request's planner. With one Decide per Do,
// that build's math/rand reseed dominates; a mission pays it once, not once
// per Decide. The cold case reinstalls the grid before every Acquire, which
// evicts its entry, so every Acquire misses and loads — the churn of a
// tenant whose grid keeps being replaced.
func BenchmarkCatalogDecide(b *testing.B) {
	h := harness(b)
	g, err := grid.GenerateSynthetic(grid.SyntheticConfig{Nodes: 400, Edges: 846, MaxOutDegree: 9, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	sc, err := approx.TrainingScenario(g, 4, 5, 1.2, 3)
	if err != nil {
		b.Fatal(err)
	}
	m, err := sim.NewMission(sc, sim.RunOptions{})
	if err != nil {
		b.Fatal(err)
	}
	loader := func(context.Context, string) (*catalog.ModelArtifact, error) {
		return &catalog.ModelArtifact{Model: h.Linear, Ext: h.Pipe.Extractor}, nil
	}
	ctx := context.Background()
	decideVia := func(b *testing.B, cat *catalog.Catalog, key catalog.Key, i int) {
		ent, err := cat.Acquire(ctx, key)
		if err != nil {
			b.Fatal(err)
		}
		defer ent.Release()
		if err := ent.Do(ctx, 1, func(_ context.Context, pl *approx.Planner) error {
			_ = pl.Decide(m, i%len(sc.Team))
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("hot", func(b *testing.B) {
		cat := catalog.New(catalog.Options{LoadModel: loader})
		defer cat.Close()
		cat.InstallGrid("bench", g)
		decideVia(b, cat, catalog.Key{Grid: "bench"}, 0) // warm the entry
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			decideVia(b, cat, catalog.Key{Grid: "bench"}, i)
		}
	})
	b.Run("cold", func(b *testing.B) {
		cat := catalog.New(catalog.Options{LoadModel: loader})
		defer cat.Close()
		cat.InstallGrid("churn", g)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cat.InstallGrid("churn", g)
			decideVia(b, cat, catalog.Key{Grid: "churn"}, i)
		}
	})
}

// BenchmarkServePlan measures one POST /api/plan round trip in process,
// through Server.Handler().ServeHTTP: the JSON decode, admission, the
// approx mission with its trace spans, and the response encode. Requests
// are drawn the way planbench's plan-hot draws them: CaribbeanGrid(1), 2–6
// assets with max speed 3–5 and sensing radius 1.2 mean edge weights at
// distinct sources, and a destination. Every request is served once before
// the timer starts, so the catalog entry and the grid fingerprint are warm.
// memo_kb is the size of the grid's breadth-first order memo at the end.
func BenchmarkServePlan(b *testing.B) {
	srv, err := tmplar.NewServerOpts(1, tmplar.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	g, err := grid.CaribbeanGrid(1)
	if err != nil {
		b.Fatal(err)
	}
	if !g.StronglyConnected() {
		b.Fatal("every source must reach every destination")
	}
	srv.InstallGrid(g)
	h := srv.Handler()
	serve := func(body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/plan", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("plan: %d %s", rec.Code, rec.Body.String())
		}
	}
	rng := rand.New(rand.NewSource(1))
	radius := 1.2 * g.AvgEdgeWeight()
	bodies := make([][]byte, 64)
	for k := range bodies {
		nodes := rng.Perm(g.NumNodes())[:3+rng.Intn(5)] // destination, then 2–6 sources
		req := tmplar.PlanRequest{Grid: g.Name(), Destination: int32(nodes[0]), Seed: int64(k + 1)}
		for _, v := range nodes[1:] {
			req.Assets = append(req.Assets, tmplar.AssetSpec{Source: int32(v), SensingRadius: radius, MaxSpeed: 3 + rng.Intn(3)})
		}
		if bodies[k], err = json.Marshal(req); err != nil {
			b.Fatal(err)
		}
		serve(bodies[k])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(bodies[i%len(bodies)])
	}
	b.StopTimer()
	b.ReportMetric(float64(g.HopOrderBytes())/1024, "memo_kb")
}

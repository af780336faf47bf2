// Allocation regression tests for the planner hot path. The deployed
// Approx-MaMoRL planner makes one Decide call per asset per epoch; before the
// scratch-buffer rework it allocated ~36 objects per call (blocked map, alpha
// map, features slice, legal-action slice, sensing result). These tests pin
// the reworked numbers so a future change cannot quietly reintroduce per-call
// garbage.
package mamorl_test

import (
	"testing"

	"github.com/routeplanning/mamorl/internal/approx"
	"github.com/routeplanning/mamorl/internal/baselines"
	"github.com/routeplanning/mamorl/internal/experiments"
	"github.com/routeplanning/mamorl/internal/graphalg"
	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/limits"
	"github.com/routeplanning/mamorl/internal/sim"
)

// harnessT is the *testing.T twin of harness, sharing the once-trained
// sample source with the benchmarks.
func harnessT(t *testing.T) *experiments.Harness {
	t.Helper()
	benchOnce.Do(func() {
		benchH, benchHarnErr = experiments.NewHarness(approx.TrainConfig{Seed: 1})
	})
	if benchHarnErr != nil {
		t.Fatalf("harness: %v", benchHarnErr)
	}
	return benchH
}

func allocFixture(t *testing.T) (*sim.Mission, *approx.Planner, int) {
	t.Helper()
	h := harnessT(t)
	m := decisionMission(t)
	return m, approx.NewPlanner(h.Linear, h.Pipe.Extractor, 1), m.NumAssets()
}

// decisionMission is a fresh 4-asset mission on a 400-node synthetic grid,
// the fixture of the Decide alloc pins and of BenchmarkFrontierStep.
func decisionMission(tb testing.TB) *sim.Mission {
	tb.Helper()
	g, err := grid.GenerateSynthetic(grid.SyntheticConfig{Nodes: 400, Edges: 846, MaxOutDegree: 9, Seed: 2})
	if err != nil {
		tb.Fatal(err)
	}
	sc, err := approx.TrainingScenario(g, 4, 5, 1.2, 3)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := sim.NewMission(sc, sim.RunOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// TestDecideAllocs: a warmed planner must not allocate per Decide call. The
// scratch buffers, the memoized sensing balls and the planner's frontier
// search are all reused, and after 64 warm-up calls at a fixed mission state
// the stall watchdog routes every call through the frontier fallback too.
func TestDecideAllocs(t *testing.T) {
	m, pl, n := allocFixture(t)
	for i := 0; i < 64; i++ { // warm scratch buffers across all assets
		_ = pl.Decide(m, i%n)
	}
	i := 0
	avg := testing.AllocsPerRun(256, func() {
		_ = pl.Decide(m, i%n)
		i++
	})
	if avg != 0 {
		t.Fatalf("Decide allocates %.2f objects/call on average, want 0 (was ~36 before the scratch rework)", avg)
	}
}

// TestDecideFrontierAllocs: a Decide forced onto the frontier fallback must
// not allocate either. Every asset believes every node sensed except the one
// farthest from asset 0, so no candidate move senses anything new and the
// frontier search crosses most of the grid on each call.
func TestDecideFrontierAllocs(t *testing.T) {
	m, pl, n := allocFixture(t)
	senseAllBut(m, farthestFrom(m.Grid(), m.Cur(0)))
	for i := 0; i < 64; i++ {
		_ = pl.Decide(m, i%n)
	}
	i := 0
	avg := testing.AllocsPerRun(256, func() {
		_ = pl.Decide(m, i%n)
		i++
	})
	if avg != 0 {
		t.Fatalf("frontier-path Decide allocates %.2f objects/call on average, want 0", avg)
	}
}

// senseAllBut rewrites every asset's knowledge so that all nodes except
// keep are sensed: a mission deep into its search, built without playing
// one out.
func senseAllBut(m *sim.Mission, keep grid.NodeID) {
	for i := 0; i < m.NumAssets(); i++ {
		k := m.Knowledge(i)
		for v := range k.Sensed {
			k.Sensed[v] = grid.NodeID(v) != keep
		}
		k.SensedCount = len(k.Sensed) - 1
	}
}

// farthestFrom returns the node with the largest hop distance from v.
func farthestFrom(g *grid.Grid, v grid.NodeID) grid.NodeID {
	hops := graphalg.HopDistances(g, v)
	far := v
	for u, d := range hops {
		if d > hops[far] {
			far = grid.NodeID(u)
		}
	}
	return far
}

// TestDecideWithBudgetAllocs: attaching a resource budget must add zero
// allocations to the Decide hot path — Charge is atomic-add accounting on a
// preallocated object, with the nil-receiver fast path covering the
// no-budget configuration (pinned separately in internal/limits).
func TestDecideWithBudgetAllocs(t *testing.T) {
	m, pl, n := allocFixture(t)
	pl.SetBudget(limits.New(limits.Limits{Nodes: 1 << 40}))
	for i := 0; i < 64; i++ {
		_ = pl.Decide(m, i%n)
	}
	i := 0
	avg := testing.AllocsPerRun(256, func() {
		_ = pl.Decide(m, i%n)
		i++
	})
	if avg != 0 {
		t.Fatalf("budgeted Decide allocates %.2f objects/call on average, want 0 (same pin as unbudgeted)", avg)
	}
}

// TestAppendLegalActionsForAllocs: the append variant with a warmed reusable
// buffer must not allocate at all.
func TestAppendLegalActionsForAllocs(t *testing.T) {
	m, _, n := allocFixture(t)
	buf := make([]sim.Action, 0, 64)
	i := 0
	avg := testing.AllocsPerRun(256, func() {
		buf = m.AppendLegalActionsFor(buf[:0], i%n)
		i++
	})
	if avg != 0 {
		t.Fatalf("AppendLegalActionsFor allocates %.2f objects/call, want 0", avg)
	}
}

// TestSensingQueryAllocs: once one pass over all nodes has filled the
// grid's ball table, ForEachWithinRadius must not allocate and WithinRadius
// must allocate only its exact-size result. A radius past the table limit
// scans the spatial index instead, also without allocating.
func TestSensingQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool bypass its cache, inflating the count")
	}
	g, err := grid.CaribbeanGrid(5)
	if err != nil {
		t.Fatal(err)
	}
	r := 1.5 * g.AvgEdgeWeight()
	n := g.NumNodes()
	for v := 0; v < n; v++ {
		g.ForEachWithinRadius(grid.NodeID(v), r, func(grid.NodeID) {})
	}

	i := 0
	avg := testing.AllocsPerRun(256, func() {
		_ = g.WithinRadius(grid.NodeID(i%n), r)
		i++
	})
	if avg > 1 {
		t.Fatalf("WithinRadius allocates %.2f objects/call, want <= 1 (result slice only)", avg)
	}

	i = 0
	avg = testing.AllocsPerRun(256, func() {
		g.ForEachWithinRadius(grid.NodeID(i%n), r, func(grid.NodeID) {})
		i++
	})
	if avg != 0 {
		t.Fatalf("ForEachWithinRadius allocates %.2f objects/call, want 0", avg)
	}

	// Three more radii fill the grid's table limit; a fifth falls back.
	for k := 2; k <= 4; k++ {
		g.ForEachWithinRadius(0, float64(k)*g.AvgEdgeWeight(), func(grid.NodeID) {})
	}
	fallback := 1.25 * g.AvgEdgeWeight()
	i = 0
	avg = testing.AllocsPerRun(256, func() {
		g.ForEachWithinRadius(grid.NodeID(i%n), fallback, func(grid.NodeID) {})
		i++
	})
	if avg != 0 {
		t.Fatalf("ForEachWithinRadius past the table limit allocates %.2f objects/call, want 0", avg)
	}
}

// TestScenarioValidateAllocs: without obstacles on a strongly connected
// grid, Validate needs no reachability BFS, so it allocates nothing; the
// check a served plan request passes two or three times costs no garbage.
func TestScenarioValidateAllocs(t *testing.T) {
	g, err := grid.CaribbeanGrid(5)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := approx.TrainingScenario(g, 6, 3, 1.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !g.StronglyConnected() || len(sc.Obstacles) > 0 {
		t.Fatal("fixture must be an obstacle-free scenario on a strongly connected grid")
	}
	avg := testing.AllocsPerRun(256, func() {
		if err := sc.Validate(); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("Validate allocates %.2f objects/call, want 0", avg)
	}
}

// TestRandomWalkDecideAllocs: the random walk enumerates its legal actions
// into a reused buffer, so a warmed Decide allocates nothing.
func TestRandomWalkDecideAllocs(t *testing.T) {
	m := decisionMission(t)
	pl := baselines.NewRandomWalk(1)
	n := m.NumAssets()
	for i := 0; i < 64; i++ {
		_ = pl.Decide(m, i%n)
	}
	i := 0
	avg := testing.AllocsPerRun(256, func() {
		_ = pl.Decide(m, i%n)
		i++
	})
	if avg != 0 {
		t.Fatalf("random-walk Decide allocates %.2f objects/call, want 0", avg)
	}
}

// TestExactDecideAllocs pins exact MaMoRL's greedy Decide on the
// BenchmarkExactDecide fixture at zero allocations: its legal actions,
// believed joint state, per-teammate slices and believed-occupied set live
// in planner scratch, and reading an unvisited state's teammate
// distribution returns the table's shared uniform default instead of
// storing one.
func TestExactDecideAllocs(t *testing.T) {
	pl, m := exactFixture(t)
	for i := 0; i < 64; i++ {
		_ = pl.Decide(m, i%2)
	}
	i := 0
	avg := testing.AllocsPerRun(256, func() {
		_ = pl.Decide(m, i%2)
		i++
	})
	if avg != 0 {
		t.Fatalf("exact Decide allocates %.2f objects/call, want 0", avg)
	}
}

// TestExactObserveAllocs pins exact MaMoRL's LM/TMM update on the same
// fixture at zero allocations. One step is executed and observed, which
// stores its P and Q entries; replaying that transition then only
// rewrites them, and Observe's joint states, action counts and indices
// live in planner scratch.
func TestExactObserveAllocs(t *testing.T) {
	pl, m := exactFixture(t)
	acts := []sim.Action{pl.Decide(m, 0), pl.Decide(m, 1)}
	prev := m.CurAll()
	r, err := m.ExecuteStep(acts)
	if err != nil {
		t.Fatal(err)
	}
	pl.Observe(m, prev, acts, r)
	if avg := testing.AllocsPerRun(256, func() { pl.Observe(m, prev, acts, r) }); avg != 0 {
		t.Fatalf("exact Observe allocates %.2f objects/call, want 0", avg)
	}
}

// TestExactTrainAllocs bounds one exact training run, the
// BenchmarkExactTrain instance. Learned joint states share one index map,
// their slots come in chunks, and new Q rows and stored P distributions
// are carved from chunked arenas, so what remains is mostly rows grown
// past two entries: a map per asset, or a row grown from nil, would add
// thousands.
func TestExactTrainAllocs(t *testing.T) {
	run := exactTrainRun(t)
	// 1,922 on go1.24; the margin absorbs map growth, whose splits
	// depend on the map's hash seed.
	if avg := testing.AllocsPerRun(2, run); avg > 2000 {
		t.Fatalf("one exact training run allocates %.0f objects, want <= 2000 (12,227 with P and Q maps per asset and rows grown from nil)", avg)
	}
}

// TestGenerateSyntheticAllocs bounds one table6Largest grid. The candidate
// lists of all nodes share one slab, k-selection allocates nothing, the
// Builder carves each node's arc list from a chunk, and Build lays all
// out- and in-lists in two slabs.
func TestGenerateSyntheticAllocs(t *testing.T) {
	avg := testing.AllocsPerRun(3, func() {
		if _, err := grid.GenerateSynthetic(table6Largest(1)); err != nil {
			t.Fatal(err)
		}
	})
	// 842 on go1.24 (7,351 with a map per node, a sort.Slice swapper
	// per node and in-lists grown by append; 8,050 with a fresh slice per
	// node's candidates too).
	if avg > 870 {
		t.Fatalf("GenerateSynthetic allocates %.0f objects, want <= 870", avg)
	}
}

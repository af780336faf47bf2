package experiments

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/neural"
)

// cachedParams is smallParams with 2 runs and an instance cache the test can
// read back after handing the Params to a driver.
func cachedParams() (Params, *instanceCache) {
	p := smallParams()
	p.Runs = 2
	p.Episodes = 2 // keep the exact-MaMoRL cells cheap
	p.instances = newInstanceCache()
	return p, p.instances
}

// requireCounts checks how many grids c generated and how many times it was
// asked for one.
func requireCounts(t *testing.T, label string, c *instanceCache, builds, requests int64) {
	t.Helper()
	if got := c.builds.Load(); got != builds {
		t.Errorf("%s: %d grids built, want %d", label, got, builds)
	}
	if got := c.requests.Load(); got != requests {
		t.Errorf("%s: %d grid requests, want %d", label, got, requests)
	}
}

// TestTable6BuildsEachInstanceOnce: a Table 6 call over two blocks × 2 runs
// generates 4 grids, one per (block, run), whatever the parallelism, and
// every algorithm's run r on a block asks for — and gets — that block's run-r
// grid.
func TestTable6BuildsEachInstanceOnce(t *testing.T) {
	h := harness(t)
	for _, parallel := range []int{1, 8} {
		t.Run(fmt.Sprintf("parallel=%d", parallel), func(t *testing.T) {
			base, c := cachedParams()
			other := base
			other.Nodes, other.Edges, other.MaxOutDegree = 100, 210, 6
			blocks := []Table6Scenario{{Label: "a", Params: base}, {Label: "b", Params: other}}
			rows, err := h.runTable6(context.Background(), blocks, limiterFor(Params{Parallel: parallel}))
			if err != nil {
				t.Fatalf("runTable6: %v", err)
			}
			if len(rows) != 2*len(AllAlgorithms) {
				t.Fatalf("%d rows, want %d", len(rows), 2*len(AllAlgorithms))
			}
			requireCounts(t, "table 6", c, 4, int64(2*len(AllAlgorithms)*base.Runs))
			if len(c.byCfg) != 4 {
				t.Fatalf("%d cached instances, want 4", len(c.byCfg))
			}
			// Every run's scenario is built around the cached grid of its
			// key, and nothing is generated again.
			for _, b := range blocks {
				for run := 0; run < b.Params.Runs; run++ {
					sc, err := scenarioFor(b.Params, run)
					if err != nil {
						t.Fatal(err)
					}
					cfg := grid.SyntheticConfig{Nodes: b.Params.Nodes, Edges: b.Params.Edges,
						MaxOutDegree: b.Params.MaxOutDegree, Seed: b.Params.Seed + int64(run)*7919}
					if in := c.byCfg[cfg]; in == nil || sc.Grid != in.g {
						t.Errorf("block %s run %d: scenario grid is not the cached instance", b.Label, run)
					}
				}
			}
			requireCounts(t, "table 6 and lookups", c, 4, int64(2*len(AllAlgorithms)*base.Runs+4))
		})
	}
}

// TestScenarioForSharesGridNotTeam: two requests for the same run share the
// grid but each gets its own team, and the grid arrives with its sensing
// balls at the team's radius filled for every node, so no run pays a cold
// fill.
func TestScenarioForSharesGridNotTeam(t *testing.T) {
	p, c := cachedParams()
	a, err := scenarioFor(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scenarioFor(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Grid != b.Grid {
		t.Error("two requests for run 1 got different grids")
	}
	if &a.Team[0] == &b.Team[0] {
		t.Error("two requests for run 1 share one Team slice")
	}
	other, err := scenarioFor(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if other.Grid == a.Grid {
		t.Error("runs 0 and 1 share a grid")
	}
	requireCounts(t, "scenarioFor", c, 2, 3)

	// A cold ball fill allocates its ball; a warmed table allocates nothing.
	g, r := a.Grid, a.Team[0].SensingRadius
	v := 0
	if avg := testing.AllocsPerRun(g.NumNodes(), func() {
		g.ForEachWithinRadius(grid.NodeID(v%g.NumNodes()), r, func(grid.NodeID) {})
		v++
	}); avg != 0 {
		t.Errorf("sensing queries on a cached instance allocate %.2f objects/call: its ball table was not warmed", avg)
	}
}

// TestInstanceCacheConcurrentRequests: leaves that ask for one key at once
// wait for a single build and all get its grid.
func TestInstanceCacheConcurrentRequests(t *testing.T) {
	p, c := cachedParams()
	const n = 16
	grids := make([]*grid.Grid, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sc, err := scenarioFor(p, 0)
			grids[i], errs[i] = sc.Grid, err
		}(i)
	}
	wg.Wait()
	for i := range grids {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if grids[i] != grids[0] {
			t.Fatalf("request %d got a different grid than request 0", i)
		}
	}
	requireCounts(t, "concurrent requests", c, 1, n)
}

// TestLeafPathsReuseRunOneInstances: the ablation leaf, Figure 3's NN leaf
// and comm range's radio sizing take their grids from the same cache keys as
// the runOne runs of the call, so none of them generates a grid of its own.
func TestLeafPathsReuseRunOneInstances(t *testing.T) {
	h := harness(t)
	ctx := context.Background()

	t.Run("ablation", func(t *testing.T) {
		p, c := cachedParams()
		p.Parallel = 8
		if _, err := h.Evaluate(ctx, AlgoApprox, p); err != nil {
			t.Fatal(err)
		}
		if _, err := h.RunAblation(ctx, p); err != nil {
			t.Fatal(err)
		}
		requireCounts(t, "evaluate + ablation", c, int64(p.Runs), int64(p.Runs*(1+len(AblationVariants()))))
	})

	t.Run("figure3", func(t *testing.T) {
		p, c := cachedParams()
		p.Parallel = 8
		nn := neural.TrainOptions{Epochs: 5, BatchSize: 128, LearningRate: 0.05}
		if _, err := h.RunFigure3(ctx, p, nn, 5); err != nil {
			t.Fatal(err)
		}
		requireCounts(t, "figure 3", c, int64(p.Runs), int64(2*p.Runs))
	})

	t.Run("commrange", func(t *testing.T) {
		p, c := cachedParams()
		p.Parallel = 8
		if _, err := h.RunCommRange(ctx, p, []float64{0, 3}); err != nil {
			t.Fatal(err)
		}
		// Two factors' runs plus the sized factor's run-0 lookup.
		requireCounts(t, "comm range", c, int64(p.Runs), int64(2*p.Runs+1))
	})
}

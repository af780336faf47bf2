package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/routeplanning/mamorl/internal/geo"
	"github.com/routeplanning/mamorl/internal/graphalg"
	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/vessel"
)

// validateOracle checks a scenario the way Validate did before its one-pass
// reachability check: one graphalg.ReachableAvoiding BFS per source against
// an obstacle map. It reports out-of-grid obstacles in list order.
func validateOracle(sc Scenario) error {
	if err := sc.Team.Validate(); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	n := grid.NodeID(sc.Grid.NumNodes())
	if sc.Dest < 0 || sc.Dest >= n {
		return fmt.Errorf("scenario: destination %d outside grid of %d nodes", sc.Dest, n)
	}
	obstacles := map[grid.NodeID]bool{}
	for _, v := range sc.Obstacles {
		if v < 0 || v >= n {
			return fmt.Errorf("scenario: obstacle %d outside grid", v)
		}
		obstacles[v] = true
	}
	if obstacles[sc.Dest] {
		return fmt.Errorf("scenario: destination %d is an obstacle", sc.Dest)
	}
	avoid := func(v grid.NodeID) bool { return obstacles[v] }
	for _, a := range sc.Team {
		if a.Source >= n {
			return fmt.Errorf("scenario: asset %d source %d outside grid", a.ID, a.Source)
		}
		if obstacles[a.Source] {
			return fmt.Errorf("scenario: asset %d starts on obstacle %d", a.ID, a.Source)
		}
		if !graphalg.ReachableAvoiding(sc.Grid, a.Source, sc.Dest, avoid) {
			return fmt.Errorf("scenario: destination %d unreachable from asset %d at %d (obstacles considered)",
				sc.Dest, a.ID, a.Source)
		}
	}
	return nil
}

// randomArcGrid builds an n-node planar grid whose nodes each get one to
// three one-way arcs to random nodes, so reachability is not symmetric.
func randomArcGrid(rng *rand.Rand, n int) *grid.Grid {
	b := grid.NewBuilder("arcs", geo.Planar)
	for i := 0; i < n; i++ {
		b.AddNode(geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10})
	}
	for v := 0; v < n; v++ {
		for k := 1 + rng.Intn(3); b.OutDegree(grid.NodeID(v)) < k; {
			b.AddArc(grid.NodeID(v), grid.NodeID(rng.Intn(n)))
		}
	}
	return b.MustBuild()
}

// TestValidateMatchesPerSourceOracle checks the one-pass Validate against
// the per-source BFS on random grids (one-way arcs and symmetric synthetic
// ones) with random obstacles, sources and destinations: the same error,
// message included, or nil on both sides. Every fourth trial drops its
// obstacles, so both of Validate's reachability branches are covered: the
// fast path (no obstacles on a strongly connected grid) and the BFS.
func TestValidateMatchesPerSourceOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	kinds := map[string]int{}
	branches := map[string]int{}
	for trial := 0; trial < 400; trial++ {
		var g *grid.Grid
		if trial%3 == 0 {
			n := 40 + rng.Intn(60)
			var err error
			g, err = grid.GenerateSynthetic(grid.SyntheticConfig{Nodes: n, Edges: n * 21 / 10, MaxOutDegree: 6, Seed: int64(trial)})
			if err != nil {
				t.Fatal(err)
			}
		} else {
			g = randomArcGrid(rng, 8+rng.Intn(40))
		}
		n := g.NumNodes()
		sc := Scenario{Grid: g, Dest: grid.NodeID(rng.Intn(n))}
		if rng.Intn(20) == 0 {
			sc.Dest = grid.NodeID(n + rng.Intn(3))
		}
		for k := rng.Intn(n / 2); k > 0; k-- {
			sc.Obstacles = append(sc.Obstacles, grid.NodeID(rng.Intn(n)))
		}
		if rng.Intn(10) == 0 {
			sc.Obstacles = append(sc.Obstacles, grid.NodeID(n+rng.Intn(3)))
		}
		var sources []grid.NodeID
		for _, v := range rng.Perm(n)[:1+rng.Intn(4)] {
			sources = append(sources, grid.NodeID(v))
		}
		if rng.Intn(10) == 0 {
			sources[rng.Intn(len(sources))] = grid.NodeID(n + rng.Intn(3))
		}
		sc.Team = vessel.NewTeam(sources, 1, 2)
		if trial%4 == 1 {
			sc.Obstacles = nil
		}
		if sc.Team.Validate() == nil && sc.Dest >= 0 && int(sc.Dest) < n {
			if len(sc.Obstacles) == 0 && g.StronglyConnected() {
				branches["fast"]++
			} else {
				branches["bfs"]++
			}
		}

		got, want := sc.Validate(), validateOracle(sc)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: Validate = %v, per-source oracle = %v", trial, got, want)
		}
		switch {
		case got == nil:
			kinds["ok"]++
		case strings.Contains(got.Error(), "unreachable"):
			kinds["unreachable"]++
		default:
			kinds["other"]++
		}
	}
	t.Logf("outcomes: %v, reachability branches: %v", kinds, branches)
	for _, k := range []string{"ok", "unreachable", "other"} {
		if kinds[k] < 20 {
			t.Errorf("only %d trials ended %q; the generator no longer covers that case (%v)", kinds[k], k, kinds)
		}
	}
	for _, k := range []string{"fast", "bfs"} {
		if branches[k] < 20 {
			t.Errorf("only %d trials took Validate's %s branch (%v)", branches[k], k, branches)
		}
	}
}

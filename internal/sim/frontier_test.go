package sim

import (
	"math/rand"
	"testing"

	"github.com/routeplanning/mamorl/internal/graphalg"
	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/vessel"
)

// TestFrontierSearchReuse runs one FrontierSearch on a larger grid, then a
// smaller one, then the larger again. At every step of each mission it must
// return what a fresh search returns, with detours forced by blocking every
// third node and Voronoi partitioning switched on every other step.
func TestFrontierSearchReuse(t *testing.T) {
	large, err := grid.GenerateSynthetic(grid.SyntheticConfig{Nodes: 300, Edges: 640, MaxOutDegree: 8, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	small, err := grid.GenerateSynthetic(grid.SyntheticConfig{Nodes: 60, Edges: 130, MaxOutDegree: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	blocked := func(v grid.NodeID) bool { return v%3 == 0 }
	var f FrontierSearch
	for pass, g := range []*grid.Grid{large, small, large} {
		sources := []grid.NodeID{1, grid.NodeID(g.NumNodes() / 2), grid.NodeID(g.NumNodes() - 1)}
		// The destination is the node farthest in hops from every source.
		var hops [][]int
		for _, s := range sources {
			hops = append(hops, graphalg.HopDistances(g, s))
		}
		dest, far := grid.None, -1
		for v := 0; v < g.NumNodes(); v++ {
			near := g.NumNodes()
			for _, h := range hops {
				if h[v] < near {
					near = h[v]
				}
			}
			if near > far {
				dest, far = grid.NodeID(v), near
			}
		}
		sc := Scenario{Grid: g, Team: vessel.NewTeam(sources, 2*g.AvgEdgeWeight(), 3), Dest: dest, CommEvery: 4}
		m, err := NewMission(sc, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		prev := make([]grid.NodeID, len(sources))
		for i := range prev {
			prev[i] = grid.None
		}
		steps := 0
		for ; steps < 60 && !m.Done(); steps++ {
			acts := make([]Action, len(sources))
			for i := range acts {
				voronoi := steps%2 == 0
				want, wantOK := FrontierStep(m, i, blocked, nil, prev[i], rand.New(rand.NewSource(int64(steps))), voronoi)
				got, gotOK := f.Step(m, i, blocked, nil, prev[i], rand.New(rand.NewSource(int64(steps))), voronoi)
				if got != want || gotOK != wantOK {
					t.Fatalf("pass %d step %d asset %d: reused search %v/%v, fresh %v/%v", pass, steps, i, got, gotOK, want, wantOK)
				}
				acts[i] = want
				prev[i] = m.Cur(i)
			}
			if _, err := m.ExecuteStep(acts); err != nil {
				t.Fatal(err)
			}
		}
		if steps < 10 {
			t.Fatalf("pass %d: mission ended after %d steps; the fixture exercises too little", pass, steps)
		}
	}
}

package graphalg

import (
	"math"
	"math/rand"
	"testing"

	"github.com/routeplanning/mamorl/internal/grid"
)

func mustSynthetic(t *testing.T, seed int64) *grid.Grid {
	t.Helper()
	g, err := grid.GenerateSynthetic(grid.SyntheticConfig{
		Nodes: 40, Edges: 85, MaxOutDegree: 6, Seed: seed,
	})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return g
}

// TestReverseTreeAgainstFloydWarshall: Dist[v] of a reverse tree toward
// target must equal the forward v→target distance for every v.
func TestReverseTreeAgainstFloydWarshall(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		g := mustSynthetic(t, seed)
		oracle := floydWarshall(g)
		for target := 0; target < g.NumNodes(); target += 7 {
			tree := ReverseTreeAvoiding(g, grid.NodeID(target), nil)
			for v := 0; v < g.NumNodes(); v++ {
				want := oracle[v][target]
				got := tree.Dist[v]
				if math.IsInf(want, 1) != !tree.Reaches(grid.NodeID(v)) {
					t.Fatalf("seed %d target %d: reachability of %d disagrees", seed, target, v)
				}
				if !math.IsInf(want, 1) && math.Abs(got-want) > 1e-9 {
					t.Fatalf("seed %d: Dist[%d→%d] = %v, oracle %v", seed, v, target, got, want)
				}
			}
		}
	}
}

// TestReverseTreeNextWalksShortestPath: following Next from any node must
// reach the target over edges summing exactly to Dist.
func TestReverseTreeNextWalksShortestPath(t *testing.T) {
	g := mustSynthetic(t, 4)
	target := grid.NodeID(11)
	tree := ReverseTreeAvoiding(g, target, nil)
	for v := 0; v < g.NumNodes(); v++ {
		if !tree.Reaches(grid.NodeID(v)) {
			continue
		}
		total := 0.0
		cur := grid.NodeID(v)
		for steps := 0; cur != target; steps++ {
			if steps > g.NumNodes() {
				t.Fatalf("Next walk from %d does not terminate", v)
			}
			next := tree.Next[cur]
			w := math.Inf(1)
			for _, e := range g.Neighbors(cur) {
				if e.To == next && e.Weight < w {
					w = e.Weight
				}
			}
			if math.IsInf(w, 1) {
				t.Fatalf("Next[%d] = %d is not an out-neighbor", cur, next)
			}
			total += w
			cur = next
		}
		if math.Abs(total-tree.Dist[v]) > 1e-9 {
			t.Fatalf("walk from %d sums to %v, Dist says %v", v, total, tree.Dist[v])
		}
	}
}

// TestReverseTreeMultiNearestTarget: with several targets, Dist[v] must be
// the minimum forward distance over all of them.
func TestReverseTreeMultiNearestTarget(t *testing.T) {
	g := mustSynthetic(t, 5)
	oracle := floydWarshall(g)
	targets := []grid.NodeID{3, 17, 29}
	tree := ReverseTreeMulti(g, targets, nil)
	for v := 0; v < g.NumNodes(); v++ {
		want := math.Inf(1)
		for _, tg := range targets {
			if d := oracle[v][int(tg)]; d < want {
				want = d
			}
		}
		got := tree.Dist[v]
		if math.IsInf(want, 1) != math.IsInf(got, 1) {
			t.Fatalf("reachability of %d disagrees with oracle", v)
		}
		if !math.IsInf(want, 1) && math.Abs(got-want) > 1e-9 {
			t.Fatalf("Dist[%d] = %v, want min over targets %v", v, got, want)
		}
	}
}

// TestReverseTreeAvoiding: avoided nodes are neither relaxed through nor
// used as targets, matching DijkstraAvoiding's forward behavior.
func TestReverseTreeAvoidingMatchesForward(t *testing.T) {
	g := mustSynthetic(t, 6)
	target := grid.NodeID(20)
	avoid := func(v grid.NodeID) bool { return v%5 == 2 && v != target }
	tree := ReverseTreeAvoiding(g, target, avoid)
	for v := 0; v < g.NumNodes(); v++ {
		if avoid(grid.NodeID(v)) {
			if tree.Reaches(grid.NodeID(v)) {
				t.Fatalf("avoided node %d reaches the target", v)
			}
			continue
		}
		sp := DijkstraAvoiding(g, grid.NodeID(v), avoid)
		want := sp.Dist[target]
		got := tree.Dist[v]
		if math.IsInf(want, 1) != math.IsInf(got, 1) {
			t.Fatalf("reachability of %d disagrees with forward DijkstraAvoiding", v)
		}
		if !math.IsInf(want, 1) && math.Abs(got-want) > 1e-9 {
			t.Fatalf("Dist[%d] = %v, forward says %v", v, got, want)
		}
	}
}

// TestReverseTreePathFrom checks endpoint inclusion and the nil contract.
func TestReverseTreePathFrom(t *testing.T) {
	g := mustSynthetic(t, 7)
	target := grid.NodeID(8)
	tree := ReverseTreeAvoiding(g, target, nil)
	path := tree.PathFrom(target)
	if len(path) != 1 || path[0] != target {
		t.Fatalf("PathFrom(target) = %v, want [target]", path)
	}
	for v := 0; v < g.NumNodes(); v++ {
		p := tree.PathFrom(grid.NodeID(v))
		if !tree.Reaches(grid.NodeID(v)) {
			if p != nil {
				t.Fatalf("unreachable %d got path %v", v, p)
			}
			continue
		}
		if p[0] != grid.NodeID(v) || p[len(p)-1] != target {
			t.Fatalf("path endpoints wrong: %v", p)
		}
	}
}

// TestHopSearcherMatchesWithinHops cross-checks the set search against
// the package-level WithinHops of every target: seeded target sets of 0 to
// 5 nodes (an empty set is a one-asset team's θ), half of them drawn from
// within 3 hops of the source, with m from 0 to 3, on the Caribbean mesh
// and a planar synthetic grid, through one searcher reused across both.
func TestHopSearcherMatchesWithinHops(t *testing.T) {
	caribbean, err := grid.CaribbeanGrid(5)
	if err != nil {
		t.Fatal(err)
	}
	planar, err := grid.GenerateSynthetic(grid.SyntheticConfig{Nodes: 400, Edges: 846, MaxOutDegree: 9, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	var h HopSearcher
	for _, g := range []*grid.Grid{caribbean, planar, caribbean} {
		rng := rand.New(rand.NewSource(int64(g.NumNodes())))
		var targets []grid.NodeID
		outcomes := map[[2]int]int{} // (m, answer) -> count
		for k := 0; k < 2000; k++ {
			src := grid.NodeID(rng.Intn(g.NumNodes()))
			var near []grid.NodeID
			for v, d := range HopDistances(g, src) {
				if d >= 0 && d <= 3 {
					near = append(near, grid.NodeID(v))
				}
			}
			targets = targets[:0]
			for n := rng.Intn(6); n > 0; n-- {
				if rng.Intn(2) == 0 {
					targets = append(targets, near[rng.Intn(len(near))])
				} else {
					targets = append(targets, grid.NodeID(rng.Intn(g.NumNodes())))
				}
			}
			for m := 0; m <= 3; m++ {
				want := false
				for _, tg := range targets {
					want = want || WithinHops(g, src, tg, m)
				}
				got := h.AnyWithinHops(g, src, targets, m)
				if got != want {
					t.Fatalf("%s: AnyWithinHops(%d, %v, %d) = %v, WithinHops says %v", g.Name(), src, targets, m, got, want)
				}
				answer := 0
				if got {
					answer = 1
				}
				outcomes[[2]int{m, answer}]++
			}
		}
		for m := 0; m <= 3; m++ {
			if outcomes[[2]int{m, 0}] == 0 || outcomes[[2]int{m, 1}] == 0 {
				t.Fatalf("%s: m=%d reached only one answer: %v", g.Name(), m, outcomes)
			}
		}
	}
}

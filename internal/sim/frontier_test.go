package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
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

// referenceFrontierStep is the frontier search without its early stop, the
// oracle of TestFrontierStepMatchesReference: a breadth-first search that
// runs until it meets an unsensed node in the asset's Voronoi cell or has
// reached every node it can, testing the cell with Distance calls. Besides
// FrontierStep's result it returns the goal, the first candidate the search
// met and the path's first hop (grid.None where there is none).
func referenceFrontierStep(m *Mission, i int, blocked, mask func(grid.NodeID) bool,
	prev grid.NodeID, rng *rand.Rand, voronoi bool) (a Action, ok bool, goal, first, hop grid.NodeID) {

	g := m.Grid()
	start := m.Cur(i)
	know := m.Knowledge(i)
	maxSpeed := m.Scenario().Team[i].MaxSpeed
	mine := func(u grid.NodeID) bool {
		for j, b := range know.LastKnown {
			if voronoi && j != i && g.Distance(b, u) < g.Distance(start, u) {
				return false
			}
		}
		return true
	}
	parent := map[grid.NodeID]grid.NodeID{start: grid.None}
	queue := []grid.NodeID{start}
	goal, first, hop = grid.None, grid.None, grid.None
	for head := 0; head < len(queue) && goal == grid.None; head++ {
		v := queue[head]
		for _, e := range g.Neighbors(v) {
			if _, seen := parent[e.To]; seen || m.Obstacle(e.To) {
				continue
			}
			parent[e.To] = v
			if !know.Sensed[e.To] && (mask == nil || mask(e.To)) {
				if first == grid.None {
					first = e.To
				}
				if mine(e.To) {
					goal = e.To
					break
				}
			}
			queue = append(queue, e.To)
		}
	}
	if goal == grid.None {
		goal = first
	}
	if goal == grid.None {
		return Wait, false, goal, first, hop
	}
	for hop = goal; parent[hop] != start; hop = parent[hop] {
	}
	if blocked != nil && blocked(hop) {
		bestN, bestD := -1, g.Distance(start, goal)
		var open []int
		for n, e := range g.Neighbors(start) {
			if blocked(e.To) || m.Obstacle(e.To) {
				continue
			}
			open = append(open, n)
			if e.To == prev {
				continue
			}
			if d := g.Distance(e.To, goal); d < bestD {
				bestN, bestD = n, d
			}
		}
		if bestN < 0 {
			if len(open) > 0 && rng.Float64() < 0.5 {
				bestN = open[rng.Intn(len(open))]
			} else {
				return Wait, true, goal, first, hop
			}
		}
		e := g.Neighbors(start)[bestN]
		return Action{Neighbor: bestN, Speed: vessel.CruiseSpeed(e.Weight, maxSpeed)}, true, goal, first, hop
	}
	for n, e := range g.Neighbors(start) {
		if e.To == hop {
			return Action{Neighbor: n, Speed: vessel.CruiseSpeed(e.Weight, maxSpeed)}, true, goal, first, hop
		}
	}
	return Wait, false, goal, first, hop
}

// TestFrontierStepMatchesReference: over 10⁴ seeded states each on the
// Caribbean mesh and a planar synthetic grid, one reused FrontierSearch
// returns referenceFrontierStep's action and ok and leaves the rng at the
// same draw. The states mix Voronoi on and off, region masks, obstacles,
// blocked nodes and sensed sets of every density, and set up on purpose a
// cell with no unsensed node, a cell whose only unsensed node is walled off
// by obstacles, and a fully sensed mesh. Goals lie past the grid memo's cap
// on its breadth-first order, where the search continues on its own, and
// obstacles stand where that order would pass before the goal, which the
// search then never reads from the memo. The test fails if any case goes
// unreached.
func TestFrontierStepMatchesReference(t *testing.T) {
	caribbean, err := grid.CaribbeanGrid(5)
	if err != nil {
		t.Fatal(err)
	}
	planar, err := grid.GenerateSynthetic(grid.SyntheticConfig{Nodes: 400, Edges: 846, MaxOutDegree: 9, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*grid.Grid{caribbean, planar} {
		t.Run(g.Metric().String(), func(t *testing.T) {
			n := g.NumNodes()
			rng := rand.New(rand.NewSource(int64(n)))
			sources := make([]grid.NodeID, 5)
			for k, v := range rng.Perm(n)[:len(sources)] {
				sources[k] = grid.NodeID(v)
			}
			sc := Scenario{Grid: g, Team: vessel.NewTeam(sources, 2*g.AvgEdgeWeight(), 3),
				Dest: farthestNode(g, sources[0]), CommEvery: 4}
			m, err := NewMission(sc, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			var f FrontierSearch
			cases := map[string]int{}
			inCell := make([]bool, n)
			keep := make([]bool, n)
			block := make([]bool, n)
			reach := make([]bool, n)
			var queue, plain []grid.NodeID
			for k := 0; k < 10_000; k++ {
				i := rng.Intn(len(sources))
				start := grid.NodeID(rng.Intn(n))
				m.cur[i] = start
				know := m.Knowledge(i)
				for j := range know.LastKnown {
					know.LastKnown[j] = grid.NodeID(rng.Intn(n))
				}
				know.LastKnown[i] = start
				voronoi := rng.Intn(4) != 0
				for v := range inCell {
					inCell[v] = true
					if !voronoi {
						continue
					}
					d := g.Distance(start, grid.NodeID(v))
					for j, b := range know.LastKnown {
						if j != i && g.Distance(b, grid.NodeID(v)) < d {
							inCell[v] = false
							break
						}
					}
				}

				m.obstacles = nil
				if rng.Intn(3) == 0 {
					m.obstacles = map[grid.NodeID]bool{}
					for v := range n {
						if grid.NodeID(v) != start && rng.Float64() < 0.1 {
							m.obstacles[grid.NodeID(v)] = true
						}
					}
				}
				density := 0.3 + 0.7*rng.Float64()
				for v := range know.Sensed {
					know.Sensed[v] = rng.Float64() < density
				}
				switch mode := rng.Intn(5); mode {
				case 1: // all but a few nodes sensed
					for v := range know.Sensed {
						know.Sensed[v] = true
					}
					for c := 1 + rng.Intn(3); c > 0; c-- {
						know.Sensed[rng.Intn(n)] = false
					}
				case 2, 3: // the cell sensed; under 3, but for one walled-off node
					for v := range know.Sensed {
						know.Sensed[v] = know.Sensed[v] || inCell[v]
					}
					u := grid.NodeID(rng.Intn(n))
					if mode == 3 && inCell[u] && u != start && !g.HasEdge(start, u) && !g.HasEdge(u, start) {
						know.Sensed[u] = false
						if m.obstacles == nil {
							m.obstacles = map[grid.NodeID]bool{}
						}
						delete(m.obstacles, u)
						for _, e := range g.InEdges(u) {
							m.obstacles[e.To] = true
						}
					}
				case 4: // everything sensed
					for v := range know.Sensed {
						know.Sensed[v] = true
					}
				}

				var mask func(grid.NodeID) bool
				if rng.Intn(3) == 0 {
					for v := range keep {
						keep[v] = rng.Intn(2) == 0
					}
					mask = func(v grid.NodeID) bool { return keep[v] }
				}
				var blocked func(grid.NodeID) bool
				if rng.Intn(2) == 0 {
					for v := range block {
						block[v] = rng.Float64() < 0.3
					}
					blocked = func(v grid.NodeID) bool { return block[v] }
				}
				prev := grid.None
				if nb := g.Neighbors(start); rng.Intn(2) == 0 {
					prev = nb[rng.Intn(len(nb))].To
				}

				seed := rng.Int63()
				wantRng, gotRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				want, wantOK, goal, first, hop := referenceFrontierStep(m, i, blocked, mask, prev, wantRng, voronoi)
				got, gotOK := f.Step(m, i, blocked, mask, prev, gotRng, voronoi)
				if got != want || gotOK != wantOK {
					t.Fatalf("state %d: Step = %v/%v, reference %v/%v (goal %d)", k, got, gotOK, want, wantOK, goal)
				}
				if a, b := gotRng.Int63(), wantRng.Int63(); a != b {
					t.Fatalf("state %d: the next rng draw is %d, reference %d", k, a, b)
				}

				// Classify the state from the reachable candidates.
				clear(reach)
				reach[start] = true
				queue := append(queue[:0], start)
				for head := 0; head < len(queue); head++ {
					for _, e := range g.Neighbors(queue[head]) {
						if !reach[e.To] && !m.Obstacle(e.To) {
							reach[e.To] = true
							queue = append(queue, e.To)
						}
					}
				}
				reachable, cellAny, cellReachable := 0, 0, 0
				for v := range n {
					u := grid.NodeID(v)
					if u == start || know.Sensed[v] || m.Obstacle(u) || (mask != nil && !mask(u)) {
						continue
					}
					if reach[v] {
						reachable++
					}
					if inCell[v] {
						cellAny++
						if reach[v] {
							cellReachable++
						}
					}
				}
				if wantOK != (reachable > 0) {
					t.Fatalf("state %d: ok is %v with %d reachable candidates", k, wantOK, reachable)
				}
				cases[map[bool]string{true: "voronoi on", false: "voronoi off"}[voronoi]]++
				if mask != nil {
					cases["region mask"]++
				}
				if len(m.obstacles) > 0 {
					cases["obstacles"]++
				}
				if blocked != nil && hop != grid.None && blocked(hop) {
					cases["blocked first hop"]++
				}
				switch {
				case reachable == 0:
					cases["everything reachable sensed"]++
				case voronoi && cellAny == 0:
					cases["no candidate in the cell"]++
				case voronoi && cellReachable == 0:
					cases["the cell's only candidates unreachable"]++
				case voronoi && first != goal:
					cases["a candidate in the cell past one outside"]++
				}
				if goal != grid.None && len(m.obstacles) == 0 && slices.Index(queue, goal) > grid.MaxHopOrder {
					cases["goal past the memo's cap"]++
				}
				if goal != grid.None && len(m.obstacles) > 0 {
					// The order without obstacles, as the memo holds it.
					clear(reach)
					reach[start] = true
					plain = append(plain[:0], start)
					for head := 0; head < len(plain) && plain[len(plain)-1] != goal; head++ {
						for _, e := range g.Neighbors(plain[head]) {
							if !reach[e.To] {
								reach[e.To] = true
								plain = append(plain, e.To)
							}
						}
					}
					if slices.ContainsFunc(plain, m.Obstacle) {
						cases["obstacles on the private path"]++
					}
				}
			}
			t.Logf("%s: %v", g.Name(), cases)
			for _, c := range []string{"voronoi on", "voronoi off", "region mask", "obstacles", "blocked first hop",
				"everything reachable sensed", "no candidate in the cell", "the cell's only candidates unreachable",
				"a candidate in the cell past one outside", "goal past the memo's cap", "obstacles on the private path"} {
				if cases[c] == 0 {
					t.Errorf("no state reached the case %q", c)
				}
			}
		})
	}
}

// farthestNode returns the node with the largest hop distance from v.
func farthestNode(g *grid.Grid, v grid.NodeID) grid.NodeID {
	hops := graphalg.HopDistances(g, v)
	far := v
	for u, d := range hops {
		if d > hops[far] {
			far = grid.NodeID(u)
		}
	}
	return far
}

// TestFrontierStepConcurrent: 8 goroutines step frontier searches from
// random states of their own missions on one cold grid, so that they fill
// its breadth-first order memo together; every answer equals
// referenceFrontierStep's. It is meant for go test -race.
func TestFrontierStepConcurrent(t *testing.T) {
	g, err := grid.CaribbeanGrid(2)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	sources := []grid.NodeID{0, grid.NodeID(n / 3), grid.NodeID(2 * n / 3)}
	sc := Scenario{Grid: g, Team: vessel.NewTeam(sources, 2*g.AvgEdgeWeight(), 3),
		Dest: farthestNode(g, sources[0]), CommEvery: 4}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for worker := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := NewMission(sc, RunOptions{})
			if err != nil {
				errs <- err
				return
			}
			rng := rand.New(rand.NewSource(int64(worker)))
			var f FrontierSearch
			for k := range 150 {
				i := rng.Intn(len(sources))
				m.cur[i] = grid.NodeID(rng.Intn(n))
				know := m.Knowledge(i)
				for j := range know.LastKnown {
					know.LastKnown[j] = grid.NodeID(rng.Intn(n))
				}
				know.LastKnown[i] = m.cur[i]
				density := rng.Float64()
				for v := range know.Sensed {
					know.Sensed[v] = rng.Float64() < density
				}
				voronoi := rng.Intn(4) != 0
				seed := rng.Int63()
				want, wantOK, _, _, _ := referenceFrontierStep(m, i, nil, nil, grid.None, rand.New(rand.NewSource(seed)), voronoi)
				got, gotOK := f.Step(m, i, nil, nil, grid.None, rand.New(rand.NewSource(seed)), voronoi)
				if got != want || gotOK != wantOK {
					errs <- fmt.Errorf("worker %d state %d: Step = %v/%v, reference %v/%v", worker, k, got, gotOK, want, wantOK)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

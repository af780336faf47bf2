package sim

import (
	"math/rand"

	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/vessel"
)

// FrontierStep computes a step toward the nearest node asset i has not
// sensed: BFS over hops from the current node, then the first edge of the
// path, at the speed minimizing the time/fuel average (the Table 2 speed
// rule). Every cooperative planner in this repository falls back to it when
// no immediate move senses anything new — without it, greedy policies
// oscillate between two fully-sensed nodes forever (DESIGN.md §2).
//
// When voronoi is set, frontier nodes are partitioned against believed
// teammate positions: the asset prefers unsensed nodes at least as close to
// itself as to any teammate (its Voronoi cell), so that teammates sharing
// the same knowledge fan out instead of racing to one frontier node, and
// takes the nearest unsensed node outside the cell only when the cell holds
// none it can reach. The test compares grid distance keys (Grid.DistKey,
// Grid.Shorter), which answer exactly as comparing the distances would,
// without trig. The search stops as soon as its answer is settled: at the
// first unsensed node in the cell, or, when it meets its first one outside
// the cell, right there if one pass over the nodes it has not reached finds
// no unsensed node in the cell.
//
// Without obstacles the BFS's discovery order depends only on the grid and
// the asset's node, so the search reads it through a grid.HopOrder, which
// scans the grid's memo of that order and runs the BFS itself only past the
// memo's cap; with obstacles the HopOrder runs the BFS alone. Either way
// the nodes come in the BFS's order and get the same tests, and the path's
// first hop is read back from their ranks.
//
// If the chosen first hop is blocked, the asset detours through an
// unblocked neighbor that gets it closer to the goal (avoiding prev, the
// node it just left; hop counts and metric distances can disagree,
// producing two-node bounce cycles without this), occasionally takes a
// random unblocked step so mutual blocking cannot deadlock, and only waits
// as a last resort. mask, when non-nil, restricts which unsensed nodes are
// worth visiting. The boolean result reports whether a frontier exists at
// all.
//
// blocked is a predicate (nil means nothing is blocked) so that planners
// can back it with a reusable grid.NodeSet instead of allocating a map per
// decision. FrontierStep allocates its search scratch per call; planners
// call Liveness.Frontier, which reuses one FrontierSearch.
func FrontierStep(m *Mission, i int, blocked func(grid.NodeID) bool, mask func(grid.NodeID) bool,
	prev grid.NodeID, rng *rand.Rand, voronoi bool) (Action, bool) {
	return new(FrontierSearch).Step(m, i, blocked, mask, prev, rng, voronoi)
}

// FrontierSearch is FrontierStep with reusable scratch, so a planner's
// frontier fallback allocates nothing after warm-up. The zero value is
// ready. A FrontierSearch is not safe for concurrent use; give each planner
// its own.
type FrontierSearch struct {
	// order walks the breadth-first order from the asset: on a mission
	// without obstacles it scans the grid's memo of that order, searching
	// only past what the memo holds.
	order grid.HopOrder
	// open lists the unblocked neighbor indices a detour may take.
	open []int
}

// Step is FrontierStep on the search's scratch.
func (f *FrontierSearch) Step(m *Mission, i int, blocked func(grid.NodeID) bool, mask func(grid.NodeID) bool,
	prev grid.NodeID, rng *rand.Rand, voronoi bool) (Action, bool) {

	g := m.Grid()
	start := m.Cur(i)
	know := m.Knowledge(i)
	maxSpeed := m.Asset(i).MaxSpeed
	obstacles := m.HasObstacles()

	// candidate reports whether u is worth visiting: unsensed and accepted
	// by the mask. mine reports whether u lies in the asset's Voronoi cell.
	candidate := func(u grid.NodeID) bool {
		return !know.Sensed[u] && (mask == nil || mask(u))
	}
	mine := func(u grid.NodeID) bool {
		if !voronoi {
			return true
		}
		d := g.DistKey(start, u)
		for j, b := range know.LastKnown {
			if j != i && g.Shorter(g.DistKey(b, u), d) {
				return false
			}
		}
		return true
	}
	// cellLeft reports whether a node the BFS has not reached is a
	// passable candidate in the cell. If none is, the search can end with
	// no goal in the cell however far it runs: every reached node was
	// tested on arrival.
	cellLeft := func() bool {
		for v := range g.NumNodes() {
			u := grid.NodeID(v)
			if !f.order.Reached(u) && candidate(u) && !(obstacles && m.Obstacle(u)) && mine(u) {
				return true
			}
		}
		return false
	}

	// Obstacles are impassable: neither goals nor corridors.
	f.order.Start(g, start, m.obstacles)
	goal, anyGoal := grid.None, grid.None
	for goal == grid.None {
		u := f.order.Next()
		if u == grid.None {
			goal = anyGoal // no frontier in my Voronoi cell: take the nearest
			break
		}
		if !candidate(u) {
			continue
		}
		if mine(u) {
			goal = u
		} else if anyGoal == grid.None {
			anyGoal = u
			if !cellLeft() {
				goal = u
			}
		}
	}
	if goal == grid.None {
		return Wait, false // everything reachable is sensed
	}
	// Walk back to the first hop.
	hop := goal
	for p := f.order.Parent(hop); p != start; p = f.order.Parent(hop) {
		hop = p
	}
	if blocked != nil && blocked(hop) {
		bestN, bestD := -1, g.Distance(start, goal)
		f.open = f.open[:0]
		for n, e := range g.Neighbors(start) {
			if blocked(e.To) || (obstacles && m.Obstacle(e.To)) {
				continue
			}
			f.open = append(f.open, n)
			if e.To == prev {
				continue
			}
			if d := g.Distance(e.To, goal); d < bestD {
				bestN, bestD = n, d
			}
		}
		if bestN < 0 {
			if len(f.open) > 0 && rng.Float64() < 0.5 {
				bestN = f.open[rng.Intn(len(f.open))]
			} else {
				return Wait, true
			}
		}
		e := g.Neighbors(start)[bestN]
		return Action{Neighbor: bestN, Speed: vessel.CruiseSpeed(e.Weight, maxSpeed)}, true
	}
	for n, e := range g.Neighbors(start) {
		if e.To == hop {
			return Action{Neighbor: n, Speed: vessel.CruiseSpeed(e.Weight, maxSpeed)}, true
		}
	}
	return Wait, false
}

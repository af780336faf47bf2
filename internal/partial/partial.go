// Package partial implements MaMoRL with partial knowledge (Section
// 4.1.2-1): the destination is known to lie inside a specified region (a
// bounding box), but its exact location is unknown. Each asset sails the
// Dijkstra shortest path from its source to the nearest node inside the
// region, then searches the region with Approx-MaMoRL, using the region's
// central node as the destination surrogate for the β feature.
package partial

import (
	"fmt"

	"github.com/routeplanning/mamorl/internal/geo"
	"github.com/routeplanning/mamorl/internal/graphalg"
	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/sim"
	"github.com/routeplanning/mamorl/internal/vessel"
)

// Maskable is a search planner whose exploration can be confined to a node
// set. Both Approx-MaMoRL (approx.Planner) and exact MaMoRL (core.Planner)
// implement it, so the paper's "MaMoRL with partial knowledge" composes
// with either solver.
type Maskable interface {
	sim.Planner
	// MaskedTo returns a copy of the planner that only values sensing
	// nodes accepted by mask.
	MaskedTo(mask func(grid.NodeID) bool) sim.Planner
}

// Planner routes a team under partial destination knowledge. A Planner
// serves exactly one mission: its per-asset path cursors advance as the
// mission runs. Construct a fresh Planner per sim.Run.
type Planner struct {
	region geo.Rect
	inner  sim.Planner
	// path[i] is asset i's Dijkstra path from source to the region
	// boundary; idx[i] is the position of the asset's current node on it.
	path [][]grid.NodeID
	idx  []int
	// stuck[i] counts consecutive transit epochs spent waiting on an
	// occupied path node; past a patience bound the asset abandons the
	// path and lets the (region-masked) search planner route it, which
	// breaks transit-vs-search mutual deadlocks.
	stuck []int
}

// transitPatience is how many consecutive blocked-path waits an asset
// tolerates before abandoning its transit path.
const transitPatience = 3

// NewPlanner prepares the transit paths for the scenario. The region must
// contain the scenario's destination (the assets' intelligence is assumed
// correct, as in the paper) and at least one grid node.
func NewPlanner(sc sim.Scenario, region geo.Rect, inner Maskable) (*Planner, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if !region.Contains(sc.Grid.Pos(sc.Dest)) {
		return nil, fmt.Errorf("partial: destination %d outside the known region", sc.Dest)
	}
	inRegion := sc.Grid.NodesInRect(region)
	if len(inRegion) == 0 {
		return nil, fmt.Errorf("partial: region contains no grid nodes")
	}
	inSet := make(map[grid.NodeID]bool, len(inRegion))
	for _, v := range inRegion {
		inSet[v] = true
	}
	// Inside the region the search is confined by a mask: nodes outside
	// cannot contain the destination, so the α feature and the frontier
	// fallback ignore them. (An earlier design used the region's center as
	// a β destination hint instead; the attraction term then outweighed
	// exploration and assets parked at the center — the mask expresses the
	// partial knowledge without fighting the exploration signal.)
	p := &Planner{
		region: region,
		inner:  inner.MaskedTo(func(v grid.NodeID) bool { return inSet[v] }),
		path:   make([][]grid.NodeID, len(sc.Team)),
		idx:    make([]int, len(sc.Team)),
		stuck:  make([]int, len(sc.Team)),
	}
	// Transit legs must route around the scenario's exclusion zones.
	var avoid func(grid.NodeID) bool
	if len(sc.Obstacles) > 0 {
		blocked := make(map[grid.NodeID]bool, len(sc.Obstacles))
		for _, v := range sc.Obstacles {
			blocked[v] = true
		}
		avoid = func(v grid.NodeID) bool { return blocked[v] }
	}
	// One multi-source reverse shortest-path tree toward the region serves
	// the whole team: Dist[v] is v's distance to the nearest region node
	// and following Next walks the shortest route there. Previously every
	// asset ran its own forward Dijkstra over the full grid.
	tree := graphalg.ReverseTreeMulti(sc.Grid, inRegion, avoid)
	for i, a := range sc.Team {
		if inSet[a.Source] {
			continue // already inside: no transit leg
		}
		path := tree.PathFrom(a.Source)
		if path == nil {
			return nil, fmt.Errorf("partial: asset %d cannot reach the region from node %d", i, a.Source)
		}
		p.path[i] = path
	}
	return p, nil
}

// DestRegion is the known region the experiments and the mamorl CLI use: a
// box a few average edge lengths wide centered on the destination, a small
// fraction of the grid (the paper does not publish its region sizes).
func DestRegion(sc sim.Scenario) geo.Rect {
	d := sc.Grid.Pos(sc.Dest)
	r := 3 * sc.Grid.AvgEdgeWeight()
	return geo.NewRect(geo.Point{X: d.X - r, Y: d.Y - r}, geo.Point{X: d.X + r, Y: d.Y + r})
}

// Name implements sim.Planner.
func (p *Planner) Name() string { return "Approx-MaMoRL+PK" }

// Decide implements sim.Planner: transit along the precomputed shortest
// path while outside the region, then search inside it.
func (p *Planner) Decide(m *sim.Mission, i int) sim.Action {
	cur := m.Cur(i)
	if p.region.Contains(m.Grid().Pos(cur)) || p.path[i] == nil {
		return p.inner.Decide(m, i)
	}
	path := p.path[i]
	// Re-anchor the cursor on the current node (waits keep it in place).
	for p.idx[i] < len(path) && path[p.idx[i]] != cur {
		p.idx[i]++
	}
	if p.idx[i] >= len(path)-1 {
		// Off the path or at its end without being inside (boundary node's
		// position can sit just outside the rect): fall back to searching.
		return p.inner.Decide(m, i)
	}
	next := path[p.idx[i]+1]
	if m.BelievedOccupied(i, next) {
		if p.stuck[i]++; p.stuck[i] >= transitPatience {
			p.path[i] = nil // abandon transit; the masked search routes us
			return p.inner.Decide(m, i)
		}
		return sim.Wait
	}
	p.stuck[i] = 0
	for n, e := range m.Grid().Neighbors(cur) {
		if e.To == next {
			return sim.Action{Neighbor: n, Speed: transitSpeed(e.Weight, m.Scenario().Team[i].MaxSpeed)}
		}
	}
	// The path edge vanished (cannot happen on immutable grids); search.
	return p.inner.Decide(m, i)
}

// transitSpeed picks the time/fuel-balanced speed for a transit edge, the
// same rule the toy example applies (Table 2).
func transitSpeed(weight float64, maxSpeed int) int {
	return vessel.CruiseSpeed(weight, maxSpeed)
}

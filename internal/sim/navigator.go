package sim

import (
	"github.com/routeplanning/mamorl/internal/graphalg"
	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/vessel"
)

// Navigator steers assets toward a known target along obstacle-avoiding
// shortest paths, yielding when the next hop is believed occupied. Every
// planner uses it for the post-discovery rendezvous leg (Scenario
// .Rendezvous): once the destination is broadcast, search behavior is
// pointless and Dijkstra transit is optimal — the same reasoning as the
// partial-knowledge planner's approach leg (Section 4.1.2-1).
//
// Routing is backed by reverse shortest-path trees (one Dijkstra from the
// target over the grid's in-edges yields every asset's next hop at once):
//
//   - the base tree avoids only static obstacles, so it is computed once
//     per mission and shared by the whole team;
//   - per-asset detour trees additionally avoid believed-occupied nodes and
//     are invalidated when the asset's beliefs about teammate locations
//     change (communication updates them).
//
// The zero value is ready. A Navigator belongs to one planner and serves
// one mission and one target at a time; every cached route is dropped when
// either changes.
type Navigator struct {
	mission *Mission
	target  grid.NodeID
	// base is the obstacle-avoiding tree toward target, built on first use.
	base *graphalg.ReverseTree
	// detour[i] is asset i's believed-occupancy-avoiding tree (nil until
	// needed); detourSig[i] is the teammate-location belief snapshot it was
	// built for. onDetour[i] keeps the asset on its detour route until
	// beliefs change, so base and detour trees cannot alternate into a
	// two-node livelock.
	detour    []*graphalg.ReverseTree
	detourSig [][]grid.NodeID
	onDetour  []bool
	// yields counts consecutive blocked epochs per asset; past a
	// rank-staggered patience the asset retreats one hop to break mutual
	// corridor deadlocks (two assets wanting to pass through each other
	// across a cut vertex would otherwise wait forever).
	yields []int
}

// reset drops every cached route when the mission or target changes.
func (nv *Navigator) reset(m *Mission, target grid.NodeID) {
	if nv.mission == m && nv.target == target {
		return
	}
	n := m.NumAssets()
	*nv = Navigator{
		mission:   m,
		target:    target,
		detour:    make([]*graphalg.ReverseTree, n),
		detourSig: make([][]grid.NodeID, n),
		onDetour:  make([]bool, n),
		yields:    make([]int, n),
	}
}

// baseTree returns the obstacle-avoiding reverse tree toward the target,
// building it on first use.
func (nv *Navigator) baseTree(m *Mission) *graphalg.ReverseTree {
	if nv.base != nil {
		return nv.base
	}
	var avoid func(grid.NodeID) bool
	if m.HasObstacles() {
		avoid = m.Obstacle
	}
	nv.base = graphalg.ReverseTreeAvoiding(m.Grid(), nv.target, avoid)
	return nv.base
}

// detourTree returns asset i's believed-occupancy-avoiding tree, rebuilding
// it when the asset's beliefs about teammate locations have changed since
// the cached one was computed. The second result reports whether the cached
// tree was invalidated (the asset should re-evaluate whether it needs a
// detour at all).
func (nv *Navigator) detourTree(m *Mission, i int) (*graphalg.ReverseTree, bool) {
	know := m.Knowledge(i)
	sig := nv.detourSig[i]
	if t := nv.detour[i]; t != nil && beliefsMatch(sig, know.LastKnown, i) {
		return t, false
	}
	t := graphalg.ReverseTreeAvoiding(m.Grid(), nv.target, func(v grid.NodeID) bool {
		return m.Obstacle(v) || m.BelievedOccupied(i, v)
	})
	nv.detour[i] = t
	nv.detourSig[i] = snapshotBeliefs(sig[:0], know.LastKnown, i)
	return t, true
}

// beliefsMatch reports whether the snapshot still equals the live teammate
// beliefs (own entry excluded — an asset never blocks itself).
func beliefsMatch(sig []grid.NodeID, lastKnown []grid.NodeID, i int) bool {
	if len(sig) != len(lastKnown) {
		return false
	}
	for j, v := range lastKnown {
		if j != i && sig[j] != v {
			return false
		}
	}
	return true
}

// snapshotBeliefs copies the teammate-location beliefs into buf.
func snapshotBeliefs(buf []grid.NodeID, lastKnown []grid.NodeID, i int) []grid.NodeID {
	buf = append(buf, lastKnown...)
	buf[i] = grid.None // own entry is irrelevant; normalize it
	return buf
}

// inboundNeighbor reports whether a teammate that has not yet arrived is
// believed adjacent to asset i — the signal to vacate a corridor node.
func (nv *Navigator) inboundNeighbor(m *Mission, i int) bool {
	g := m.Grid()
	cur := m.Cur(i)
	for j := range m.NumAssets() {
		if j == i {
			continue
		}
		vj := m.Knowledge(i).LastKnown[j]
		if g.Distance(vj, nv.target) <= m.Asset(j).SensingRadius {
			continue // already arrived; not inbound
		}
		if g.HasEdge(cur, vj) {
			return true
		}
	}
	return false
}

// Step returns asset i's next action toward target: a shortest-path hop at
// cruise speed, a wait when yielding or already within sensing range of the
// target, and (Wait, false) when no route exists.
func (nv *Navigator) Step(m *Mission, i int, target grid.NodeID) (Action, bool) {
	nv.reset(m, target)
	g := m.Grid()
	cur := m.Cur(i)

	// Arrived: within own sensing radius of the target. Parked assets must
	// not clog the arrival zone's entrances (the first arriver often sits
	// on the zone's only corridor — a structural deadlock we hit in
	// testing), so an arrived asset keeps drifting deeper into the zone
	// while free in-zone nodes closer to the target exist, and steps
	// sideways to any free in-zone node when an inbound teammate is
	// believed adjacent.
	radius := m.Asset(i).SensingRadius
	if curD := g.Distance(cur, target); curD <= radius {
		bestN, bestD := -1, curD
		var lateral = -1
		for n, e := range g.Neighbors(cur) {
			if m.Obstacle(e.To) || m.BelievedOccupied(i, e.To) {
				continue
			}
			d := g.Distance(e.To, target)
			if d > radius {
				continue
			}
			if d < bestD {
				bestN, bestD = n, d
			} else if lateral < 0 {
				lateral = n
			}
		}
		if bestN >= 0 {
			e := g.Neighbors(cur)[bestN]
			return Action{Neighbor: bestN, Speed: vessel.CruiseSpeed(e.Weight, m.Asset(i).MaxSpeed)}, true
		}
		if lateral >= 0 && nv.inboundNeighbor(m, i) {
			return Action{Neighbor: lateral, Speed: 1}, true
		}
		return Wait, true
	}

	base := nv.baseTree(m)
	if !base.Reaches(cur) {
		return Wait, false // no obstacle-free route at all
	}
	next := base.Next[cur]

	if nv.onDetour[i] {
		// Committed to a detour: keep following it while the beliefs that
		// justified it stand. detourTree invalidates on belief change, at
		// which point the asset falls back to base routing below.
		t, rebuilt := nv.detourTree(m, i)
		if rebuilt {
			nv.onDetour[i] = false
		} else if t.Reaches(cur) {
			next = t.Next[cur]
		} else {
			nv.onDetour[i] = false
		}
	}

	if m.BelievedOccupied(i, next) {
		// The corridor is blocked — possibly permanently, by a teammate
		// already parked at the gathering point. Detour around occupied
		// nodes; when no such route exists, wait with a rank-staggered
		// patience and then retreat one hop: two assets wanting to pass
		// through each other across a cut vertex would otherwise deadlock
		// forever, and the stagger keeps them from retreating in lockstep.
		t, _ := nv.detourTree(m, i)
		if !t.Reaches(cur) {
			nv.yields[i]++
			if nv.yields[i] <= 3+i {
				return Wait, true
			}
			nv.yields[i] = 0
			nv.onDetour[i] = false
			for n, e := range g.Neighbors(cur) {
				if m.Obstacle(e.To) || m.BelievedOccupied(i, e.To) {
					continue
				}
				return Action{Neighbor: n, Speed: 1}, true
			}
			return Wait, true // fully boxed in: nothing to do but wait
		}
		nv.onDetour[i] = true
		next = t.Next[cur]
	}
	nv.yields[i] = 0
	for n, e := range g.Neighbors(cur) {
		if e.To == next {
			return Action{Neighbor: n, Speed: vessel.CruiseSpeed(e.Weight, m.Asset(i).MaxSpeed)}, true
		}
	}
	return Wait, false
}

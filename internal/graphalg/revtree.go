package graphalg

import (
	"container/heap"
	"slices"

	"github.com/routeplanning/mamorl/internal/grid"
)

// ReverseTree is an every-node-to-target shortest-path tree: one Dijkstra
// over the grid's in-edges yields, for every node v, the distance from v to
// the nearest target and the first hop of a shortest route there. Planners
// that repeatedly need routes toward a fixed goal (the rendezvous
// navigator, the partial-knowledge transit leg) build one tree per target
// set instead of one forward Dijkstra per asset per reroute.
type ReverseTree struct {
	// Targets are the tree's roots (distance 0).
	Targets []grid.NodeID
	// Dist[v] is the shortest distance from v to the nearest target, Inf
	// when no target is reachable from v.
	Dist []float64
	// Next[v] is the first hop of a shortest route from v to its nearest
	// target; grid.None at targets themselves and at unreachable nodes.
	Next []grid.NodeID
}

// Reaches reports whether node v has a route to a target. Targets
// themselves trivially reach (unless avoided at build time).
func (t *ReverseTree) Reaches(v grid.NodeID) bool { return t.Dist[v] < Inf }

// ReverseTreeAvoiding builds the reverse tree toward a single target,
// treating nodes for which avoid returns true as impassable. An avoided
// target produces a tree where nothing reaches.
func ReverseTreeAvoiding(g *grid.Grid, target grid.NodeID, avoid func(grid.NodeID) bool) *ReverseTree {
	return ReverseTreeMulti(g, []grid.NodeID{target}, avoid)
}

// ReverseTreeMulti builds the reverse tree toward the nearest of several
// targets (a multi-source Dijkstra on the reversed graph). The
// partial-knowledge planner uses it to route a whole team to a region
// boundary with one traversal: Dist[source] is the distance to the closest
// region node and following Next walks the shortest route there.
func ReverseTreeMulti(g *grid.Grid, targets []grid.NodeID, avoid func(grid.NodeID) bool) *ReverseTree {
	n := g.NumNodes()
	t := &ReverseTree{
		Targets: targets,
		Dist:    make([]float64, n),
		Next:    make([]grid.NodeID, n),
	}
	for i := range t.Dist {
		t.Dist[i] = Inf
		t.Next[i] = grid.None
	}
	q := &pq{}
	for _, tg := range targets {
		if avoid != nil && avoid(tg) {
			continue
		}
		if t.Dist[tg] == 0 {
			continue // duplicate target
		}
		t.Dist[tg] = 0
		heap.Push(q, pqItem{tg, 0})
	}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if it.dist > t.Dist[it.node] {
			continue // stale entry
		}
		for _, e := range g.InEdges(it.node) {
			// e.To is a predecessor u with an arc u -> it.node of e.Weight.
			if avoid != nil && avoid(e.To) {
				continue
			}
			if d := it.dist + e.Weight; d < t.Dist[e.To] {
				t.Dist[e.To] = d
				t.Next[e.To] = it.node
				heap.Push(q, pqItem{e.To, d})
			}
		}
	}
	return t
}

// PathFrom reconstructs the route from v to its nearest target by following
// Next pointers, inclusive of both endpoints. It returns nil when v has no
// route.
func (t *ReverseTree) PathFrom(v grid.NodeID) []grid.NodeID {
	if !t.Reaches(v) {
		return nil
	}
	path := []grid.NodeID{v}
	for t.Next[v] != grid.None {
		v = t.Next[v]
		path = append(path, v)
	}
	return path
}

// HopSearcher answers hop-radius queries with reusable scratch, so the hot
// planning path (the θ feature asks one per feature context every epoch)
// performs no per-query allocation after warm-up. The zero value is ready.
type HopSearcher struct {
	// mark holds one stamp per node: a query stamps its targets with gen
	// and the nodes its search has queued with gen+1, so one |V|-sized
	// array serves both sets and a new query clears both by stepping gen.
	mark      []uint32
	gen       uint32
	cur, next []grid.NodeID
}

// AnyWithinHops reports whether any of targets is within m hops of source:
// the package-level WithinHops for each target, answered by one
// breadth-first search. The targets are stamped once, so the search tests
// each node it reaches with one load; nodes on the m-th hop are only
// tested, never stamped or queued.
func (h *HopSearcher) AnyWithinHops(g *grid.Grid, source grid.NodeID, targets []grid.NodeID, m int) bool {
	if len(targets) == 0 {
		return false
	}
	if m <= 0 {
		return slices.Contains(targets, source)
	}
	if n := g.NumNodes(); len(h.mark) < n {
		h.mark = make([]uint32, n)
		h.gen = 0
	}
	h.gen += 2
	if h.gen < 2 { // wrapped: stale stamps could read as current ones
		clear(h.mark)
		h.gen = 2
	}
	target, seen := h.gen, h.gen+1
	for _, t := range targets {
		h.mark[t] = target
	}
	if h.mark[source] == target {
		return true
	}
	h.mark[source] = seen
	h.cur = append(h.cur[:0], source)
	for hop := 1; hop < m; hop++ {
		h.next = h.next[:0]
		for _, v := range h.cur {
			for _, e := range g.Neighbors(v) {
				switch h.mark[e.To] {
				case target:
					return true
				case seen:
				default:
					h.mark[e.To] = seen
					h.next = append(h.next, e.To)
				}
			}
		}
		h.cur, h.next = h.next, h.cur
		if len(h.cur) == 0 {
			return false
		}
	}
	for _, v := range h.cur { // the m-th hop
		for _, e := range g.Neighbors(v) {
			if h.mark[e.To] == target {
				return true
			}
		}
	}
	return false
}

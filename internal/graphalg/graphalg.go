// Package graphalg provides the classical graph algorithms the framework
// depends on: Dijkstra's shortest paths (used by the partial-knowledge
// planner to route assets to the destination region, Section 4.1.2-1),
// breadth-first hop distances (used by the θ feature of Equations 9 and 11,
// "another asset within m hops"), and reachability checks used to validate
// scenarios before planning.
package graphalg

import (
	"container/heap"
	"fmt"
	"math"

	"github.com/routeplanning/mamorl/internal/grid"
)

// Inf is the distance reported for unreachable nodes.
var Inf = math.Inf(1)

// ShortestPaths holds single-source shortest path results over a grid.
type ShortestPaths struct {
	Source grid.NodeID
	// Dist[v] is the shortest distance from Source to v, Inf if unreachable.
	Dist []float64
	// Prev[v] is the predecessor of v on a shortest path, grid.None for the
	// source and unreachable nodes.
	Prev []grid.NodeID
}

// pqItem is an entry in the Dijkstra priority queue.
type pqItem struct {
	node grid.NodeID
	dist float64
}

type pq []pqItem

func (q pq) Len() int            { return len(q) }
func (q pq) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	item := old[n-1]
	*q = old[:n-1]
	return item
}

// Dijkstra computes shortest paths from source to every node. Edge weights
// are grid distances and therefore non-negative.
func Dijkstra(g *grid.Grid, source grid.NodeID) *ShortestPaths {
	n := g.NumNodes()
	sp := &ShortestPaths{
		Source: source,
		Dist:   make([]float64, n),
		Prev:   make([]grid.NodeID, n),
	}
	for i := range sp.Dist {
		sp.Dist[i] = Inf
		sp.Prev[i] = grid.None
	}
	sp.Dist[source] = 0

	q := &pq{{source, 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if it.dist > sp.Dist[it.node] {
			continue // stale entry
		}
		for _, e := range g.Neighbors(it.node) {
			if d := it.dist + e.Weight; d < sp.Dist[e.To] {
				sp.Dist[e.To] = d
				sp.Prev[e.To] = it.node
				heap.Push(q, pqItem{e.To, d})
			}
		}
	}
	return sp
}

// PathTo reconstructs the shortest path from the source to dest, inclusive
// of both endpoints. It returns an error if dest is unreachable.
func (sp *ShortestPaths) PathTo(dest grid.NodeID) ([]grid.NodeID, error) {
	if math.IsInf(sp.Dist[dest], 1) {
		return nil, fmt.Errorf("graphalg: node %d unreachable from %d", dest, sp.Source)
	}
	var rev []grid.NodeID
	for v := dest; v != grid.None; v = sp.Prev[v] {
		rev = append(rev, v)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, nil
}

// HopDistances computes BFS hop counts from source to every node; -1 marks
// unreachable nodes.
func HopDistances(g *grid.Grid, source grid.NodeID) []int {
	dist := make([]int, g.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[source] = 0
	queue := []grid.NodeID{source}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, e := range g.Neighbors(v) {
			if dist[e.To] < 0 {
				dist[e.To] = dist[v] + 1
				queue = append(queue, e.To)
			}
		}
	}
	return dist
}

// WithinHops reports whether target is within m hops of source. It expands
// BFS lazily and stops early, so it is cheap for the small m used by the θ
// feature.
func WithinHops(g *grid.Grid, source, target grid.NodeID, m int) bool {
	if source == target {
		return true
	}
	if m <= 0 {
		return false
	}
	visited := map[grid.NodeID]bool{source: true}
	frontier := []grid.NodeID{source}
	for hop := 1; hop <= m; hop++ {
		var next []grid.NodeID
		for _, v := range frontier {
			for _, e := range g.Neighbors(v) {
				if e.To == target {
					return true
				}
				if !visited[e.To] {
					visited[e.To] = true
					next = append(next, e.To)
				}
			}
		}
		frontier = next
		if len(frontier) == 0 {
			break
		}
	}
	return false
}

// Reachable reports whether dest can be reached from source.
func Reachable(g *grid.Grid, source, dest grid.NodeID) bool {
	return HopDistances(g, source)[dest] >= 0
}

// ReachableAvoiding reports whether dest can be reached from source without
// entering any node for which avoid returns true (obstacle-aware
// reachability). avoid may be nil.
func ReachableAvoiding(g *grid.Grid, source, dest grid.NodeID, avoid func(grid.NodeID) bool) bool {
	if avoid == nil {
		return Reachable(g, source, dest)
	}
	if avoid(source) || avoid(dest) {
		return false
	}
	if source == dest {
		return true
	}
	visited := map[grid.NodeID]bool{source: true}
	queue := []grid.NodeID{source}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, e := range g.Neighbors(v) {
			if visited[e.To] || avoid(e.To) {
				continue
			}
			if e.To == dest {
				return true
			}
			visited[e.To] = true
			queue = append(queue, e.To)
		}
	}
	return false
}

// DijkstraAvoiding computes shortest paths from source treating nodes for
// which avoid returns true as impassable (their distances stay +Inf). The
// partial-knowledge transit leg uses it to route around exclusion zones.
func DijkstraAvoiding(g *grid.Grid, source grid.NodeID, avoid func(grid.NodeID) bool) *ShortestPaths {
	if avoid == nil {
		return Dijkstra(g, source)
	}
	n := g.NumNodes()
	sp := &ShortestPaths{
		Source: source,
		Dist:   make([]float64, n),
		Prev:   make([]grid.NodeID, n),
	}
	for i := range sp.Dist {
		sp.Dist[i] = Inf
		sp.Prev[i] = grid.None
	}
	if avoid(source) {
		return sp
	}
	sp.Dist[source] = 0
	q := &pq{{source, 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if it.dist > sp.Dist[it.node] {
			continue
		}
		for _, e := range g.Neighbors(it.node) {
			if avoid(e.To) {
				continue
			}
			if d := it.dist + e.Weight; d < sp.Dist[e.To] {
				sp.Dist[e.To] = d
				sp.Prev[e.To] = it.node
				heap.Push(q, pqItem{e.To, d})
			}
		}
	}
	return sp
}

package grid

import (
	"slices"
	"sync"
	"sync/atomic"
)

// The memo's limits. Clients choose sensing radii, so a grid caches balls
// for at most maxBallRadii distinct radii and at most maxBallIDsPerNode·|V|
// node IDs across all its tables; past either limit a radius query scans
// the spatial index as if there were no memo.
const (
	maxBallRadii      = 4
	maxBallIDsPerNode = 64
)

// ballTable holds the sensing balls of one radius. balls[v] stays nil until
// node v is first queried; the ball is then published with one atomic store
// and never changes, so readers take no lock.
type ballTable struct {
	r     float64
	balls []atomic.Pointer[[]NodeID]
}

// ballMemo is a grid's set of ball tables. A ball depends only on the grid,
// the node and the radius (the paper's Section 2.2 sensing model), and a
// grid never changes once built, so each ball is computed once: by the
// spatial index's haversine (or planar) scan, with the IDs in the scan's
// visit order, so a memoized query visits exactly what a scan would. Keep
// that scan's metric test: a chord or dot-product test can flip nodes on
// the boundary, and with them plans.
type ballMemo struct {
	// tables is the short list of tables, replaced copy-on-write under mu.
	tables atomic.Pointer[[]*ballTable]
	// ids counts the node IDs published across tables; it changes only
	// under mu. The first ball that does not fit sets it to the limit,
	// which closes the memo: later cold queries scan without allocating.
	ids atomic.Int64
	mu  sync.Mutex
}

// maxBallIDs is the grid's cap on cached node IDs.
func (g *Grid) maxBallIDs() int64 { return maxBallIDsPerNode * int64(len(g.pos)) }

// Ball returns the sensing ball of v at radius r, filling it on first use:
// the nodes ForEachWithinRadius visits, in its order. The slice is shared
// and must not be modified. ok is false when the memo does not serve r: a
// negative or NaN radius, a radius past the table limit, or a grid whose
// ID limit is reached; callers then scan with ForEachWithinRadius. Loops
// that walk a ball once per candidate move read it here rather than pay a
// closure call per node.
func (g *Grid) Ball(v NodeID, r float64) (ball []NodeID, ok bool) {
	t := g.ballTable(r)
	if t == nil {
		return nil, false
	}
	if p := t.balls[v].Load(); p != nil {
		return *p, true
	}
	return g.fillBall(t, v)
}

// find returns the current list of tables and the one for radius r, if
// any.
func (m *ballMemo) find(r float64) ([]*ballTable, *ballTable) {
	p := m.tables.Load()
	if p == nil {
		return nil, nil
	}
	for _, t := range *p {
		if t.r == r {
			return *p, t
		}
	}
	return *p, nil
}

// ballTable returns the table for radius r, adding one if the memo has
// room, or nil.
func (g *Grid) ballTable(r float64) *ballTable {
	tabs, t := g.balls.find(r)
	if t != nil {
		return t
	}
	if !(r >= 0) || len(tabs) >= maxBallRadii || g.balls.ids.Load() >= g.maxBallIDs() {
		return nil // a negative or NaN radius, or the memo is full
	}
	g.balls.mu.Lock()
	defer g.balls.mu.Unlock()
	if tabs, t = g.balls.find(r); t != nil || len(tabs) >= maxBallRadii {
		return t
	}
	t = &ballTable{r: r, balls: make([]atomic.Pointer[[]NodeID], len(g.pos))}
	next := append(tabs[:len(tabs):len(tabs)], t)
	g.balls.tables.Store(&next)
	return t
}

// fillBall scans v's ball at t's radius and publishes it if the grid's ID
// limit allows. The scan runs outside the lock; a concurrent fill of the
// same node computes the same IDs in the same order, and only the first to
// publish is counted.
func (g *Grid) fillBall(t *ballTable, v NodeID) ([]NodeID, bool) {
	limit := g.maxBallIDs()
	if g.balls.ids.Load() >= limit {
		return nil, false
	}
	scratch := radiusScratch.Get().(*[]NodeID)
	buf := (*scratch)[:0]
	g.index.forEachWithinRadius(g, g.pos[v], t.r, func(u NodeID) { buf = append(buf, u) })
	ball := slices.Clone(buf)
	*scratch = buf
	radiusScratch.Put(scratch)

	g.balls.mu.Lock()
	defer g.balls.mu.Unlock()
	if t.balls[v].Load() == nil {
		if n := g.balls.ids.Load() + int64(len(ball)); n <= limit {
			g.balls.ids.Store(n)
			t.balls[v].Store(&ball)
		} else {
			g.balls.ids.Store(limit)
		}
	}
	return ball, true
}

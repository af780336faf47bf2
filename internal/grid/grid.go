// Package grid implements the discrete grid G = (V, E) that the Route
// Planning Problem operates on (Section 2.1 of the paper), together with the
// two grid sources used in the evaluation: synthetic generators mirroring
// the paper's NetworkX-based grids (Section 4.1.1-II) and procedural ocean
// meshes standing in for the GSHHG/Gmsh real-world grids (Section 4.1.1-I).
//
// The grid is a directed weighted graph. The weight of an edge v_p -> v_q is
// the distance between the endpoint positions under the grid's metric, so
// weights are always consistent with geometry. Grids are immutable once
// built, except for a bounded memo of sensing balls that radius queries
// fill on first use and publish atomically; planners and simulations share
// them freely across goroutines.
package grid

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"github.com/routeplanning/mamorl/internal/geo"
)

// NodeID identifies a node in a grid. IDs are dense indices in [0, NumNodes).
type NodeID int32

// None is the sentinel value for "no node".
const None NodeID = -1

// Edge is a directed arc to a neighboring node with its travel distance.
type Edge struct {
	To     NodeID  `json:"to"`
	Weight float64 `json:"weight"`
}

// Grid is an immutable directed weighted graph embedded in the plane or on
// the globe. Construct one with a Builder or a generator. Its only mutable
// state is the sensing-ball memo, which is safe for concurrent use.
type Grid struct {
	name   string
	metric geo.Metric
	pos    []geo.Point
	adj    [][]Edge
	// in[v] lists the predecessors of v as Edge{To: predecessor, Weight}.
	// Reverse shortest-path trees (graphalg.ReverseTreeMulti) traverse it to
	// compute next-hops toward a target for every node at once.
	in [][]Edge

	arcs         int
	edges        int // undirected pair count (arcs where both directions exist count once)
	maxOutDegree int
	maxEdgeW     float64
	bounds       geo.Rect
	index        *spatialIndex
	balls        ballMemo
	// cosLat[v] is geo.CosLat of node v and unit[v] its position as a unit
	// vector on a geodesic grid (both nil on a planar one), so Distance
	// costs no cosine and a distance key no trig at all.
	cosLat []float64
	unit   [][3]float64
	// strong records that every node reaches every other along arcs.
	strong bool
}

// MaxEdgeWeight returns the largest arc weight: an upper bound on the
// distance one move can cover, used by planners to bound where a teammate
// may have sailed since its last known position.
func (g *Grid) MaxEdgeWeight() float64 { return g.maxEdgeW }

// Name returns the human-readable grid name (e.g. "caribbean").
func (g *Grid) Name() string { return g.name }

// Metric returns the distance metric positions are measured under.
func (g *Grid) Metric() geo.Metric { return g.metric }

// NumNodes returns |V|.
func (g *Grid) NumNodes() int { return len(g.pos) }

// NumEdges returns |E| counted as undirected pairs, matching how the paper's
// Table 3 reports edge counts for its mesh datasets. A symmetric pair of
// arcs contributes 1; a one-way arc also contributes 1.
func (g *Grid) NumEdges() int { return g.edges }

// NumArcs returns the number of directed arcs.
func (g *Grid) NumArcs() int { return g.arcs }

// MaxOutDegree returns D_max, the maximum out-degree over all nodes. It is
// the normalizer of the exploration reward (Equation 1).
func (g *Grid) MaxOutDegree() int { return g.maxOutDegree }

// StronglyConnected reports whether every node reaches every other node
// along arcs. Build decides it once with two BFS from node 0, one over
// out-arcs and one over in-arcs. On such a grid every source reaches every
// destination unless obstacles cut the way, so sim.Scenario.Validate runs
// its reachability BFS only for scenarios with obstacles or on grids where
// this is false (uploads with one-way arcs).
func (g *Grid) StronglyConnected() bool { return g.strong }

// Pos returns the position of node v.
func (g *Grid) Pos(v NodeID) geo.Point { return g.pos[v] }

// Neighbors returns the out-edges of v. The returned slice is shared and
// must not be modified.
func (g *Grid) Neighbors(v NodeID) []Edge { return g.adj[v] }

// OutDegree returns the number of out-edges of v.
func (g *Grid) OutDegree(v NodeID) int { return len(g.adj[v]) }

// InEdges returns the in-edges of v: each entry's To field is a predecessor
// node u with an arc u -> v of the entry's Weight. The returned slice is
// shared and must not be modified.
func (g *Grid) InEdges(v NodeID) []Edge { return g.in[v] }

// EdgeWeight returns the weight of the arc v -> w, or an error if the arc
// does not exist.
func (g *Grid) EdgeWeight(v, w NodeID) (float64, error) {
	for _, e := range g.adj[v] {
		if e.To == w {
			return e.Weight, nil
		}
	}
	return 0, fmt.Errorf("grid: no edge %d -> %d", v, w)
}

// HasEdge reports whether the arc v -> w exists.
func (g *Grid) HasEdge(v, w NodeID) bool {
	_, err := g.EdgeWeight(v, w)
	return err == nil
}

// Bounds returns the bounding rectangle of all node positions.
func (g *Grid) Bounds() geo.Rect { return g.bounds }

// Distance returns the metric distance between the positions of two nodes.
// On a geodesic grid it reads the cached latitude cosines; its bits equal
// those of geo.Haversine.
func (g *Grid) Distance(v, w NodeID) float64 {
	if g.cosLat != nil {
		return geo.HaversineCos(g.pos[v], g.pos[w], g.cosLat[v], g.cosLat[w])
	}
	return geo.Euclidean(g.pos[v], g.pos[w])
}

// DistKey is a node pair's distance key: a number that grows with the
// pair's Distance and costs no trig to take. On a geodesic grid it is the
// squared chord between the two nodes' cached unit vectors, 4× the
// haversine term in exact arithmetic; on a planar grid it is the squared
// length. Compare keys with Shorter.
type DistKey struct {
	from, to NodeID
	key      float64
}

// DistKey returns the distance key of the pair (v, w).
func (g *Grid) DistKey(v, w NodeID) DistKey {
	if g.unit != nil {
		p, q := &g.unit[v], &g.unit[w]
		dx, dy, dz := p[0]-q[0], p[1]-q[1], p[2]-q[2]
		return DistKey{v, w, dx*dx + dy*dy + dz*dz}
	}
	p, q := g.pos[v], g.pos[w]
	dx, dy := p.X-q.X, p.Y-q.Y
	return DistKey{v, w, dx*dx + dy*dy}
}

const (
	// keyFloor is the smallest key Shorter decides from: a chord of 1e-5
	// Earth radii, about 64 m.
	keyFloor = 1e-10
	// nearTie is the relative gap between two distance keys below which
	// Shorter compares the distances themselves.
	nearTie = 1e-9
)

// Shorter reports whether the Distance of x's pair is less than that of
// y's pair, with exactly the answer comparing the two Distance calls gives.
// Keys decide it only when both exceed keyFloor and they differ by more
// than a relative nearTie; otherwise Shorter compares the two Distance
// calls. Each unit-vector component is off by a few ulps, so a computed
// chord² is off by about 1e-15·chord in absolute terms: above the floor
// its relative error is below 1e-10, an order of magnitude inside nearTie,
// and a gap that wide also survives the rounding of the haversine, its
// square root and its arcsine. Planar keys are exact up to one rounding of
// the squares and their sum.
func (g *Grid) Shorter(x, y DistKey) bool {
	if decisive(x.key, y.key) {
		return x.key < y.key
	}
	return g.Distance(x.from, x.to) < g.Distance(y.from, y.to)
}

// decisive reports whether keys x and y alone order their distances. It
// takes the builtin max, which inlines where math.Max does not; both keys
// are above keyFloor by then, so NaN and signed zeros never reach it.
func decisive(x, y float64) bool {
	return x > keyFloor && y > keyFloor && math.Abs(x-y) > nearTie*max(x, y)
}

// radiusScratch pools the gather buffer of WithinRadius and of ball
// fills. Grids are shared across concurrently executing runs (the parallel
// experiment executor, concurrent plan requests), so the scratch cannot
// live on the Grid itself.
var radiusScratch = sync.Pool{
	New: func() any { return &[]NodeID{} },
}

// WithinRadius returns all nodes whose position lies within distance r of
// the position of node v, including v itself. This is the sensing primitive:
// an asset at v with sensing radius r observes exactly these nodes
// (Section 2.2). Results are sorted by NodeID for determinism. It reads the
// same memoized ball as ForEachWithinRadius; once that ball is filled, the
// result is its only allocation.
func (g *Grid) WithinRadius(v NodeID, r float64) []NodeID {
	// Gather into a pooled scratch buffer, then copy into a single
	// exact-size result: one traversal, one allocation, and safe for
	// callers to retain the result.
	scratch := radiusScratch.Get().(*[]NodeID)
	buf := (*scratch)[:0]
	g.ForEachWithinRadius(v, r, func(u NodeID) { buf = append(buf, u) })
	var out []NodeID
	if len(buf) > 0 {
		slices.Sort(buf)
		out = make([]NodeID, len(buf))
		copy(out, buf)
	}
	*scratch = buf
	radiusScratch.Put(scratch)
	return out
}

// ForEachWithinRadius visits every node within distance r of node v.
// Simulation sensing and planner feature extraction issue this query for
// every asset and candidate move at every epoch, so the grid memoizes each
// node's ball per radius: the first query of v at r scans the spatial
// index and publishes the ball, and later queries read it without
// allocating. Every query visits the ball in the scan's order; use
// WithinRadius for an order sorted by NodeID. The memo holds at most a few
// radii and a bounded number of node IDs per grid; past either limit, and
// for a negative or NaN r, the query scans without allocating.
func (g *Grid) ForEachWithinRadius(v NodeID, r float64, fn func(NodeID)) {
	if ball, ok := g.ball(v, r); ok {
		for _, u := range ball {
			fn(u)
		}
		return
	}
	g.index.forEachWithinRadius(g, g.pos[v], r, fn)
}

// NearestNode returns the node whose position is closest to p.
func (g *Grid) NearestNode(p geo.Point) NodeID {
	return g.index.nearest(g, p)
}

// NodesInRect returns all nodes whose positions fall inside rect, sorted by
// NodeID. The partial-knowledge planner uses this to delimit the region the
// destination is known to lie in.
func (g *Grid) NodesInRect(rect geo.Rect) []NodeID {
	var out []NodeID
	for v := range g.pos {
		if rect.Contains(g.pos[v]) {
			out = append(out, NodeID(v))
		}
	}
	return out
}

// Builder assembles a Grid. Zero value is not usable; call NewBuilder.
type Builder struct {
	name   string
	metric geo.Metric
	pos    []geo.Point
	// out[v] lists the heads of v's arcs in the order they were added.
	// AddNode carves each list from arena with room for nodeArcs arcs.
	out   [][]NodeID
	arena []NodeID
	// wide holds arcKey(v, w) of every arc of each node with more than
	// scanLimit arcs, so that HasEdge costs O(1) at any degree: below the
	// limit it scans out[v].
	wide  map[uint64]struct{}
	edges int // undirected pair count, maintained incrementally
}

const (
	// nodeArcs is the room AddNode gives each node's arc list; nodeChunk
	// is how many node IDs one arena chunk holds (16 KiB).
	nodeArcs  = 8
	nodeChunk = 4096
	// scanLimit is the out-degree up to which HasEdge scans a node's list.
	scanLimit = 16
)

// arcKey packs the arc v -> w into one map key.
func arcKey(v, w NodeID) uint64 { return uint64(uint32(v))<<32 | uint64(uint32(w)) }

// NewBuilder returns a Builder for a grid measured under metric.
func NewBuilder(name string, metric geo.Metric) *Builder {
	return &Builder{name: name, metric: metric}
}

// AddNode appends a node at position p and returns its ID.
func (b *Builder) AddNode(p geo.Point) NodeID {
	b.pos = append(b.pos, p)
	if cap(b.arena)-len(b.arena) < nodeArcs {
		b.arena = make([]NodeID, 0, nodeChunk)
	}
	start := len(b.arena)
	b.arena = b.arena[:start+nodeArcs]
	b.out = append(b.out, b.arena[start:start:start+nodeArcs])
	return NodeID(len(b.pos) - 1)
}

// NumNodes returns the number of nodes added so far.
func (b *Builder) NumNodes() int { return len(b.pos) }

// Pos returns the position of an already-added node.
func (b *Builder) Pos(v NodeID) geo.Point { return b.pos[v] }

// AddArc adds the directed arc v -> w. Adding an existing arc or a self-loop
// is a no-op (the RPP has no use for self-loop travel; waiting is an action,
// not an edge).
func (b *Builder) AddArc(v, w NodeID) {
	if v == w || b.HasEdge(v, w) {
		return
	}
	b.out[v] = append(b.out[v], w)
	switch d := len(b.out[v]); {
	case d == scanLimit+1: // v turns wide: index all its arcs
		if b.wide == nil {
			b.wide = make(map[uint64]struct{})
		}
		for _, u := range b.out[v] {
			b.wide[arcKey(v, u)] = struct{}{}
		}
	case d > scanLimit+1:
		b.wide[arcKey(v, w)] = struct{}{}
	}
	if !b.HasEdge(w, v) {
		b.edges++ // first arc of this pair
	}
}

// AddEdge adds the symmetric pair of arcs v <-> w.
func (b *Builder) AddEdge(v, w NodeID) {
	b.AddArc(v, w)
	b.AddArc(w, v)
}

// RemoveEdge removes both arcs between v and w if present.
func (b *Builder) RemoveEdge(v, w NodeID) {
	if b.HasEdge(v, w) || b.HasEdge(w, v) {
		b.edges--
	}
	b.removeArc(v, w)
	b.removeArc(w, v)
}

// removeArc removes the arc v -> w if present. Arcs of a node that was
// once wide may stay in wide after its degree falls: they are still arcs.
func (b *Builder) removeArc(v, w NodeID) {
	if k := slices.Index(b.out[v], w); k >= 0 {
		b.out[v] = slices.Delete(b.out[v], k, k+1)
		delete(b.wide, arcKey(v, w))
	}
}

// HasEdge reports whether the arc v -> w is present.
func (b *Builder) HasEdge(v, w NodeID) bool {
	if len(b.out[v]) <= scanLimit {
		return slices.Contains(b.out[v], w)
	}
	_, ok := b.wide[arcKey(v, w)]
	return ok
}

// OutDegree returns the current out-degree of v.
func (b *Builder) OutDegree(v NodeID) int { return len(b.out[v]) }

// UndirectedEdgeCount returns the number of undirected pairs currently in
// the builder (a one-way arc counts as one pair).
func (b *Builder) UndirectedEdgeCount() int { return b.edges }

// Build finalizes the grid. Edge weights are computed from node positions
// under the metric. Build returns an error if the grid has no nodes, a
// coordinate is not finite, a geodesic latitude lies outside ±90°, an edge
// weight is not finite, or any node has no outgoing edge (an asset there
// could only wait forever).
func (b *Builder) Build() (*Grid, error) {
	if len(b.pos) == 0 {
		return nil, fmt.Errorf("grid %q: no nodes", b.name)
	}
	for v, p := range b.pos {
		if !finite(p.X) || !finite(p.Y) {
			return nil, fmt.Errorf("grid %q: node %d has a non-finite coordinate %v", b.name, v, p)
		}
		if b.metric == geo.Geodesic && (p.Y < -90 || p.Y > 90) {
			return nil, fmt.Errorf("grid %q: node %d has latitude %g outside ±90°", b.name, v, p.Y)
		}
	}
	g := &Grid{
		name:   b.name,
		metric: b.metric,
		pos:    append([]geo.Point(nil), b.pos...),
		adj:    make([][]Edge, len(b.pos)),
		in:     make([][]Edge, len(b.pos)),
	}
	// One slab holds every node's out-arcs and another its in-arcs, each
	// node's list capped at its own length.
	for _, out := range b.out {
		g.arcs += len(out)
	}
	slab := make([]Edge, 0, g.arcs)
	for v, out := range b.out {
		if len(out) == 0 {
			return nil, fmt.Errorf("grid %q: node %d has out-degree 0", b.name, v)
		}
		start := len(slab)
		for _, w := range out {
			weight := b.metric.Distance(b.pos[v], b.pos[w])
			if !finite(weight) {
				return nil, fmt.Errorf("grid %q: arc %d -> %d has non-finite weight %g", b.name, v, w, weight)
			}
			if weight <= 0 {
				// Coincident nodes produce zero-weight edges, which break the
				// time model (weight / speed = 0 time). Nudge to a tiny
				// positive value.
				weight = 1e-9
			}
			slab = append(slab, Edge{To: w, Weight: weight})
		}
		edges := slab[start:len(slab):len(slab)]
		// Heads are unique, so the order is total.
		slices.SortFunc(edges, func(x, y Edge) int { return cmp.Compare(x.To, y.To) })
		g.adj[v] = edges
		if len(edges) > g.maxOutDegree {
			g.maxOutDegree = len(edges)
		}
		for _, e := range edges {
			if e.Weight > g.maxEdgeW {
				g.maxEdgeW = e.Weight
			}
		}
	}
	g.edges = b.edges
	indeg := make([]int, len(g.pos))
	for _, e := range slab {
		indeg[e.To]++
	}
	inSlab, off := make([]Edge, g.arcs), 0
	for v, d := range indeg {
		g.in[v] = inSlab[off : off : off+d]
		off += d
	}
	// Out-edges are sorted by To and visited in node order, so each in-edge
	// list is already sorted by predecessor ID — deterministic without an
	// extra sort.
	for v, edges := range g.adj {
		for _, e := range edges {
			g.in[e.To] = append(g.in[e.To], Edge{To: NodeID(v), Weight: e.Weight})
		}
	}
	g.strong = reachesAll(g.adj) && reachesAll(g.in)
	g.bounds = geo.Bound(g.pos)
	g.index = newSpatialIndex(g)
	if g.metric == geo.Geodesic {
		g.cosLat = make([]float64, len(g.pos))
		g.unit = make([][3]float64, len(g.pos))
		for v, p := range g.pos {
			g.cosLat[v] = geo.CosLat(p)
			// Reducing the longitude first is exact and keeps the radian
			// conversion's rounding a few ulps wherever the input lies.
			lon := math.Mod(p.X, 360) * math.Pi / 180
			c := g.cosLat[v]
			g.unit[v] = [3]float64{c * math.Cos(lon), c * math.Sin(lon), math.Sin(p.Y * math.Pi / 180)}
		}
	}
	return g, nil
}

// reachesAll reports whether a BFS from node 0 along the lists of adj
// reaches every node.
func reachesAll(adj [][]Edge) bool {
	seen := make([]bool, len(adj))
	seen[0] = true
	queue := append(make([]NodeID, 0, len(adj)), 0)
	for head := 0; head < len(queue); head++ {
		for _, e := range adj[queue[head]] {
			if !seen[e.To] {
				seen[e.To] = true
				queue = append(queue, e.To)
			}
		}
	}
	return len(queue) == len(adj)
}

// finite reports whether x is neither infinite nor NaN.
func finite(x float64) bool { return !math.IsInf(x, 0) && !math.IsNaN(x) }

// MustBuild is Build that panics on error, for generators whose construction
// is guaranteed valid and for tests.
func (b *Builder) MustBuild() *Grid {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// AvgEdgeWeight returns the mean arc weight, a convenient scale for sensing
// radii and region sizes in experiments.
func (g *Grid) AvgEdgeWeight() float64 {
	if g.arcs == 0 {
		return 0
	}
	sum := 0.0
	for _, edges := range g.adj {
		for _, e := range edges {
			sum += e.Weight
		}
	}
	return sum / float64(g.arcs)
}

// Stats summarizes a grid for logging and the Table 3 reproduction.
type Stats struct {
	Name         string
	Nodes        int
	Edges        int
	Arcs         int
	MaxOutDegree int
	AvgOutDegree float64
	AvgEdgeW     float64
}

// Stats returns summary statistics of the grid.
func (g *Grid) Stats() Stats {
	return Stats{
		Name:         g.name,
		Nodes:        g.NumNodes(),
		Edges:        g.NumEdges(),
		Arcs:         g.NumArcs(),
		MaxOutDegree: g.MaxOutDegree(),
		AvgOutDegree: float64(g.arcs) / float64(len(g.pos)),
		AvgEdgeW:     g.AvgEdgeWeight(),
	}
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf("%s: |V|=%d |E|=%d arcs=%d Dmax=%d avgDeg=%.2f avgW=%.3f",
		s.Name, s.Nodes, s.Edges, s.Arcs, s.MaxOutDegree, s.AvgOutDegree, s.AvgEdgeW)
}

// clampInt bounds v to [lo, hi].
func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// approxCellSize picks a spatial-index cell size from the grid extent so
// that cells hold a handful of nodes each.
func approxCellSize(bounds geo.Rect, n int) float64 {
	area := bounds.Width() * bounds.Height()
	if area <= 0 || n == 0 {
		return 1
	}
	return math.Sqrt(area/float64(n)) * 2
}

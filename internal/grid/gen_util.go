package grid

import (
	"math"
	"slices"

	"github.com/routeplanning/mamorl/internal/geo"
)

// Generator helpers shared by the synthetic and ocean-mesh generators.
// k-nearest-neighbor candidate search runs in a scaled planar space: for
// geodesic grids, X is compressed by cos(mid-latitude) so that degree-space
// proximity approximates true distance. Candidates are only used to propose
// edges; final weights always come from the true metric.

// scaleForKNN maps positions into a space where Euclidean distance
// approximates the grid metric, for neighbor candidate search.
func scaleForKNN(pts []geo.Point, metric geo.Metric) []geo.Point {
	if metric != geo.Geodesic || len(pts) == 0 {
		return pts
	}
	b := geo.Bound(pts)
	c := math.Cos((b.MinY + b.MaxY) / 2 * math.Pi / 180)
	if c < 0.05 {
		c = 0.05
	}
	out := make([]geo.Point, len(pts))
	for i, p := range pts {
		out[i] = geo.Point{X: p.X * c, Y: p.Y}
	}
	return out
}

// buckets is a uniform hash of points for approximate kNN queries.
type buckets struct {
	cell   float64
	cols   int
	rows   int
	origin geo.Point
	cells  [][]int32
	pts    []geo.Point
	// cands is knn's candidate scratch, reused across queries.
	cands []knnCand
}

// knnCand is a kNN candidate point with its distance to the query point.
type knnCand struct {
	idx int32
	d   float64
}

// cmpDist orders two candidate distances for slices.SortFunc. It is
// negative exactly when a < b, and slices.SortFunc runs the same pdqsort as
// sort.Slice with that less function, minus the reflection: equal distances
// keep sort.Slice's order, and TestGeneratedGridsGolden pins the grids that
// order produces.
func cmpDist(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func newBuckets(pts []geo.Point) *buckets {
	b := geo.Bound(pts)
	cell := approxCellSize(b, len(pts))
	bk := &buckets{
		cell:   cell,
		cols:   clampInt(int(math.Ceil(b.Width()/cell))+1, 1, 4096),
		rows:   clampInt(int(math.Ceil(b.Height()/cell))+1, 1, 4096),
		origin: geo.Point{X: b.MinX, Y: b.MinY},
		pts:    pts,
	}
	bk.cells = make([][]int32, bk.cols*bk.rows)
	for i, p := range pts {
		c := bk.cellOf(p)
		bk.cells[c] = append(bk.cells[c], int32(i))
	}
	return bk
}

func (bk *buckets) cellOf(p geo.Point) int {
	cx := clampInt(int((p.X-bk.origin.X)/bk.cell), 0, bk.cols-1)
	cy := clampInt(int((p.Y-bk.origin.Y)/bk.cell), 0, bk.rows-1)
	return cy*bk.cols + cx
}

// knn returns the indices of the k points nearest to point i (excluding i),
// ordered by increasing distance. It expands a square ring of cells until
// enough candidates are found, then one extra ring to guarantee correctness
// within the bucket approximation.
func (bk *buckets) knn(i, k int) []int32 {
	p := bk.pts[i]
	cx := clampInt(int((p.X-bk.origin.X)/bk.cell), 0, bk.cols-1)
	cy := clampInt(int((p.Y-bk.origin.Y)/bk.cell), 0, bk.rows-1)

	cands := bk.cands[:0]
	maxR := bk.cols
	if bk.rows > maxR {
		maxR = bk.rows
	}
	enough := -1
	for r := 0; r <= maxR; r++ {
		// Visit the ring of cells at Chebyshev radius r.
		for dy := -r; dy <= r; dy++ {
			y := cy + dy
			if y < 0 || y >= bk.rows {
				continue
			}
			for dx := -r; dx <= r; dx++ {
				if r > 0 && dx > -r && dx < r && dy > -r && dy < r {
					continue // interior already visited
				}
				x := cx + dx
				if x < 0 || x >= bk.cols {
					continue
				}
				for _, j := range bk.cells[y*bk.cols+x] {
					if int(j) == i {
						continue
					}
					cands = append(cands, knnCand{j, geo.Euclidean(p, bk.pts[j])})
				}
			}
		}
		if enough >= 0 && r > enough {
			break
		}
		if enough < 0 && len(cands) >= k {
			enough = r + 1 // one extra ring for safety
		}
	}
	bk.cands = cands
	slices.SortFunc(cands, func(a, b knnCand) int { return cmpDist(a.d, b.d) })
	if len(cands) > k {
		cands = cands[:k]
	}
	out := make([]int32, len(cands))
	for j, c := range cands {
		out[j] = c.idx
	}
	return out
}

// unionFind is a standard disjoint-set structure used to keep generated
// grids connected.
type unionFind struct {
	parent []int32
	rank   []int8
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int32, n), rank: make([]int8, n)}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
	}
	return uf
}

func (uf *unionFind) find(x int32) int32 {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

// union merges the sets of a and b, reporting whether they were distinct.
func (uf *unionFind) union(a, b int32) bool {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return false
	}
	if uf.rank[ra] < uf.rank[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	if uf.rank[ra] == uf.rank[rb] {
		uf.rank[ra]++
	}
	return true
}

// componentsOf labels the connected components of the builder's current
// undirected structure, returning the label array and component count.
func componentsOf(b *Builder) ([]int32, int) {
	n := b.NumNodes()
	label := make([]int32, n)
	for i := range label {
		label[i] = -1
	}
	comp := int32(0)
	queue := make([]NodeID, 0, n)
	for start := 0; start < n; start++ {
		if label[start] >= 0 {
			continue
		}
		label[start] = comp
		queue = append(queue[:0], NodeID(start))
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for w := range b.adj[v] {
				if label[w] < 0 {
					label[w] = comp
					queue = append(queue, w)
				}
			}
		}
		comp++
	}
	return label, int(comp)
}

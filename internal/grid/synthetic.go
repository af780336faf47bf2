package grid

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"github.com/routeplanning/mamorl/internal/geo"
)

// SyntheticConfig controls GenerateSynthetic. It exposes exactly the three
// knobs the paper varies in its synthetic experiments (Section 4.1.1-II):
// number of nodes, number of edges, and maximum out-degree.
type SyntheticConfig struct {
	// Name labels the generated grid. Optional.
	Name string
	// Nodes is |V|. Must be >= 2.
	Nodes int
	// Edges is the undirected edge target |E|. If the target is infeasible
	// (below the |V|-1 needed for connectivity or above what MaxOutDegree
	// permits) GenerateSynthetic returns an error.
	Edges int
	// MaxOutDegree caps the out-degree of every node (the paper's D_max).
	MaxOutDegree int
	// Seed makes generation deterministic.
	Seed int64
}

// Validate checks the configuration for feasibility.
func (c SyntheticConfig) Validate() error {
	if c.Nodes < 2 {
		return fmt.Errorf("synthetic grid: need at least 2 nodes, got %d", c.Nodes)
	}
	if c.MaxOutDegree < 2 {
		return fmt.Errorf("synthetic grid: MaxOutDegree must be >= 2, got %d", c.MaxOutDegree)
	}
	if c.Edges < c.Nodes-1 {
		return fmt.Errorf("synthetic grid: %d edges cannot connect %d nodes", c.Edges, c.Nodes)
	}
	if max := c.Nodes * c.MaxOutDegree / 2; c.Edges > max {
		return fmt.Errorf("synthetic grid: %d edges exceed degree-cap maximum %d", c.Edges, max)
	}
	return nil
}

// GenerateSynthetic produces a connected planar-embedded random geometric
// graph with the requested |V|, |E| and out-degree cap. It replaces the
// paper's NetworkX generators: nodes are scattered uniformly on a plane,
// joined into a connected backbone by a nearest-neighbor tree, then the
// shortest remaining candidate edges are added until |E| is reached.
// All edges are symmetric pairs of arcs, so out-degree equals undirected
// degree and the cap is exact.
func GenerateSynthetic(cfg SyntheticConfig) (*Grid, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	name := cfg.Name
	if name == "" {
		name = fmt.Sprintf("synthetic-v%d-e%d-d%d", cfg.Nodes, cfg.Edges, cfg.MaxOutDegree)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Scatter nodes with unit mean density: side length sqrt(|V|) * spacing.
	const spacing = 10.0
	side := spacing * math.Sqrt(float64(cfg.Nodes))
	b := NewBuilder(name, geo.Planar)
	pts := make([]geo.Point, cfg.Nodes)
	for i := range pts {
		pts[i] = geo.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
		b.AddNode(pts[i])
	}

	bk := newBuckets(pts)
	k := cfg.MaxOutDegree + 4
	if k > cfg.Nodes-1 {
		k = cfg.Nodes - 1
	}
	neighbors := make([][]int32, cfg.Nodes)
	for i := range neighbors {
		neighbors[i] = bk.knn(i, k)
	}

	if err := connectAndFill(b, rng, neighbors, cfg.Edges, cfg.MaxOutDegree); err != nil {
		return nil, fmt.Errorf("synthetic grid: %w", err)
	}
	return b.Build()
}

// connectAndFill builds a connected graph hitting the target undirected edge
// count under a degree cap, using per-node candidate neighbor lists. Shared
// with the ocean-mesh generator.
func connectAndFill(b *Builder, rng *rand.Rand, neighbors [][]int32, targetEdges, maxDeg int) error {
	n := b.NumNodes()
	uf := newUnionFind(n)

	// Pass 1: spanning connectivity along short candidate edges. Iterating
	// candidates in per-node nearest-first order keeps the backbone
	// geometric (edges connect nearby nodes).
	for round := 0; round < len(neighbors[0])+1; round++ {
		done := true
		for v := 0; v < n; v++ {
			if round >= len(neighbors[v]) {
				continue
			}
			done = false
			w := neighbors[v][round]
			if uf.find(int32(v)) == uf.find(w) {
				continue
			}
			if b.OutDegree(NodeID(v)) >= maxDeg || b.OutDegree(NodeID(w)) >= maxDeg {
				continue
			}
			b.AddEdge(NodeID(v), NodeID(w))
			uf.union(int32(v), w)
		}
		if done {
			break
		}
	}

	// Pass 2: bridge any remaining components, relaxing the candidate-list
	// restriction (connect nearest pair across components by brute force).
	label, comps := componentsOf(b)
	for comps > 1 {
		if !bridgeComponents(b, label) {
			return fmt.Errorf("cannot connect graph under degree cap %d", maxDeg)
		}
		label, comps = componentsOf(b)
	}

	// Pass 3: densify to the edge target with shortest unused candidates.
	var cands []candPair
	for v := 0; v < n; v++ {
		for _, w := range neighbors[v] {
			if int32(v) < w && !b.HasEdge(NodeID(v), NodeID(w)) {
				cands = append(cands, candPair{int32(v), w, geo.Euclidean(b.Pos(NodeID(v)), b.Pos(NodeID(w)))})
			}
		}
	}
	slices.SortFunc(cands, func(a, b candPair) int { return cmpDist(a.d, b.d) })
	for _, c := range cands {
		if b.UndirectedEdgeCount() >= targetEdges {
			break
		}
		if b.HasEdge(NodeID(c.v), NodeID(c.w)) {
			continue
		}
		if b.OutDegree(NodeID(c.v)) >= maxDeg || b.OutDegree(NodeID(c.w)) >= maxDeg {
			continue
		}
		b.AddEdge(NodeID(c.v), NodeID(c.w))
	}

	// Pass 4: if candidates ran out (degree caps bind locally), fall back to
	// random pairs with spare capacity.
	guard := 50 * n
	for b.UndirectedEdgeCount() < targetEdges && guard > 0 {
		guard--
		v := NodeID(rng.Intn(n))
		w := NodeID(rng.Intn(n))
		if v == w || b.HasEdge(v, w) {
			continue
		}
		if b.OutDegree(v) >= maxDeg || b.OutDegree(w) >= maxDeg {
			continue
		}
		b.AddEdge(v, w)
	}
	if got := b.UndirectedEdgeCount(); got < targetEdges {
		return fmt.Errorf("only placed %d of %d edges under degree cap %d", got, targetEdges, maxDeg)
	}
	return nil
}

// bridgeComponents adds one edge joining the nearest pair of nodes that lie
// in different components. Connectivity takes priority over the degree cap;
// bridges are rare (usually zero) and do not disturb degree statistics.
// Reports whether a bridge was added.
func bridgeComponents(b *Builder, label []int32) bool {
	n := b.NumNodes()
	bestV, bestW := None, None
	bestD := -1.0
	for v := 0; v < n; v++ {
		for w := v + 1; w < n; w++ {
			if label[v] == label[w] {
				continue
			}
			d := geo.Euclidean(b.Pos(NodeID(v)), b.Pos(NodeID(w)))
			if bestD < 0 || d < bestD {
				bestD = d
				bestV, bestW = NodeID(v), NodeID(w)
			}
		}
	}
	if bestV == None {
		return false
	}
	b.AddEdge(bestV, bestW)
	return true
}

// candPair is a candidate undirected edge with its length.
type candPair struct {
	v, w int32
	d    float64
}

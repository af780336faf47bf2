package grid

import (
	"math"
	"slices"
	"sync"
	"testing"

	"github.com/routeplanning/mamorl/internal/geo"
)

// published reports how many ball tables g holds and how many node IDs
// their filled balls hold together.
func published(g *Grid) (tables int, ids int) {
	p := g.balls.tables.Load()
	if p == nil {
		return 0, 0
	}
	for _, t := range *p {
		for v := range t.balls {
			if b := t.balls[v].Load(); b != nil {
				ids += len(*b)
			}
		}
	}
	return len(*p), ids
}

// diameter returns the largest metric distance between two nodes of g.
func diameter(g *Grid) float64 {
	d := 0.0
	for v := range g.pos {
		for u := range g.pos {
			d = math.Max(d, g.metric.Distance(g.pos[v], g.pos[u]))
		}
	}
	return d
}

// visits collects what ForEachWithinRadius visits, in order.
func visits(g *Grid, v NodeID, r float64) []NodeID {
	var out []NodeID
	g.ForEachWithinRadius(v, r, func(u NodeID) { out = append(out, u) })
	return out
}

// TestBallTablesMatchBruteForce checks every node's memoized ball against
// the O(V) oracle on a planar and a geodesic grid, at radius 0, at 1.2 and
// 3 mean edge weights, and at the grid's diameter, where every ball is the
// whole grid. Cold and warm queries must visit exactly the spatial index's
// scan sequence, and the balls of all four radii together must stay within
// the grid's ID limit; queries past it still answer by scanning.
func TestBallTablesMatchBruteForce(t *testing.T) {
	planar, err := GenerateSynthetic(SyntheticConfig{Nodes: 150, Edges: 330, MaxOutDegree: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := GenerateOceanMesh(OceanMeshConfig{
		Name:   "balls",
		Region: geo.NewRect(geo.Point{X: -80, Y: -35}, geo.Point{X: 10, Y: 60}),
		Nodes:  200, Edges: 450, MaxOutDegree: 6, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*Grid{planar, mesh} {
		radii := []float64{0, 1.2 * g.AvgEdgeWeight(), 3 * g.AvgEdgeWeight(), diameter(g)}
		for _, r := range radii {
			for v := range g.pos {
				scan := g.index.withinRadius(g, g.pos[v], r)
				cold := visits(g, NodeID(v), r)
				warm := visits(g, NodeID(v), r)
				if !slices.Equal(cold, scan) || !slices.Equal(warm, scan) {
					t.Fatalf("%s r=%v node %d: cold %v, warm %v, scan order %v", g.name, r, v, cold, warm, scan)
				}
				if want := bruteWithinRadius(g, NodeID(v), r); !slices.Equal(g.WithinRadius(NodeID(v), r), want) {
					t.Fatalf("%s r=%v node %d: WithinRadius disagrees with the oracle %v", g.name, r, v, want)
				}
			}
		}
		tables, ids := published(g)
		if tables != len(radii) {
			t.Errorf("%s: %d ball tables, want %d", g.name, tables, len(radii))
		}
		// Whole-grid balls cannot all fit, so the diameter radius must have
		// closed the memo at its limit.
		if limit := g.maxBallIDs(); int64(ids) > limit || g.balls.ids.Load() != limit {
			t.Errorf("%s: %d IDs published (counter %d), want the counter closed at the limit %d", g.name, ids, g.balls.ids.Load(), limit)
		}
	}
}

// TestBallTableLimits checks the radius limit: a fifth distinct radius is
// answered by the scan and adds no table, and a NaN or negative radius
// never gets one.
func TestBallTableLimits(t *testing.T) {
	g, err := GenerateSynthetic(SyntheticConfig{Nodes: 120, Edges: 260, MaxOutDegree: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []float64{math.NaN(), -1} {
		if got := visits(g, 0, r); len(got) != 0 {
			t.Errorf("r=%v visits %v, want nothing", r, got)
		}
		if tables, _ := published(g); tables != 0 {
			t.Fatalf("r=%v added a ball table", r)
		}
	}
	w := g.AvgEdgeWeight()
	for k := 1; k <= maxBallRadii; k++ {
		_ = visits(g, 0, float64(k)*w)
	}
	tables, ids := published(g)
	if tables != maxBallRadii {
		t.Fatalf("%d tables after %d radii", tables, maxBallRadii)
	}
	fifth := 2.5 * w
	for v := range g.pos {
		if got, want := g.WithinRadius(NodeID(v), fifth), bruteWithinRadius(g, NodeID(v), fifth); !slices.Equal(got, want) {
			t.Fatalf("fifth radius, node %d: %v, oracle %v", v, got, want)
		}
	}
	if t2, ids2 := published(g); t2 != tables || ids2 != ids {
		t.Errorf("fifth radius changed the memo: %d tables / %d IDs, was %d / %d", t2, ids2, tables, ids)
	}
}

// TestBallColdFillRace has 8 goroutines fill one fresh grid's table at one
// radius concurrently, in the same node order, so they race to add the
// table and to fill each ball; every ball must equal the oracle's. Run it
// under -race: the fills publish while the others read.
func TestBallColdFillRace(t *testing.T) {
	g, err := GenerateSynthetic(SyntheticConfig{Nodes: 300, Edges: 640, MaxOutDegree: 8, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	r := 1.5 * g.AvgEdgeWeight()
	want := make([][]NodeID, g.NumNodes())
	for v := range want {
		want[v] = bruteWithinRadius(g, NodeID(v), r)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for v := range want {
				got := visits(g, NodeID(v), r)
				slices.Sort(got)
				if !slices.Equal(got, want[v]) {
					t.Errorf("goroutine %d node %d: %v, oracle %v", w, v, got, want[v])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	tables, ids := published(g)
	if tables != 1 || int64(ids) != g.balls.ids.Load() {
		t.Errorf("%d tables, %d IDs published, counter %d", tables, ids, g.balls.ids.Load())
	}
}

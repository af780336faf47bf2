package grid

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/routeplanning/mamorl/internal/geo"
)

// tiesGrid builds a small grid of constructed near-ties and exact ties
// around a center node u (node 0) under metric: a node coincident with u,
// pairs mirrored about u along each axis and both diagonals, two coincident
// nodes away from u, and nodes whose key to u lies just above or just
// below keyFloor. On the globe it adds u's antipode and nodes just off it.
func tiesGrid(metric geo.Metric) *Grid {
	c := geo.Point{X: 5, Y: 5}
	floor := math.Sqrt(keyFloor) // the offset whose key is keyFloor
	if metric == geo.Geodesic {
		c = geo.Point{X: -75.25, Y: 15.5}
		floor *= 180 / math.Pi // a latitude offset of that chord, in degrees
	}
	pts := []geo.Point{c, c}
	for _, d := range []float64{1e-7, 0.01, 0.37, 2.5} {
		pts = append(pts,
			geo.Point{X: c.X + d, Y: c.Y}, geo.Point{X: c.X - d, Y: c.Y},
			geo.Point{X: c.X, Y: c.Y + d}, geo.Point{X: c.X, Y: c.Y - d},
			geo.Point{X: c.X + d, Y: c.Y + d}, geo.Point{X: c.X - d, Y: c.Y - d},
			geo.Point{X: c.X + d, Y: c.Y - d}, geo.Point{X: c.X - d, Y: c.Y + d})
	}
	far := geo.Point{X: c.X + 3, Y: c.Y - 1}
	pts = append(pts, far, far)
	for _, f := range []float64{1 - 1e-3, 1 - 1e-7, 1 + 1e-7, 1 + 1e-3} {
		pts = append(pts, geo.Point{X: c.X, Y: c.Y + f*floor}, geo.Point{X: c.X, Y: c.Y - f*floor})
	}
	if metric == geo.Geodesic {
		anti := geo.Point{X: c.X + 180, Y: -c.Y}
		pts = append(pts, anti)
		for _, d := range []float64{1e-7, 1e-4, 0.01} {
			pts = append(pts,
				geo.Point{X: anti.X + d, Y: anti.Y}, geo.Point{X: anti.X - d, Y: anti.Y},
				geo.Point{X: anti.X, Y: anti.Y + d}, geo.Point{X: anti.X, Y: anti.Y - d})
		}
	}
	b := NewBuilder("ties", metric)
	for _, p := range pts {
		b.AddNode(p)
	}
	for v := 1; v < len(pts); v++ {
		b.AddEdge(NodeID(v-1), NodeID(v))
	}
	return b.MustBuild()
}

// TestShorterMatchesDistance: Shorter(DistKey(a, u), DistKey(b, u)) gives
// exactly the answer of Distance(a, u) < Distance(b, u) — on the Caribbean
// mesh and a planar synthetic grid over a million seeded random triples
// each, and over every triple of constructed ties (a = b, a teammate on u,
// coincident positions, points mirrored about u, keys either side of the
// floor, antipodes) on both metrics.
func TestShorterMatchesDistance(t *testing.T) {
	caribbean, err := CaribbeanGrid(5)
	if err != nil {
		t.Fatal(err)
	}
	planar, err := GenerateSynthetic(SyntheticConfig{Nodes: 400, Edges: 846, MaxOutDegree: 9, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// compare checks one triple and returns its two keys.
	compare := func(t *testing.T, g *Grid, a, b, u NodeID) (x, y DistKey) {
		t.Helper()
		x, y = g.DistKey(a, u), g.DistKey(b, u)
		want := g.Distance(a, u) < g.Distance(b, u)
		if got := g.Shorter(x, y); got != want {
			t.Fatalf("%s: Shorter for a=%d b=%d u=%d is %v, Distance says %v (keys %g, %g)",
				g.Name(), a, b, u, got, want, x.key, y.key)
		}
		return x, y
	}
	for _, g := range []*Grid{caribbean, planar} {
		t.Run("random/"+g.Metric().String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(g.NumNodes())))
			const triples = 1_000_000
			near := 0
			for k := 0; k < triples; k++ {
				n := g.NumNodes()
				if x, y := compare(t, g, NodeID(rng.Intn(n)), NodeID(rng.Intn(n)), NodeID(rng.Intn(n))); !decisive(x.key, y.key) {
					near++
				}
			}
			t.Logf("%s: %d of %d comparisons fell back to Distance", g.Name(), near, triples)
		})
	}
	for _, metric := range []geo.Metric{geo.Planar, geo.Geodesic} {
		t.Run("ties/"+metric.String(), func(t *testing.T) {
			g := tiesGrid(metric)
			n := NodeID(g.NumNodes())
			// near counts triples whose keys fell back to Distance; under
			// and over count those where a key just under the floor fell
			// back and where keys just over it decided.
			near, under, over := 0, 0, 0
			for u := NodeID(0); u < n; u++ {
				for a := NodeID(0); a < n; a++ {
					for b := NodeID(0); b < n; b++ {
						x, y := compare(t, g, a, b, u)
						lo := math.Min(x.key, y.key)
						switch {
						case !decisive(x.key, y.key):
							near++
							if lo > keyFloor/2 && lo <= keyFloor {
								under++
							}
						case lo < 2*keyFloor:
							over++
						}
					}
				}
			}
			if near == 0 || under == 0 || over == 0 {
				t.Fatalf("constructed triples missed a case: %d fell back, %d just under the floor, %d decided just over it",
					near, under, over)
			}
			if metric == geo.Geodesic {
				widest := 0.0
				for v := NodeID(0); v < n; v++ {
					widest = math.Max(widest, g.DistKey(0, v).key)
				}
				if widest < 4-1e-12 {
					t.Fatalf("no constructed node is the center's antipode: widest key %g", widest)
				}
			}
		})
	}
}

// TestDistKeyCosineCache: a geodesic grid caches geo.CosLat and a unit
// vector for every node, and a planar grid caches neither.
func TestDistKeyCosineCache(t *testing.T) {
	g := tiesGrid(geo.Geodesic)
	if len(g.cosLat) != g.NumNodes() || len(g.unit) != g.NumNodes() {
		t.Fatalf("geodesic grid caches %d cosines and %d unit vectors for %d nodes",
			len(g.cosLat), len(g.unit), g.NumNodes())
	}
	for v := range g.cosLat {
		if want := geo.CosLat(g.Pos(NodeID(v))); g.cosLat[v] != want {
			t.Fatalf("cosLat[%d] = %v, want %v", v, g.cosLat[v], want)
		}
		u := g.unit[v]
		if norm := u[0]*u[0] + u[1]*u[1] + u[2]*u[2]; math.Abs(norm-1) > 1e-15 {
			t.Fatalf("unit[%d] = %v has squared norm %v", v, u, norm)
		}
	}
	if p := tiesGrid(geo.Planar); p.cosLat != nil || p.unit != nil {
		t.Fatal("planar grid caches latitude cosines or unit vectors")
	}
}

// TestDistanceMatchesHaversineBits: a geodesic grid's Distance, built from
// its cached cosines, has the bits of geo.Haversine of the two positions,
// over every arc of the Caribbean mesh and 10⁵ seeded node pairs.
func TestDistanceMatchesHaversineBits(t *testing.T) {
	g, err := CaribbeanGrid(5)
	if err != nil {
		t.Fatal(err)
	}
	check := func(v, w NodeID) {
		t.Helper()
		got, want := g.Distance(v, w), geo.Haversine(g.Pos(v), g.Pos(w))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Distance(%d, %d) = %v, geo.Haversine = %v", v, w, got, want)
		}
	}
	for v := range g.adj {
		for _, e := range g.adj[v] {
			check(NodeID(v), e.To)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for k := 0; k < 100_000; k++ {
		check(NodeID(rng.Intn(g.NumNodes())), NodeID(rng.Intn(g.NumNodes())))
	}
}

// TestBuildRejectsInvalidCoordinates: Build and Decode refuse a geodesic
// latitude beyond ±90° (two such nodes can name one point with a haversine
// term that rounds below 0, a NaN distance), a non-finite coordinate, and
// a non-finite edge weight; the poles themselves are fine.
func TestBuildRejectsInvalidCoordinates(t *testing.T) {
	build := func(metric geo.Metric, a, b geo.Point) error {
		bl := NewBuilder("bad", metric)
		bl.AddEdge(bl.AddNode(a), bl.AddNode(b))
		_, err := bl.Build()
		return err
	}
	decode := func(metric geo.Metric, a, b geo.Point) error {
		js := fmt.Sprintf(`{"name":"bad","metric":%q,"nodes":[{"x":%g,"y":%g},{"x":%g,"y":%g}],"arcs":[[0,1],[1,0]]}`,
			metric, a.X, a.Y, b.X, b.Y)
		_, err := Decode(strings.NewReader(js))
		return err
	}
	ok := geo.Point{X: -75.25, Y: 15.5}
	for _, c := range []struct {
		name   string
		metric geo.Metric
		a, b   geo.Point
		json   bool // expressible in JSON, so Decode must reject it too
	}{
		{"latitude over 90", geo.Geodesic, ok, geo.Point{X: -75.25, Y: 91.7236}, true},
		{"latitude under -90", geo.Geodesic, geo.Point{X: 104.75, Y: -90.5}, ok, true},
		{"NaN latitude", geo.Geodesic, ok, geo.Point{X: 0, Y: math.NaN()}, false},
		{"infinite longitude", geo.Geodesic, geo.Point{X: math.Inf(-1), Y: 0}, ok, false},
		{"NaN planar x", geo.Planar, ok, geo.Point{X: math.NaN(), Y: 1}, false},
		{"infinite planar y", geo.Planar, ok, geo.Point{X: 1, Y: math.Inf(1)}, false},
		{"infinite edge weight", geo.Planar, geo.Point{X: -1e200, Y: 0}, geo.Point{X: 1e200, Y: 0}, true},
	} {
		if err := build(c.metric, c.a, c.b); err == nil {
			t.Errorf("%s: Build accepted %v -> %v", c.name, c.a, c.b)
		}
		if c.json {
			if err := decode(c.metric, c.a, c.b); err == nil {
				t.Errorf("%s: Decode accepted %v -> %v", c.name, c.a, c.b)
			}
		}
	}
	for _, pole := range []geo.Point{{X: 10, Y: 90}, {X: -170, Y: -90}} {
		if err := build(geo.Geodesic, ok, pole); err != nil {
			t.Errorf("Build rejected the pole %v: %v", pole, err)
		}
		if err := decode(geo.Geodesic, ok, pole); err != nil {
			t.Errorf("Decode rejected the pole %v: %v", pole, err)
		}
	}
}

package grid

import (
	"math"
	"math/rand"
	"testing"

	"github.com/routeplanning/mamorl/internal/geo"
)

// tiesGrid builds a small grid of constructed near-ties and exact ties
// around a center node u (node 0) under metric: a node coincident with u,
// pairs mirrored about u along each axis and both diagonals, two coincident
// nodes away from u, and, on the globe, nodes whose latitudes lie beyond
// ±90° (where a cosine factor turns negative).
func tiesGrid(metric geo.Metric) *Grid {
	c := geo.Point{X: 5, Y: 5}
	if metric == geo.Geodesic {
		c = geo.Point{X: -75.25, Y: 15.5}
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
	if metric == geo.Geodesic {
		pts = append(pts, geo.Point{X: c.X, Y: 95}, geo.Point{X: c.X + 180, Y: 85},
			geo.Point{X: c.X, Y: -100}, geo.Point{X: c.X - 180, Y: -80})
		// Latitude φ > 90° at longitude λ is the point at 180° − φ and
		// λ + 180°. Add the first such pair whose haversine term rounds
		// below 0: its Distance is NaN, and no key may decide against it.
		for k := 0; k < 2000; k++ {
			a := geo.Point{X: c.X + float64(k%7), Y: 90.5 + float64(k)*0.0437}
			b := geo.Point{X: a.X + 180, Y: 180 - a.Y}
			if geo.HaversineTerm(a, b, geo.CosLat(a), geo.CosLat(b)) < 0 {
				pts = append(pts, a, b)
				break
			}
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
// coincident positions, points mirrored about u) on both metrics.
func TestShorterMatchesDistance(t *testing.T) {
	caribbean, err := CaribbeanGrid(5)
	if err != nil {
		t.Fatal(err)
	}
	planar, err := GenerateSynthetic(SyntheticConfig{Nodes: 400, Edges: 846, MaxOutDegree: 9, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// compare checks one triple and reports whether Shorter had to fall
	// back to the distances.
	compare := func(t *testing.T, g *Grid, a, b, u NodeID) bool {
		t.Helper()
		x, y := g.DistKey(a, u), g.DistKey(b, u)
		want := g.Distance(a, u) < g.Distance(b, u)
		if got := g.Shorter(x, y); got != want {
			t.Fatalf("%s: Shorter for a=%d b=%d u=%d is %v, Distance says %v (keys %g, %g)",
				g.Name(), a, b, u, got, want, x.key, y.key)
		}
		return !(x.key >= 0 && y.key >= 0) || math.Abs(x.key-y.key) <= nearTie*math.Max(x.key, y.key)
	}
	for _, g := range []*Grid{caribbean, planar} {
		t.Run("random/"+g.Metric().String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(g.NumNodes())))
			const triples = 1_000_000
			near := 0
			for k := 0; k < triples; k++ {
				n := g.NumNodes()
				if compare(t, g, NodeID(rng.Intn(n)), NodeID(rng.Intn(n)), NodeID(rng.Intn(n))) {
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
			near := 0
			for u := NodeID(0); u < n; u++ {
				for a := NodeID(0); a < n; a++ {
					for b := NodeID(0); b < n; b++ {
						if compare(t, g, a, b, u) {
							near++
						}
					}
				}
			}
			if near == 0 {
				t.Fatal("no constructed triple reached the near-tie fallback")
			}
			if metric == geo.Geodesic && !math.IsNaN(g.Distance(n-2, n-1)) {
				t.Fatal("no constructed pair has a negative haversine term")
			}
		})
	}
}

// TestDistKeyCosineCache: a geodesic grid caches geo.CosLat for every node,
// and a planar grid caches nothing.
func TestDistKeyCosineCache(t *testing.T) {
	g := tiesGrid(geo.Geodesic)
	if len(g.cosLat) != g.NumNodes() {
		t.Fatalf("geodesic grid caches %d cosines for %d nodes", len(g.cosLat), g.NumNodes())
	}
	for v := range g.cosLat {
		if want := geo.CosLat(g.Pos(NodeID(v))); g.cosLat[v] != want {
			t.Fatalf("cosLat[%d] = %v, want %v", v, g.cosLat[v], want)
		}
	}
	if p := tiesGrid(geo.Planar); p.cosLat != nil {
		t.Fatal("planar grid caches latitude cosines")
	}
}

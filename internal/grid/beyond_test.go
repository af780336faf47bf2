package grid

import (
	"math"
	"math/rand"
	"testing"

	"github.com/routeplanning/mamorl/internal/geo"
)

// beyondDraws returns the thresholds TestBeyondMatchesDistance tries for a
// pair dist apart: the distance itself and a few ulps either side, values
// around the one whose key is keyFloor, zero, the antipodal distance and
// past it, a random value below 2·dist, and the values no key stands for.
func beyondDraws(rng *rand.Rand, dist, floorD float64) []float64 {
	up, down := dist, dist
	ds := []float64{dist}
	for k := 0; k < 3; k++ {
		up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, math.Inf(-1))
		ds = append(ds, up, down)
	}
	antipode := math.Pi * geo.EarthRadiusNM
	return append(ds,
		floorD*(1-1e-6), floorD, floorD*(1+1e-6), floorD*(0.5+rng.Float64()),
		0, math.Copysign(0, -1),
		antipode, math.Nextafter(antipode, 0), antipode*(1+rng.Float64()),
		2*dist*rng.Float64(),
		math.Inf(1), math.Inf(-1), math.NaN(), -dist, -rng.Float64())
}

// TestBeyondMatchesDistance: Beyond(v, w, RangeOf(d)) answers exactly
// Distance(v, w) > d, over a million seeded (pair, d) cases each on the
// Caribbean mesh and a planar synthetic grid, and over every pair of the
// constructed near-ties and antipodes of tiesGrid on both metrics. Both of
// Beyond's paths must run: keys deciding, and the Distance fallback.
func TestBeyondMatchesDistance(t *testing.T) {
	caribbean, err := CaribbeanGrid(1)
	if err != nil {
		t.Fatal(err)
	}
	planar, err := GenerateSynthetic(SyntheticConfig{Nodes: 400, Edges: 846, MaxOutDegree: 9, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*Grid{caribbean, planar, tiesGrid(geo.Geodesic), tiesGrid(geo.Planar)} {
		floorD := math.Sqrt(keyFloor) // the planar d whose key is keyFloor
		if g.Metric() == geo.Geodesic {
			floorD = 2 * geo.EarthRadiusNM * math.Asin(floorD/2)
		}
		rng := rand.New(rand.NewSource(int64(g.NumNodes())))
		var byKey, byDistance, cases int
		check := func(v, w NodeID) {
			dist := g.Distance(v, w)
			for _, d := range beyondDraws(rng, dist, floorD) {
				r := g.RangeOf(d)
				if got, want := g.Beyond(v, w, r), dist > d; got != want {
					t.Fatalf("%s: Beyond(%d, %d, %v) = %v, Distance %v > d is %v", g.Name(), v, w, d, got, dist, want)
				}
				if decisive(g.DistKey(v, w).key, r.key) {
					byKey++
				} else {
					byDistance++
				}
				cases++
			}
		}
		if g.NumNodes() < 100 { // tiesGrid: every ordered pair
			for v := range g.NumNodes() {
				for w := range g.NumNodes() {
					check(NodeID(v), NodeID(w))
				}
			}
		} else {
			for cases < 1_000_000 {
				v := NodeID(rng.Intn(g.NumNodes()))
				w := NodeID(rng.Intn(g.NumNodes()))
				switch rng.Intn(4) {
				case 0:
					w = v
				case 1:
					w = g.Neighbors(v)[rng.Intn(g.OutDegree(v))].To
				}
				check(v, w)
			}
		}
		if byKey == 0 || byDistance == 0 {
			t.Fatalf("%s: keys decided %d cases and Distance %d; both paths must run", g.Name(), byKey, byDistance)
		}
	}
}

// FuzzBeyond: on any two-node grid the builder accepts, under either
// metric, Beyond(v, w, RangeOf(d)) agrees with Distance(v, w) > d for every
// ordered pair and any d.
func FuzzBeyond(f *testing.F) {
	f.Add(false, 0.0, 0.0, 3.0, 4.0, 5.0)
	f.Add(false, 0.0, 0.0, 3.0, 4.0, math.Nextafter(5, 0))
	f.Add(true, -75.25, 15.5, -75.0, 15.75, 20.0)
	f.Add(true, 10.0, 0.0, -170.0, 0.0, math.Pi*geo.EarthRadiusNM)
	f.Add(true, 0.0, 89.9, 180.0, 89.9, 12.0)
	f.Add(false, 1.0, 1.0, 1.0, 1.0+1e-5, 1e-5)
	f.Add(true, 5.0, 5.0, 5.0, 5.0, math.NaN())
	f.Fuzz(func(t *testing.T, geodesic bool, x0, y0, x1, y1, d float64) {
		metric := geo.Planar
		if geodesic {
			metric = geo.Geodesic
		}
		b := NewBuilder("fuzz", metric)
		b.AddNode(geo.Point{X: x0, Y: y0})
		b.AddNode(geo.Point{X: x1, Y: y1})
		b.AddEdge(0, 1)
		g, err := b.Build()
		if err != nil {
			return // coordinates the builder refuses
		}
		r := g.RangeOf(d)
		for _, p := range [][2]NodeID{{0, 1}, {1, 0}, {0, 0}, {1, 1}} {
			dist := g.Distance(p[0], p[1])
			if got, want := g.Beyond(p[0], p[1], r), dist > d; got != want {
				t.Fatalf("Beyond(%d, %d, %v) = %v, Distance %v > d is %v", p[0], p[1], d, got, dist, want)
			}
		}
	})
}

// TestBallHoldsExactlyTheRadius: a sensing ball holds node u exactly when
// Distance(v, u) <= r, for every node pair of the Caribbean mesh and a
// planar synthetic grid, at four memoized radii (one of them a pair's
// exact distance, so a node sits on the boundary) and a fifth past the
// memo's table limit, which the spatial index's scan serves. Mission
// discovery reads ball membership of the destination in place of that
// distance test.
func TestBallHoldsExactlyTheRadius(t *testing.T) {
	caribbean, err := CaribbeanGrid(1)
	if err != nil {
		t.Fatal(err)
	}
	planar, err := GenerateSynthetic(SyntheticConfig{Nodes: 400, Edges: 846, MaxOutDegree: 9, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*Grid{caribbean, planar} {
		avg := g.AvgEdgeWeight()
		e := g.Neighbors(7)[0]
		radii := []float64{0.6 * avg, 1.2 * avg, g.Distance(7, e.To), 2.5 * avg, 1.7 * avg}
		in := make([]bool, g.NumNodes())
		for k, r := range radii {
			scanned := k == len(radii)-1
			for v := range g.NumNodes() {
				clear(in)
				g.ForEachWithinRadius(NodeID(v), r, func(u NodeID) { in[u] = true })
				if _, ok := g.Ball(NodeID(v), r); ok == scanned {
					t.Fatalf("%s: radius %v: memo serves it = %v, want %v", g.Name(), r, ok, !scanned)
				}
				for u := range g.NumNodes() {
					if want := g.Distance(NodeID(v), NodeID(u)) <= r; in[u] != want {
						t.Fatalf("%s: radius %v: ball of %d holds %d = %v, Distance %v <= r is %v",
							g.Name(), r, v, u, in[u], g.Distance(NodeID(v), NodeID(u)), want)
					}
				}
			}
		}
	}
}

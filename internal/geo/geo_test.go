package geo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEuclidean(t *testing.T) {
	cases := []struct {
		a, b Point
		want float64
	}{
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{1, 1}, Point{1, 1}, 0},
		{Point{-2, 0}, Point{2, 0}, 4},
		{Point{0, -1}, Point{0, 1}, 2},
	}
	for _, c := range cases {
		if got := Euclidean(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Euclidean(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestHaversineKnownDistances(t *testing.T) {
	// One degree of latitude is 60 nautical miles by definition of the NM.
	a := Point{X: 0, Y: 0}
	b := Point{X: 0, Y: 1}
	got := Haversine(a, b)
	if math.Abs(got-60) > 0.2 {
		t.Errorf("1 degree latitude = %v NM, want ~60", got)
	}

	// Quarter circumference: equator to pole.
	pole := Point{X: 0, Y: 90}
	got = Haversine(a, pole)
	want := 2 * math.Pi * EarthRadiusNM / 4
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("equator to pole = %v, want %v", got, want)
	}
}

func TestHaversineSymmetricAndNonNegative(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a := Point{X: math.Mod(ax, 180), Y: math.Mod(ay, 90)}
		b := Point{X: math.Mod(bx, 180), Y: math.Mod(by, 90)}
		d1, d2 := Haversine(a, b), Haversine(b, a)
		return d1 >= 0 && math.Abs(d1-d2) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequalityEuclidean(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		a := Point{rng.Float64() * 100, rng.Float64() * 100}
		b := Point{rng.Float64() * 100, rng.Float64() * 100}
		c := Point{rng.Float64() * 100, rng.Float64() * 100}
		if Euclidean(a, c) > Euclidean(a, b)+Euclidean(b, c)+1e-9 {
			t.Fatalf("triangle inequality violated for %v %v %v", a, b, c)
		}
	}
}

func TestMetricDistance(t *testing.T) {
	a, b := Point{0, 0}, Point{0, 1}
	if got := Planar.Distance(a, b); math.Abs(got-1) > 1e-12 {
		t.Errorf("Planar.Distance = %v, want 1", got)
	}
	if got := Geodesic.Distance(a, b); math.Abs(got-60) > 0.2 {
		t.Errorf("Geodesic.Distance = %v, want ~60", got)
	}
}

func TestMetricString(t *testing.T) {
	if Planar.String() != "planar" || Geodesic.String() != "geodesic" {
		t.Errorf("unexpected Metric strings: %q %q", Planar, Geodesic)
	}
	if got := Metric(42).String(); got != "Metric(42)" {
		t.Errorf("unknown metric string = %q", got)
	}
}

func TestRectContains(t *testing.T) {
	r := NewRect(Point{2, 3}, Point{0, 1}) // corners in "wrong" order
	if r.MinX != 0 || r.MinY != 1 || r.MaxX != 2 || r.MaxY != 3 {
		t.Fatalf("NewRect normalized wrong: %+v", r)
	}
	inside := []Point{{1, 2}, {0, 1}, {2, 3}, {0, 3}}
	outside := []Point{{-0.01, 2}, {1, 0.99}, {2.01, 2}, {1, 3.01}}
	for _, p := range inside {
		if !r.Contains(p) {
			t.Errorf("expected %v inside %+v", p, r)
		}
	}
	for _, p := range outside {
		if r.Contains(p) {
			t.Errorf("expected %v outside %+v", p, r)
		}
	}
}

func TestRectCenterSize(t *testing.T) {
	r := Rect{MinX: 0, MinY: 0, MaxX: 4, MaxY: 2}
	if c := r.Center(); c.X != 2 || c.Y != 1 {
		t.Errorf("Center = %v", c)
	}
	if r.Width() != 4 || r.Height() != 2 {
		t.Errorf("Width/Height = %v/%v", r.Width(), r.Height())
	}
}

func TestBound(t *testing.T) {
	pts := []Point{{1, 5}, {-2, 0}, {3, 3}}
	r := Bound(pts)
	want := Rect{MinX: -2, MinY: 0, MaxX: 3, MaxY: 5}
	if r != want {
		t.Errorf("Bound = %+v, want %+v", r, want)
	}
	for _, p := range pts {
		if !r.Contains(p) {
			t.Errorf("Bound does not contain %v", p)
		}
	}
}

func TestBoundEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Bound(nil) did not panic")
		}
	}()
	Bound(nil)
}

func TestLerp(t *testing.T) {
	a, b := Point{0, 0}, Point{10, 20}
	if m := Lerp(a, b, 0.5); m.X != 5 || m.Y != 10 {
		t.Errorf("Lerp midpoint = %v", m)
	}
	if s := Lerp(a, b, 0); s != a {
		t.Errorf("Lerp(0) = %v", s)
	}
	if e := Lerp(a, b, 1); e != b {
		t.Errorf("Lerp(1) = %v", e)
	}
}

func TestPointString(t *testing.T) {
	p := Point{X: 1.23456, Y: -7.1}
	if got := p.String(); got != "(1.2346, -7.1000)" {
		t.Errorf("String = %q", got)
	}
}

// TestHaversineBitsPinned pins the exact bits of Haversine over seeded point
// pairs: local pairs a few degrees apart (ocean-mesh scale), global pairs
// anywhere on the sphere, coincident points and antipodes. Grid edge
// weights, sensing balls and every planner's distance comparisons are
// built on these bits, so a refactor of the formula must leave them as
// they are.
func TestHaversineBitsPinned(t *testing.T) {
	const want = "f40060279b6fcf3abcb78cf7625266b3cf9671ded4bf5df52ddcc55531c9fbff"
	rng := rand.New(rand.NewSource(20221))
	h := sha256.New()
	var buf [8]byte
	add := func(a, b Point) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(Haversine(a, b)))
		h.Write(buf[:])
	}
	for k := 0; k < 20000; k++ {
		a := Point{X: -90 + 30*rng.Float64(), Y: 8 + 20*rng.Float64()}
		b := Point{X: a.X + 4*(rng.Float64()-0.5), Y: a.Y + 4*(rng.Float64()-0.5)}
		add(a, b)
		g1 := Point{X: 360*rng.Float64() - 180, Y: 180*rng.Float64() - 90}
		g2 := Point{X: 360*rng.Float64() - 180, Y: 180*rng.Float64() - 90}
		add(g1, g2)
		add(a, a)
		add(g1, Point{X: g1.X + 180, Y: -g1.Y})
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("Haversine bits digest %s, want %s", got, want)
	}
}

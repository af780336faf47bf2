package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v", m)
	}
	if v := Variance(xs); !almost(v, 32.0/7, 1e-12) {
		t.Errorf("Variance = %v", v)
	}
	if s := StdDev(xs); !almost(s, math.Sqrt(32.0/7), 1e-12) {
		t.Errorf("StdDev = %v", s)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("degenerate inputs should return 0")
	}
}

func TestRegIncompleteBetaKnownValues(t *testing.T) {
	// I_x(1,1) = x (uniform CDF).
	for _, x := range []float64{0.1, 0.5, 0.9} {
		if got := RegIncompleteBeta(1, 1, x); !almost(got, x, 1e-10) {
			t.Errorf("I_%v(1,1) = %v", x, got)
		}
	}
	// I_0.5(a,a) = 0.5 by symmetry.
	for _, a := range []float64{0.5, 2, 7.5} {
		if got := RegIncompleteBeta(a, a, 0.5); !almost(got, 0.5, 1e-10) {
			t.Errorf("I_0.5(%v,%v) = %v", a, a, got)
		}
	}
	// Bounds.
	if RegIncompleteBeta(2, 3, 0) != 0 || RegIncompleteBeta(2, 3, 1) != 1 {
		t.Error("boundary values wrong")
	}
	// I_x(2,2) = 3x² - 2x³.
	for _, x := range []float64{0.2, 0.6} {
		want := 3*x*x - 2*x*x*x
		if got := RegIncompleteBeta(2, 2, x); !almost(got, want, 1e-10) {
			t.Errorf("I_%v(2,2) = %v, want %v", x, got, want)
		}
	}
}

func TestStudentTKnownQuantiles(t *testing.T) {
	// Classic t-table values: with df=9, t=2.262 has two-sided p=0.05.
	if p := studentTTwoSided(2.262, 9); !almost(p, 0.05, 2e-3) {
		t.Errorf("p(2.262, df 9) = %v, want ~0.05", p)
	}
	// df=4, t=2.776 -> p=0.05.
	if p := studentTTwoSided(2.776, 4); !almost(p, 0.05, 2e-3) {
		t.Errorf("p(2.776, df 4) = %v, want ~0.05", p)
	}
	// t=0 -> p=1.
	if p := studentTTwoSided(0, 7); !almost(p, 1, 1e-12) {
		t.Errorf("p(0) = %v", p)
	}
	// Symmetry in t.
	if p1, p2 := studentTTwoSided(1.7, 12), studentTTwoSided(-1.7, 12); !almost(p1, p2, 1e-12) {
		t.Errorf("asymmetric p-values: %v vs %v", p1, p2)
	}
}

func TestPairedTTestDetectsDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var a, b []float64
	for i := 0; i < 10; i++ {
		base := rng.Float64() * 100
		a = append(a, base)
		b = append(b, base+5+rng.NormFloat64()) // b consistently ~5 larger
	}
	res, err := PairedTTest(a, b)
	if err != nil {
		t.Fatalf("PairedTTest: %v", err)
	}
	if !res.Significant(0.05) {
		t.Errorf("clear difference not significant: %v", res)
	}
	if res.MeanDiff >= 0 {
		t.Errorf("meanDiff = %v, want negative (a < b)", res.MeanDiff)
	}
	if res.String() == "" {
		t.Error("empty String")
	}
}

func TestPairedTTestNoDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var a, b []float64
	for i := 0; i < 12; i++ {
		base := rng.Float64() * 100
		a = append(a, base+rng.NormFloat64())
		b = append(b, base+rng.NormFloat64())
	}
	res, err := PairedTTest(a, b)
	if err != nil {
		t.Fatalf("PairedTTest: %v", err)
	}
	if res.Significant(0.05) {
		t.Errorf("pure noise reported significant: %v", res)
	}
}

func TestPairedTTestDegenerate(t *testing.T) {
	if _, err := PairedTTest([]float64{1}, []float64{2}); err == nil {
		t.Error("single pair accepted")
	}
	if _, err := PairedTTest([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	// Identical samples: p = 1.
	res, err := PairedTTest([]float64{3, 3, 3}, []float64{3, 3, 3})
	if err != nil || res.P != 1 {
		t.Errorf("identical samples: %v, %v", res, err)
	}
	// Constant nonzero difference: deterministic, p = 0.
	res, err = PairedTTest([]float64{4, 5, 6}, []float64{3, 4, 5})
	if err != nil || res.P != 0 {
		t.Errorf("constant difference: %v, %v", res, err)
	}
}

func TestParetoFront(t *testing.T) {
	pts := []Point2{
		{X: 1, Y: 5, Tag: "a"},
		{X: 2, Y: 3, Tag: "b"},
		{X: 3, Y: 4, Tag: "c"}, // dominated by b
		{X: 4, Y: 1, Tag: "d"},
		{X: 5, Y: 2, Tag: "e"}, // dominated by d
	}
	front := ParetoFront(pts)
	want := []string{"a", "b", "d"}
	if len(front) != len(want) {
		t.Fatalf("front = %+v", front)
	}
	for i, tag := range want {
		if front[i].Tag != tag {
			t.Errorf("front[%d] = %+v, want tag %s", i, front[i], tag)
		}
	}
	if ParetoFront(nil) != nil {
		t.Error("empty front should be nil")
	}
}

func TestParetoFrontProperty(t *testing.T) {
	// No front point dominates another; every non-front point is dominated
	// by some front point.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var pts []Point2
		for i := 0; i < 40; i++ {
			pts = append(pts, Point2{X: rng.Float64() * 10, Y: rng.Float64() * 10})
		}
		front := ParetoFront(pts)
		inFront := func(p Point2) bool {
			for _, q := range front {
				if q.X == p.X && q.Y == p.Y {
					return true
				}
			}
			return false
		}
		for i, p := range front {
			for j, q := range front {
				if i != j && p.Dominates(q) {
					return false
				}
			}
		}
		for _, p := range pts {
			if inFront(p) {
				continue
			}
			dominated := false
			for _, q := range front {
				if q.Dominates(p) {
					dominated = true
					break
				}
			}
			if !dominated {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestDominates(t *testing.T) {
	a := Point2{X: 1, Y: 1}
	b := Point2{X: 2, Y: 2}
	c := Point2{X: 1, Y: 1}
	if !a.Dominates(b) || b.Dominates(a) {
		t.Error("dominance wrong")
	}
	if a.Dominates(c) || c.Dominates(a) {
		t.Error("equal points must not dominate each other")
	}
	d := Point2{X: 0.5, Y: 3}
	if a.Dominates(d) || d.Dominates(a) {
		t.Error("incomparable points must not dominate")
	}
}

func TestRelativeImprovement(t *testing.T) {
	if got := RelativeImprovement(100, 40); got != 60 {
		t.Errorf("RI(100,40) = %v, want 60", got)
	}
	if got := RelativeImprovement(100, 150); got != -50 {
		t.Errorf("RI(100,150) = %v, want -50", got)
	}
	if got := RelativeImprovement(0, 10); got != 0 {
		t.Errorf("RI with zero baseline = %v", got)
	}
}

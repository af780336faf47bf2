// Package stats implements the statistical machinery the evaluation uses:
// descriptive statistics over 10-run batches, the paired t-test at 95%
// significance the paper reports all comparisons with (Section 4.1.2), the
// Pareto front extraction of Figure 4, and the relative-improvement measure
// RI() of Section 4.4. The Student-t CDF is computed from scratch via the
// regularized incomplete beta function (continued fractions).
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean; 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance; 0 with fewer than two
// samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// TTestResult reports a paired t-test.
type TTestResult struct {
	// T is the test statistic.
	T float64
	// DF is the degrees of freedom (n - 1).
	DF int
	// P is the two-sided p-value.
	P float64
	// MeanDiff is the mean of a - b.
	MeanDiff float64
}

// Significant reports whether the difference is significant at the given
// level (e.g. 0.05 for the paper's 95%).
func (r TTestResult) Significant(alpha float64) bool { return r.P < alpha }

// String implements fmt.Stringer.
func (r TTestResult) String() string {
	return fmt.Sprintf("t(%d)=%.3f, p=%.4f, meanΔ=%.4g", r.DF, r.T, r.P, r.MeanDiff)
}

// ErrTTest reports unusable t-test input.
var ErrTTest = errors.New("stats: t-test needs >= 2 paired samples")

// PairedTTest runs a two-sided paired t-test on equal-length samples a and
// b (e.g. the per-run objective values of two planners on the same seeds).
func PairedTTest(a, b []float64) (TTestResult, error) {
	if len(a) != len(b) || len(a) < 2 {
		return TTestResult{}, fmt.Errorf("%w: %d vs %d", ErrTTest, len(a), len(b))
	}
	diffs := make([]float64, len(a))
	for i := range a {
		diffs[i] = a[i] - b[i]
	}
	n := float64(len(diffs))
	mean := Mean(diffs)
	sd := StdDev(diffs)
	res := TTestResult{DF: len(diffs) - 1, MeanDiff: mean}
	if sd == 0 {
		// Identical pairs: no evidence of difference (p=1) unless the mean
		// itself is nonzero, in which case the difference is deterministic.
		if mean == 0 {
			res.P = 1
		} else {
			res.T = math.Inf(sign(mean))
			res.P = 0
		}
		return res, nil
	}
	res.T = mean / (sd / math.Sqrt(n))
	res.P = studentTTwoSided(res.T, float64(res.DF))
	return res, nil
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}

// studentTTwoSided returns the two-sided p-value of t under df degrees of
// freedom: I_{df/(df+t²)}(df/2, 1/2).
func studentTTwoSided(t, df float64) float64 {
	x := df / (df + t*t)
	return RegIncompleteBeta(df/2, 0.5, x)
}

// RegIncompleteBeta computes the regularized incomplete beta function
// I_x(a, b) by the continued-fraction expansion (Lentz's method), accurate
// to ~1e-12 for the parameter ranges statistics needs.
func RegIncompleteBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	// ln of the prefactor x^a (1-x)^b / (a B(a,b)).
	lbeta, _ := math.Lgamma(a)
	lb2, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	lnFront := a*math.Log(x) + b*math.Log(1-x) + lab - lbeta - lb2

	// Use the symmetry relation for fast convergence.
	if x < (a+1)/(a+b+2) {
		return math.Exp(lnFront) * betaCF(a, b, x) / a
	}
	return 1 - math.Exp(lnFront)*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction of the incomplete beta function.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 1e-14
		tiny    = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// Point2 is a bi-objective outcome (F_total, T_total).
type Point2 struct {
	X float64 // first objective (minimized)
	Y float64 // second objective (minimized)
	// Tag carries provenance (planner name, parameter value, ...).
	Tag string
}

// Dominates reports whether p is at least as good as q in both objectives
// and strictly better in one (minimization).
func (p Point2) Dominates(q Point2) bool {
	return p.X <= q.X && p.Y <= q.Y && (p.X < q.X || p.Y < q.Y)
}

// ParetoFront returns the non-dominated subset of pts under minimization of
// both coordinates, sorted by X. Duplicate points are kept once.
func ParetoFront(pts []Point2) []Point2 {
	if len(pts) == 0 {
		return nil
	}
	sorted := append([]Point2(nil), pts...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].X != sorted[j].X {
			return sorted[i].X < sorted[j].X
		}
		return sorted[i].Y < sorted[j].Y
	})
	var front []Point2
	bestY := math.Inf(1)
	for _, p := range sorted {
		if p.Y < bestY {
			front = append(front, p)
			bestY = p.Y
		}
	}
	return front
}

// RelativeImprovement is the paper's RI() measure (Section 4.4):
// (baseline - ours) / baseline × 100. Positive means ours is better
// (smaller objective); negative means the baseline wins.
func RelativeImprovement(baseline, ours float64) float64 {
	if baseline == 0 {
		return 0
	}
	return (baseline - ours) / baseline * 100
}

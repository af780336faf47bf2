package linreg

import (
	"math"
	"math/rand"
	"testing"

	"github.com/routeplanning/mamorl/internal/tensor"
)

func randomFit(t *testing.T) (*tensor.Matrix, []float64) {
	t.Helper()
	const rows, d = 2000, 7
	rng := rand.New(rand.NewSource(3))
	X := tensor.NewMatrix(d)
	y := make([]float64, 0, rows)
	row := make([]float64, d)
	for i := 0; i < rows; i++ {
		s := 0.0
		for j := range row {
			row[j] = rng.NormFloat64()
			s += float64(j) * row[j]
		}
		X.AppendRow(row)
		y = append(y, s+0.1*rng.NormFloat64())
	}
	return X, y
}

// TestFitWorkersByteIdentical: the chunked gram accumulation reduces
// per-chunk partials in chunk-index order, so fitted weights are
// byte-identical at any worker count.
func TestFitWorkersByteIdentical(t *testing.T) {
	X, y := randomFit(t)
	ref, err := Fit(X, y, Options{FitIntercept: true})
	if err != nil {
		t.Fatalf("workers=1: %v", err)
	}
	for _, workers := range []int{2, 8, 64} {
		m, err := Fit(X, y, Options{FitIntercept: true, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if math.Float64bits(m.Intercept) != math.Float64bits(ref.Intercept) {
			t.Fatalf("workers=%d: intercept differs: %v vs %v", workers, m.Intercept, ref.Intercept)
		}
		for i := range ref.Weights {
			if math.Float64bits(m.Weights[i]) != math.Float64bits(ref.Weights[i]) {
				t.Fatalf("workers=%d: weight %d differs: %v vs %v", workers, i, m.Weights[i], ref.Weights[i])
			}
		}
	}
}

// TestFitMatrixAllocs: a flat-matrix fit allocates only its fixed workspace
// — per-chunk partials, the solve system, and the model — never per row.
func TestFitMatrixAllocs(t *testing.T) {
	X, y := randomFit(t)
	avg := testing.AllocsPerRun(16, func() {
		if _, err := Fit(X, y, Options{FitIntercept: true}); err != nil {
			t.Fatal(err)
		}
	})
	// 8 cols: gram rows + partials + rhs + solve result + model ≈ 13.
	if avg > 20 {
		t.Fatalf("Fit allocates %.1f objects/fit, want <= 20 (must not scale with rows)", avg)
	}
}

package linreg

import (
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

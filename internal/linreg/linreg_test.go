package linreg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/routeplanning/mamorl/internal/tensor"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// mat copies equal-width rows into a flat design matrix.
func mat(rows [][]float64) *tensor.Matrix {
	m := tensor.NewMatrix(len(rows[0]))
	for _, r := range rows {
		m.AppendRow(r)
	}
	return m
}

func TestFitRecoversExactLine(t *testing.T) {
	// y = 3x - 2 with intercept.
	X := [][]float64{{0}, {1}, {2}, {3}}
	y := []float64{-2, 1, 4, 7}
	m, err := Fit(mat(X), y, Options{FitIntercept: true})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if !almost(m.Weights[0], 3, 1e-6) || !almost(m.Intercept, -2, 1e-6) {
		t.Errorf("model = %+v, want w=3 b=-2", m)
	}
	if mse := m.MSE(mat(X), y); mse > 1e-10 {
		t.Errorf("MSE = %v on exactly-linear data", mse)
	}
}

func TestFitRecoversPlantedWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	planted := []float64{0.7, -1.3, 2.1, 0.05, -0.4}
	var X [][]float64
	var y []float64
	for i := 0; i < 400; i++ {
		row := make([]float64, len(planted))
		s := 0.0
		for j := range row {
			row[j] = rng.NormFloat64()
			s += planted[j] * row[j]
		}
		X = append(X, row)
		y = append(y, s+0.001*rng.NormFloat64())
	}
	m, err := Fit(mat(X), y, Options{})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	for j, w := range planted {
		if !almost(m.Weights[j], w, 1e-2) {
			t.Errorf("weight %d = %v, want %v", j, m.Weights[j], w)
		}
	}
}

func TestFitPropertyNoiseless(t *testing.T) {
	// For any planted 3-feature weights, fitting noiseless data recovers
	// them (within ridge-induced tolerance).
	f := func(w1, w2, w3 float64, seed int64) bool {
		w := []float64{math.Mod(w1, 10), math.Mod(w2, 10), math.Mod(w3, 10)}
		rng := rand.New(rand.NewSource(seed))
		var X [][]float64
		var y []float64
		for i := 0; i < 60; i++ {
			row := []float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1, rng.Float64()*2 - 1}
			X = append(X, row)
			y = append(y, w[0]*row[0]+w[1]*row[1]+w[2]*row[2])
		}
		m, err := Fit(mat(X), y, Options{})
		if err != nil {
			return false
		}
		for j := range w {
			if !almost(m.Weights[j], w[j], 1e-4*(1+math.Abs(w[j]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFitCollinearFeaturesWithRidge(t *testing.T) {
	// Duplicate features are singular without regularization; the default
	// ridge must keep the solve stable.
	var X [][]float64
	var y []float64
	for i := 0; i < 50; i++ {
		v := float64(i)
		X = append(X, []float64{v, v}) // perfectly collinear
		y = append(y, 2*v)
	}
	m, err := Fit(mat(X), y, Options{})
	if err != nil {
		t.Fatalf("Fit on collinear data: %v", err)
	}
	// Prediction must still be right even though individual weights are not
	// identified.
	if got := m.Predict([]float64{10, 10}); !almost(got, 20, 1e-3) {
		t.Errorf("Predict = %v, want 20", got)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, nil, Options{}); err == nil {
		t.Error("empty data accepted")
	}
	if _, err := Fit(tensor.NewMatrix(1), nil, Options{}); err == nil {
		t.Error("zero-row matrix accepted")
	}
	if _, err := Fit(mat([][]float64{{1}}), []float64{1, 2}, Options{}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Fit(mat([][]float64{{math.NaN()}}), []float64{1}, Options{}); err == nil {
		t.Error("NaN feature accepted")
	}
	if _, err := Fit(mat([][]float64{{1}}), []float64{math.Inf(1)}, Options{}); err == nil {
		t.Error("Inf target accepted")
	}
	if _, err := Fit(mat([][]float64{{1}}), []float64{1}, Options{Ridge: -1}); err == nil {
		t.Error("negative ridge accepted")
	}
}

func TestPredictPanicsOnDimensionMismatch(t *testing.T) {
	m := &Model{Weights: []float64{1, 2}}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	m.Predict([]float64{1})
}

func TestMSEEmpty(t *testing.T) {
	m := &Model{Weights: []float64{1}}
	if got := m.MSE(nil, nil); got != 0 {
		t.Errorf("MSE(empty) = %v", got)
	}
}

func TestWeightedAveragePrediction(t *testing.T) {
	// Regression through the origin of y = 5x must give weight 5 even
	// without intercept.
	X := [][]float64{{1}, {2}, {4}}
	y := []float64{5, 10, 20}
	m, err := Fit(mat(X), y, Options{})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if !almost(m.Weights[0], 5, 1e-6) || m.Intercept != 0 {
		t.Errorf("model = %+v", m)
	}
}

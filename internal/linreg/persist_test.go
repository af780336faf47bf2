package linreg

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestSaveLoadRoundTrip pins that a gob round-trip reproduces the exact
// model: identical weights and byte-for-byte identical predictions.
func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	X := make([][]float64, 40)
	y := make([]float64, len(X))
	for i := range X {
		X[i] = []float64{rng.Float64(), rng.NormFloat64(), float64(i % 5)}
		y[i] = 2*X[i][0] - 0.5*X[i][1] + 0.1*X[i][2] + 0.01*rng.NormFloat64()
	}
	m, err := Fit(mat(X), y, Options{FitIntercept: true, Ridge: 1e-6})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}

	if len(got.Weights) != len(m.Weights) {
		t.Fatalf("weights len = %d, want %d", len(got.Weights), len(m.Weights))
	}
	for i := range m.Weights {
		if got.Weights[i] != m.Weights[i] {
			t.Errorf("weight %d = %v, want %v (must be bit-identical)", i, got.Weights[i], m.Weights[i])
		}
	}
	if got.Intercept != m.Intercept {
		t.Errorf("intercept = %v, want %v", got.Intercept, m.Intercept)
	}
	// Predictions must be bit-identical, not merely close: the warm-started
	// TMPLAR server compares plans byte-for-byte against a fresh model.
	for i, row := range X {
		if a, b := m.Predict(row), got.Predict(row); a != b {
			t.Fatalf("prediction %d diverged after round-trip: %v vs %v", i, a, b)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a gob stream"))); err == nil {
		t.Fatal("Load accepted garbage")
	}
	// An empty-weights file decodes but must be rejected as malformed.
	var buf bytes.Buffer
	if err := (&Model{}).Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if _, err := Load(&buf); err == nil {
		t.Fatal("Load accepted a model with no weights")
	}
}

// Allocation regression tests for the flat-tensor training engine. Before
// the rework, forward allocated pre-activation and activation slices on
// every Predict and sgdBatch allocated gradient buffers per batch plus
// delta scratch per sample — ~50M allocations for the Table 5 bench. These
// pins keep the steady state at zero.
package neural

import (
	"math/rand"
	"testing"

	"github.com/routeplanning/mamorl/internal/tensor"
)

func allocNet(t *testing.T) *Network {
	t.Helper()
	n, err := New(PaperConfig(6, 3))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return n
}

func randomData(t *testing.T, rows, inputs int, seed int64) (*tensor.Matrix, *tensor.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	X := tensor.NewMatrix(inputs)
	Y := tensor.NewMatrix(1)
	xrow := make([]float64, inputs)
	for i := 0; i < rows; i++ {
		s := 0.0
		for j := range xrow {
			xrow[j] = rng.NormFloat64()
			s += xrow[j]
		}
		X.AppendRow(xrow)
		Y.AppendRow([]float64{s / float64(inputs)})
	}
	return X, Y
}

// TestPredict1Allocs: warmed single-output inference must allocate nothing
// (pooled ping-pong scratch).
func TestPredict1Allocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool bypass its cache, inflating the count")
	}
	n := allocNet(t)
	x := []float64{0.1, -0.2, 0.3, 0.4, -0.5, 0.6}
	for i := 0; i < 16; i++ {
		_ = n.Predict1(x)
	}
	if avg := testing.AllocsPerRun(256, func() { _ = n.Predict1(x) }); avg != 0 {
		t.Fatalf("Predict1 allocates %.2f objects/call, want 0", avg)
	}
}

// TestTrainEpochAllocs: a steady-state SGD batch — the unit every training
// epoch is made of — must not allocate: all scratch lives in the trainer's
// preallocated workspace.
func TestTrainEpochAllocs(t *testing.T) {
	n := allocNet(t)
	X, Y := randomData(t, 512, 6, 7)
	tr := newTrainer(n, X, Y, TrainOptions{LearningRate: 0.01}.withDefaults())
	batch := tr.order[:256]
	tr.runBatch(batch) // warm
	if avg := testing.AllocsPerRun(64, func() { tr.runBatch(batch) }); avg != 0 {
		t.Fatalf("steady-state SGD batch allocates %.2f objects, want 0", avg)
	}
}

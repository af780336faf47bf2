package neural

import (
	"math"
	"math/rand"
	"testing"

	"github.com/routeplanning/mamorl/internal/tensor"
)

// mat copies equal-width rows into a flat matrix.
func mat(rows [][]float64) *tensor.Matrix {
	m := tensor.NewMatrix(len(rows[0]))
	for _, r := range rows {
		m.AppendRow(r)
	}
	return m
}

// batchTrainer builds a trainer over (X, y) for driving single batches in
// tests.
func batchTrainer(n *Network, X, y [][]float64, lr float64) *trainer {
	return newTrainer(n, mat(X), mat(y), TrainOptions{LearningRate: lr}.withDefaults())
}

// TestBackpropMatchesNumericalGradient verifies the backpropagation
// implementation against central-difference numerical gradients on a small
// ReLU+linear network — the strongest correctness check available for a
// hand-written trainer.
func TestBackpropMatchesNumericalGradient(t *testing.T) {
	n, err := New(Config{
		Inputs: 3,
		Layers: []LayerSpec{{Units: 4, Activation: ReLU}, {Units: 1, Activation: Linear}},
		Seed:   9,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rng := rand.New(rand.NewSource(4))
	x := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	y := []float64{0.7}

	// Loss for the current parameters: 0.5 factor because backprop's
	// delta = (pred-y) is the gradient of 0.5*(pred-y)^2.
	loss := func() float64 {
		d := n.Predict1(x) - y[0]
		return 0.5 * d * d
	}

	// Capture analytic gradients by running one batch of size 1 with a
	// tiny learning rate and reading the parameter deltas: w' = w - lr*g.
	const lr = 1e-6
	type pref struct {
		layer, out, in int // in = -1 for bias
		before         float64
	}
	var params []pref
	for li, l := range n.layers {
		for o := 0; o < l.outs; o++ {
			params = append(params, pref{li, o, -1, l.b[o]})
			for in := 0; in < l.in; in++ {
				params = append(params, pref{li, o, in, l.w[o*l.in+in]})
			}
		}
	}
	tr := batchTrainer(n, [][]float64{x}, [][]float64{y}, lr)
	tr.runBatch([]int{0})
	analytic := make([]float64, len(params))
	for pi, p := range params {
		var after float64
		if p.in < 0 {
			after = n.layers[p.layer].b[p.out]
		} else {
			after = n.layers[p.layer].w[p.out*n.layers[p.layer].in+p.in]
		}
		analytic[pi] = (p.before - after) / lr
		// Restore the parameter.
		if p.in < 0 {
			n.layers[p.layer].b[p.out] = p.before
		} else {
			n.layers[p.layer].w[p.out*n.layers[p.layer].in+p.in] = p.before
		}
	}

	// Numerical gradients by central differences.
	const h = 1e-6
	for pi, p := range params {
		set := func(v float64) {
			if p.in < 0 {
				n.layers[p.layer].b[p.out] = v
			} else {
				n.layers[p.layer].w[p.out*n.layers[p.layer].in+p.in] = v
			}
		}
		set(p.before + h)
		up := loss()
		set(p.before - h)
		down := loss()
		set(p.before)
		numeric := (up - down) / (2 * h)
		if diff := math.Abs(numeric - analytic[pi]); diff > 1e-4*(1+math.Abs(numeric)) {
			t.Fatalf("param %d (layer %d out %d in %d): numeric %v vs analytic %v",
				pi, p.layer, p.out, p.in, numeric, analytic[pi])
		}
	}
}

// TestGradientDescentReducesLoss is a sanity property: on a fixed batch,
// repeated small SGD steps must not increase the loss.
func TestGradientDescentReducesLoss(t *testing.T) {
	n, err := New(PaperConfig(2, 5))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rng := rand.New(rand.NewSource(6))
	var X, y [][]float64
	for i := 0; i < 50; i++ {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		X = append(X, []float64{a, b})
		y = append(y, []float64{a - 2*b})
	}
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	tr := batchTrainer(n, X, y, 0.01)
	prev := n.MSE(mat(X), mat(y))
	for step := 0; step < 200; step++ {
		tr.runBatch(idx)
	}
	if after := n.MSE(mat(X), mat(y)); after >= prev {
		t.Errorf("full-batch SGD did not reduce loss: %v -> %v", prev, after)
	}
}

// TestBatchLossSummedPreUpdate: runBatch's returned loss is the summed
// squared error against the weights in effect at the start of the batch.
func TestBatchLossSummedPreUpdate(t *testing.T) {
	n, err := New(PaperConfig(2, 11))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	X := [][]float64{{1, 0}, {0, 1}, {0.5, -0.5}}
	y := [][]float64{{1}, {-1}, {0.25}}
	want := 0.0
	for i := range X {
		d := n.Predict1(X[i]) - y[i][0]
		want += d * d
	}
	tr := batchTrainer(n, X, y, 0.01)
	got := tr.runBatch([]int{0, 1, 2})
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("batch loss %v, want pre-update %v", got, want)
	}
}

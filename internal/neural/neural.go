// Package neural implements the small feedforward neural network used by
// NN-Approx-MaMoRL (Section 3.3). The paper's architecture (Table 5) is two
// layers — 5 ReLU units followed by 1 linear unit — trained with mini-batch
// gradient descent on mean squared error (batch size 1000, 10000 epochs).
//
// Everything is from scratch on the standard library: dense layers,
// ReLU/linear activations, backpropagation, and shuffled mini-batch SGD.
//
// The implementation is built for the Table 5 regime rather than for
// generality: weights and activations live in flat row-major slices
// (internal/tensor), and all backprop scratch is allocated once per Train
// call and reused across every sample. Each minibatch is cut into
// fixed-size chunks, every chunk accumulates gradients into its own
// partial buffers, and the partials are reduced in chunk-index order; that
// order fixes every floating-point sum, so the trained weights the golden
// pins record never depend on how the batch is walked.
package neural

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"github.com/routeplanning/mamorl/internal/tensor"
)

// Activation selects a layer's nonlinearity.
type Activation int

const (
	// ReLU is max(0, x).
	ReLU Activation = iota
	// Linear is the identity.
	Linear
)

// String implements fmt.Stringer.
func (a Activation) String() string {
	switch a {
	case ReLU:
		return "relu"
	case Linear:
		return "linear"
	default:
		return fmt.Sprintf("Activation(%d)", int(a))
	}
}

func (a Activation) apply(x float64) float64 {
	if a == ReLU && x < 0 {
		return 0
	}
	return x
}

// derivative of the activation w.r.t. its pre-activation input.
func (a Activation) derivative(pre float64) float64 {
	if a == ReLU && pre <= 0 {
		return 0
	}
	return 1
}

// LayerSpec describes one dense layer.
type LayerSpec struct {
	Units      int
	Activation Activation
}

// Config describes a network.
type Config struct {
	// Inputs is the feature dimension.
	Inputs int
	// Layers lists the dense layers in order. The final layer's unit count
	// is the output dimension (1 for the paper's regression heads).
	Layers []LayerSpec
	// Seed drives weight initialization and batch shuffling.
	Seed int64
}

// PaperConfig returns the Table 5 architecture for the given input width:
// 5 ReLU units into 1 linear unit.
func PaperConfig(inputs int, seed int64) Config {
	return Config{
		Inputs: inputs,
		Layers: []LayerSpec{{Units: 5, Activation: ReLU}, {Units: 1, Activation: Linear}},
		Seed:   seed,
	}
}

// layer is a dense layer with flat row-major weights (unit o's incoming
// weights at w[o*in:(o+1)*in]) and biases [out].
type layer struct {
	w    []float64
	b    []float64
	act  Activation
	in   int
	outs int
}

// Network is a feedforward neural network.
type Network struct {
	cfg    Config
	layers []*layer
	rng    *rand.Rand
	// fwd pools inference scratch (two ping-pong activation buffers), so
	// Predict1 allocates nothing in steady state and stays safe for
	// concurrent use — parallel experiment runs share one trained Network
	// across planner clones.
	fwd      *sync.Pool
	maxWidth int
}

// New builds a network with He-style initialization (appropriate for ReLU).
func New(cfg Config) (*Network, error) {
	if cfg.Inputs <= 0 {
		return nil, fmt.Errorf("neural: %d inputs", cfg.Inputs)
	}
	if len(cfg.Layers) == 0 {
		return nil, errors.New("neural: no layers")
	}
	n := &Network{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	in := cfg.Inputs
	n.maxWidth = in
	for _, spec := range cfg.Layers {
		if spec.Units <= 0 {
			return nil, fmt.Errorf("neural: layer with %d units", spec.Units)
		}
		l := &layer{
			w:    make([]float64, spec.Units*in),
			b:    make([]float64, spec.Units),
			act:  spec.Activation,
			in:   in,
			outs: spec.Units,
		}
		scale := math.Sqrt(2 / float64(in))
		for i := range l.w {
			l.w[i] = n.rng.NormFloat64() * scale
		}
		n.layers = append(n.layers, l)
		in = spec.Units
		n.maxWidth = max(n.maxWidth, spec.Units)
	}
	width := n.maxWidth
	n.fwd = &sync.Pool{New: func() any {
		return &fwdScratch{a: make([]float64, width), b: make([]float64, width)}
	}}
	return n, nil
}

// Outputs returns the output dimension.
func (n *Network) Outputs() int { return n.layers[len(n.layers)-1].outs }

// NumParams returns the total number of weights and biases; NN-Approx's
// memory-usage accounting (Table 6) reports this times 8 bytes.
func (n *Network) NumParams() int {
	total := 0
	for _, l := range n.layers {
		total += l.outs*l.in + l.outs
	}
	return total
}

// fwdScratch is a pooled pair of activation buffers for inference.
type fwdScratch struct{ a, b []float64 }

// forwardInto evaluates the network into the scratch buffers and returns
// the output layer's activations (a view into s, valid until s is reused).
func (n *Network) forwardInto(x []float64, s *fwdScratch) []float64 {
	cur := x
	bufA, bufB := s.a, s.b
	for _, l := range n.layers {
		out := bufA[:l.outs]
		for o := 0; o < l.outs; o++ {
			w := l.w[o*l.in : (o+1)*l.in]
			sum := l.b[o]
			for i, v := range cur {
				sum += w[i] * v
			}
			out[o] = l.act.apply(sum)
		}
		cur = out
		bufA, bufB = bufB, bufA
	}
	return cur
}

func (n *Network) checkWidth(x []float64) {
	if len(x) != n.cfg.Inputs {
		panic(fmt.Sprintf("neural: predict with %d features on %d-input network", len(x), n.cfg.Inputs))
	}
}

// Predict1 evaluates a single-output network: the regression value. It
// allocates nothing in steady state (pooled scratch), making it safe on
// planner hot paths.
func (n *Network) Predict1(x []float64) float64 {
	n.checkWidth(x)
	s := n.fwd.Get().(*fwdScratch)
	v := n.forwardInto(x, s)[0]
	n.fwd.Put(s)
	return v
}

// TrainOptions configures SGD. Zero values select the paper's Table 5
// settings (batch 1000, 10000 epochs) with a default learning rate.
type TrainOptions struct {
	Epochs       int
	BatchSize    int
	LearningRate float64
	// MaxEpochsNoImprove stops early when the epoch's running training MSE
	// — accumulated from the batch losses the SGD pass already computes, at
	// no extra cost — has not improved for this many epochs; 0 disables
	// early stopping.
	MaxEpochsNoImprove int
}

// Defaults from Table 5.
const (
	DefaultEpochs       = 10000
	DefaultBatchSize    = 1000
	DefaultLearningRate = 0.01
)

// trainChunkRows is the width of the chunks a minibatch's gradient is
// summed in. Chunk boundaries depend only on the batch, and with the
// chunk-order reduction they fix the weights the golden pins record.
const trainChunkRows = 128

// validate refuses options no SGD run can honour: negative counts, and a
// learning rate that is negative (it climbs the loss) or not finite.
func (o TrainOptions) validate() error {
	switch {
	case o.Epochs < 0:
		return fmt.Errorf("neural: %d epochs", o.Epochs)
	case o.BatchSize < 0:
		return fmt.Errorf("neural: batch size %d", o.BatchSize)
	case o.MaxEpochsNoImprove < 0:
		return fmt.Errorf("neural: early-stopping patience %d", o.MaxEpochsNoImprove)
	case o.LearningRate < 0 || math.IsNaN(o.LearningRate) || math.IsInf(o.LearningRate, 0):
		return fmt.Errorf("neural: learning rate %v", o.LearningRate)
	}
	return nil
}

func (o TrainOptions) withDefaults() TrainOptions {
	if o.Epochs == 0 {
		o.Epochs = DefaultEpochs
	}
	if o.BatchSize == 0 {
		o.BatchSize = DefaultBatchSize
	}
	if o.LearningRate == 0 {
		o.LearningRate = DefaultLearningRate
	}
	return o
}

// Train fits the network to (X, Y) with mini-batch SGD on MSE and returns
// the final training MSE. X is rows×Inputs and Y rows×Outputs, both flat
// row-major; zero options select the Table 5 settings, and negative or
// non-finite ones are an error. The steady-state epoch loop performs no
// allocation — all scratch lives in a workspace allocated once up front.
func (n *Network) Train(X, Y *tensor.Matrix, opts TrainOptions) (float64, error) {
	if X == nil || Y == nil || X.Rows() == 0 || X.Rows() != Y.Rows() {
		xr, yr := 0, 0
		if X != nil {
			xr = X.Rows()
		}
		if Y != nil {
			yr = Y.Rows()
		}
		return 0, fmt.Errorf("neural: %d rows, %d targets", xr, yr)
	}
	if X.Cols() != n.cfg.Inputs {
		return 0, fmt.Errorf("neural: rows have %d features, want %d", X.Cols(), n.cfg.Inputs)
	}
	if Y.Cols() != n.Outputs() {
		return 0, fmt.Errorf("neural: targets have %d values, want %d", Y.Cols(), n.Outputs())
	}
	if err := opts.validate(); err != nil {
		return 0, err
	}
	opts = opts.withDefaults()

	t := newTrainer(n, X, Y, opts)
	rows := X.Rows()
	samples := float64(rows * n.Outputs())
	bestMSE := math.Inf(1)
	stall := 0
	for range opts.Epochs {
		n.rng.Shuffle(rows, func(i, j int) { t.order[i], t.order[j] = t.order[j], t.order[i] })
		epochLoss := 0.0
		for start := 0; start < rows; start += opts.BatchSize {
			end := min(start+opts.BatchSize, rows)
			epochLoss += t.runBatch(t.order[start:end])
		}
		if opts.MaxEpochsNoImprove > 0 {
			// The epoch's running MSE over the batch losses the SGD pass
			// already computed (each batch's loss uses the weights it
			// trained from, standard running-loss early stopping) — no
			// extra O(N·params) evaluation pass per epoch.
			mse := epochLoss / samples
			if mse < bestMSE-1e-12 {
				bestMSE = mse
				stall = 0
			} else if stall++; stall >= opts.MaxEpochsNoImprove {
				break
			}
		}
	}
	return n.MSE(X, Y), nil
}

// trainWS is the per-sample backprop scratch: per-layer pre-activations
// and activations, plus the two delta buffers.
type trainWS struct {
	pres  [][]float64
	acts  [][]float64
	delta []float64
	dprev []float64
}

// chunkGrad accumulates one chunk's gradient contribution (flat, matching
// the layer layout) and its summed squared error.
type chunkGrad struct {
	w    [][]float64
	b    [][]float64
	loss float64
}

func (cg *chunkGrad) reset() {
	for li := range cg.w {
		clear(cg.w[li])
		clear(cg.b[li])
	}
	cg.loss = 0
}

// trainer owns all SGD state for one Train call: the shuffle order, the
// per-chunk gradient partials and the backprop workspace.
type trainer struct {
	n      *Network
	X, Y   *tensor.Matrix
	lr     float64
	order  []int
	chunks []*chunkGrad
	ws     trainWS
}

func newTrainer(n *Network, X, Y *tensor.Matrix, opts TrainOptions) *trainer {
	rows := X.Rows()
	t := &trainer{
		n:     n,
		X:     X,
		Y:     Y,
		lr:    opts.LearningRate,
		order: make([]int, rows),
		ws: trainWS{
			pres:  make([][]float64, len(n.layers)),
			acts:  make([][]float64, len(n.layers)),
			delta: make([]float64, n.maxWidth),
			dprev: make([]float64, n.maxWidth),
		},
	}
	for i := range t.order {
		t.order[i] = i
	}
	for li, l := range n.layers {
		t.ws.pres[li] = make([]float64, l.outs)
		t.ws.acts[li] = make([]float64, l.outs)
	}
	t.chunks = make([]*chunkGrad, (min(opts.BatchSize, rows)+trainChunkRows-1)/trainChunkRows)
	for c := range t.chunks {
		cg := &chunkGrad{w: make([][]float64, len(n.layers)), b: make([][]float64, len(n.layers))}
		for li, l := range n.layers {
			cg.w[li] = make([]float64, l.outs*l.in)
			cg.b[li] = make([]float64, l.outs)
		}
		t.chunks[c] = cg
	}
	return t
}

// runBatch accumulates the batch's gradient chunk by chunk, each chunk
// into its own partials, reduces the partials in chunk-index order,
// applies one SGD update, and returns the batch's summed squared error
// (computed against the pre-update weights).
func (t *trainer) runBatch(batch []int) float64 {
	nchunks := (len(batch) + trainChunkRows - 1) / trainChunkRows
	for c := 0; c < nchunks; c++ {
		cg := t.chunks[c]
		cg.reset()
		lo := c * trainChunkRows
		for _, idx := range batch[lo:min(lo+trainChunkRows, len(batch))] {
			t.backprop(t.X.Row(idx), t.Y.Row(idx), cg)
		}
	}

	// Every parameter sums its per-chunk partials in chunk-index order.
	scale := t.lr / float64(len(batch))
	for li, l := range t.n.layers {
		for k := range l.w {
			g := 0.0
			for c := 0; c < nchunks; c++ {
				g += t.chunks[c].w[li][k]
			}
			l.w[k] -= scale * g
		}
		for o := range l.b {
			g := 0.0
			for c := 0; c < nchunks; c++ {
				g += t.chunks[c].b[li][o]
			}
			l.b[o] -= scale * g
		}
	}
	loss := 0.0
	for c := 0; c < nchunks; c++ {
		loss += t.chunks[c].loss
	}
	return loss
}

// backprop accumulates one sample's gradient (of 0.5·Σ(pred-y)²) into cg.
func (t *trainer) backprop(x, y []float64, cg *chunkGrad) {
	n, ws := t.n, &t.ws
	cur := x
	for li, l := range n.layers {
		pres, acts := ws.pres[li], ws.acts[li]
		for o := 0; o < l.outs; o++ {
			w := l.w[o*l.in : (o+1)*l.in]
			sum := l.b[o]
			for i, v := range cur {
				sum += w[i] * v
			}
			pres[o] = sum
			acts[o] = l.act.apply(sum)
		}
		cur = acts
	}

	last := len(n.layers) - 1
	delta := ws.delta[:n.layers[last].outs]
	for o := range delta {
		d := ws.acts[last][o] - y[o]
		cg.loss += d * d
		delta[o] = d * n.layers[last].act.derivative(ws.pres[last][o])
	}
	for li := last; li >= 0; li-- {
		l := n.layers[li]
		in := x
		if li > 0 {
			in = ws.acts[li-1]
		}
		gw, gb := cg.w[li], cg.b[li]
		for o := 0; o < l.outs; o++ {
			d := delta[o]
			gb[o] += d
			row := gw[o*l.in : (o+1)*l.in]
			for i, v := range in {
				row[i] += d * v
			}
		}
		if li > 0 {
			prevLayer := n.layers[li-1]
			prev := ws.dprev[:l.in]
			for i := 0; i < l.in; i++ {
				s := 0.0
				for o := 0; o < l.outs; o++ {
					s += l.w[o*l.in+i] * delta[o]
				}
				prev[i] = s * prevLayer.act.derivative(ws.pres[li-1][i])
			}
			ws.delta, ws.dprev = ws.dprev, ws.delta
			delta = prev
		}
	}
}

// MSE returns the mean squared error over a dataset (averaged over outputs
// as well as rows).
func (n *Network) MSE(X, Y *tensor.Matrix) float64 {
	if X == nil || X.Rows() == 0 {
		return 0
	}
	s := n.fwd.Get().(*fwdScratch)
	defer n.fwd.Put(s)
	sum := 0.0
	count := 0
	for i := 0; i < X.Rows(); i++ {
		out := n.forwardInto(X.Row(i), s)
		yr := Y.Row(i)
		for o := range out {
			d := out[o] - yr[o]
			sum += d * d
			count++
		}
	}
	return sum / float64(count)
}

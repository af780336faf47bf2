package approx

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"github.com/routeplanning/mamorl/internal/neural"
)

// sharedSeed1 is the default seed-1 pipeline, built once per test binary
// run for the pins below.
var sharedSeed1 *Pipeline

func seed1Pipeline(t *testing.T) *Pipeline {
	t.Helper()
	if sharedSeed1 == nil {
		p, err := NewPipeline(TrainConfig{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		sharedSeed1 = p
	}
	return sharedSeed1
}

// goldenTrainingSet is the SHA-256 of the default seed-1 pipeline's
// training set and fitted linear weights; see TestTrainingSetGolden.
const goldenTrainingSet = "f08ceb00f976c0b966e600e1eae72675bd9e3d6d717a1e28c5897024cda9d1d7"

// TestTrainingSetGolden pins what NewPipeline(TrainConfig{Seed: 1})
// harvests, bit for bit: every TMM and LM feature row and target, in
// collection order, and the linear model fitted to them. The planners'
// golden pins see only the actions a model leads to, so a change to how
// CollectSamples walks actions (or to a feature's arithmetic) that moves a
// low bit, reorders rows or drops one surfaces here first.
func TestTrainingSetGolden(t *testing.T) {
	p := seed1Pipeline(t)
	model, _, err := FitLinear(p.Data)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	tmm, lm := p.Data.Len()
	putInts(h, tmm, lm)
	for k, y := range p.Data.TMMY {
		putFloats(h, p.Data.TMMX.Row(k)...)
		putFloats(h, y)
	}
	for k, y := range p.Data.LMY {
		putFloats(h, p.Data.LMX.Row(k)...)
		putFloats(h, y)
	}
	for _, m := range []struct {
		w []float64
		b float64
	}{{model.TMM.Weights, model.TMM.Intercept}, {model.LM.Weights, model.LM.Intercept}} {
		putInts(h, len(m.w))
		putFloats(h, m.w...)
		putFloats(h, m.b)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenTrainingSet {
		t.Errorf("training set digest = %s, want %s (tmm=%d lm=%d rows)", got, goldenTrainingSet, tmm, lm)
	}
}

func putInts(h hash.Hash, xs ...int) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
}

func putFloats(h hash.Hash, xs ...float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

// goldenNeuralFit is the SHA-256 of the seed-1 pipeline's NN-Approx fit;
// see TestNeuralFitGolden.
const goldenNeuralFit = "34594bfb703789b93c2a63a6633ce44db9811019360cb87271ce0c2661281754"

// TestNeuralFitGolden pins FitNeural on the default seed-1 pipeline at
// Figure 3's quick settings (batch 256, learning rate 0.05, seed 1) with a
// 20-epoch budget: both networks' predictions on every training row and
// their training MSEs, bit for bit. TestTrainingSetGolden pins the rows
// the networks train on; this pins the SGD arithmetic run on them.
func TestNeuralFitGolden(t *testing.T) {
	p := seed1Pipeline(t)
	opts := neural.TrainOptions{Epochs: 20, BatchSize: 256, LearningRate: 0.05}
	model, _, err := FitNeural(p.Data, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for k := range p.Data.TMMY {
		putFloats(h, model.TMM.Predict1(p.Data.TMMX.Row(k)))
	}
	for k := range p.Data.LMY {
		putFloats(h, model.LM.Predict1(p.Data.LMX.Row(k)))
	}
	tmmMSE, lmMSE := model.FitLoss(p.Data)
	putFloats(h, tmmMSE, lmMSE)
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenNeuralFit {
		t.Errorf("neural fit digest = %s, want %s (TMM MSE %v, LM MSE %v)", got, goldenNeuralFit, tmmMSE, lmMSE)
	}
}

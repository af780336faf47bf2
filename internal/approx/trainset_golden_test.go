package approx

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"
)

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
	p, err := NewPipeline(TrainConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	model, _, err := FitLinear(p.Data, 0)
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

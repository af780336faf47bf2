package neural

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// goldenTrain is the SHA-256 of the weight bits TestTrainGolden's run
// produces.
const goldenTrain = "b53a90a70bc5a505672ba7e3ac1ebc2de2bbb4e7968ca3929fbfc558ff655d77"

// TestTrainGolden pins the trained weights of a multi-chunk run bit for
// bit. The 128-row chunks, per-chunk gradient partials and chunk-order
// reduction fix the order of every floating-point sum, so a change to how
// runBatch cuts or reduces a batch moves this digest.
func TestTrainGolden(t *testing.T) {
	n, err := New(PaperConfig(6, 21))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	X, Y := randomData(t, 700, 6, 11)
	// Batch 300 is 3 chunks per full batch: a real multi-chunk reduction.
	if _, err := n.Train(X, Y, TrainOptions{Epochs: 12, BatchSize: 300, LearningRate: 0.05}); err != nil {
		t.Fatalf("Train: %v", err)
	}
	h := sha256.New()
	var b [8]byte
	put := func(vs []float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	for _, l := range n.layers {
		put(l.w)
		put(l.b)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenTrain {
		t.Errorf("trained weight digest = %s, want %s", got, goldenTrain)
	}
}

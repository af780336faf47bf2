package neural

import (
	"math"
	"testing"
)

// weightBits flattens every parameter to its exact bit pattern, so equality
// means byte-identical — not merely within tolerance.
func weightBits(n *Network) []uint64 {
	var bits []uint64
	for _, l := range n.layers {
		for _, v := range l.w {
			bits = append(bits, math.Float64bits(v))
		}
		for _, v := range l.b {
			bits = append(bits, math.Float64bits(v))
		}
	}
	return bits
}

func trainWith(t *testing.T, workers int) (*Network, error) {
	t.Helper()
	n, err := New(PaperConfig(6, 21))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	X, Y := randomData(t, 700, 6, 11)
	_, terr := n.Train(X, Y, TrainOptions{
		Epochs:       12,
		BatchSize:    300, // 3 chunks per full batch: real multi-chunk reduction
		LearningRate: 0.05,
		Workers:      workers,
	})
	return n, terr
}

// TestWorkersByteIdentical pins the deterministic-reduction contract: the
// trained weights are byte-identical at any worker count, because chunk
// boundaries and the reduction order never depend on Workers.
func TestWorkersByteIdentical(t *testing.T) {
	ref, err := trainWith(t, 1)
	if err != nil {
		t.Fatalf("workers=1: %v", err)
	}
	want := weightBits(ref)
	for _, workers := range []int{2, 8} {
		n, err := trainWith(t, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := weightBits(n)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: weight %d differs: %x vs %x", workers, i, got[i], want[i])
			}
		}
	}
}

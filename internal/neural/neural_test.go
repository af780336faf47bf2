package neural

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Inputs: 0, Layers: []LayerSpec{{Units: 1}}}); err == nil {
		t.Error("zero inputs accepted")
	}
	if _, err := New(Config{Inputs: 2}); err == nil {
		t.Error("no layers accepted")
	}
	if _, err := New(Config{Inputs: 2, Layers: []LayerSpec{{Units: 0}}}); err == nil {
		t.Error("zero units accepted")
	}
}

func TestPaperConfig(t *testing.T) {
	cfg := PaperConfig(6, 1)
	if len(cfg.Layers) != 2 || cfg.Layers[0].Units != 5 || cfg.Layers[1].Units != 1 {
		t.Errorf("PaperConfig = %+v, want Table 5's 5 ReLU + 1 linear", cfg)
	}
	if cfg.Layers[0].Activation != ReLU || cfg.Layers[1].Activation != Linear {
		t.Error("activations must be ReLU then Linear (Table 5)")
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// 6*5+5 + 5*1+1 = 41 parameters.
	if n.NumParams() != 41 {
		t.Errorf("NumParams = %d, want 41", n.NumParams())
	}
	if n.Outputs() != 1 {
		t.Errorf("Outputs = %d", n.Outputs())
	}
}

func TestActivationString(t *testing.T) {
	if ReLU.String() != "relu" || Linear.String() != "linear" {
		t.Error("activation strings wrong")
	}
	if Activation(9).String() != "Activation(9)" {
		t.Error("unknown activation string wrong")
	}
}

func TestLearnsLinearFunction(t *testing.T) {
	// y = 2a - b + 0.5: learnable exactly by the linear head alone.
	n, err := New(PaperConfig(2, 7))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	var X, y [][]float64
	for i := 0; i < 300; i++ {
		a, b := rng.Float64()*2-1, rng.Float64()*2-1
		X = append(X, []float64{a, b})
		y = append(y, []float64{2*a - b + 0.5})
	}
	mse, err := n.Train(mat(X), mat(y), TrainOptions{Epochs: 2000, BatchSize: 32, LearningRate: 0.05})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if mse > 1e-3 {
		t.Errorf("final MSE = %v, want < 1e-3", mse)
	}
	if got := n.Predict1([]float64{0.5, -0.5}); math.Abs(got-2.0) > 0.1 {
		t.Errorf("Predict(0.5,-0.5) = %v, want ~2.0", got)
	}
}

func TestLearnsNonlinearFunction(t *testing.T) {
	// y = |x| requires the ReLU layer; a pure linear model's best MSE on
	// symmetric data is Var(|x|) ~ 0.083 for x ~ U(-1,1).
	n, err := New(Config{
		Inputs: 1,
		Layers: []LayerSpec{{Units: 8, Activation: ReLU}, {Units: 1, Activation: Linear}},
		Seed:   3,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rng := rand.New(rand.NewSource(2))
	var X, y [][]float64
	for i := 0; i < 400; i++ {
		x := rng.Float64()*2 - 1
		X = append(X, []float64{x})
		y = append(y, []float64{math.Abs(x)})
	}
	mse, err := n.Train(mat(X), mat(y), TrainOptions{Epochs: 3000, BatchSize: 64, LearningRate: 0.05})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if mse > 0.01 {
		t.Errorf("nonlinear MSE = %v, want < 0.01 (linear best ~0.083)", mse)
	}
}

func TestTrainValidation(t *testing.T) {
	n, _ := New(PaperConfig(2, 1))
	if _, err := n.Train(nil, nil, TrainOptions{}); err == nil {
		t.Error("empty data accepted")
	}
	if _, err := n.Train(mat([][]float64{{1, 2}}), mat([][]float64{{1}, {2}}), TrainOptions{}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := n.Train(mat([][]float64{{1}}), mat([][]float64{{1}}), TrainOptions{}); err == nil {
		t.Error("wrong feature width accepted")
	}
	if _, err := n.Train(mat([][]float64{{1, 2}}), mat([][]float64{{1, 2}}), TrainOptions{}); err == nil {
		t.Error("wrong target width accepted")
	}
	X, y := mat([][]float64{{1, 2}, {3, 4}}), mat([][]float64{{1}, {2}})
	for name, opts := range map[string]TrainOptions{
		"negative epochs":        {Epochs: -1},
		"negative batch size":    {BatchSize: -5},
		"negative patience":      {MaxEpochsNoImprove: -1},
		"negative learning rate": {LearningRate: -0.01},
		"NaN learning rate":      {LearningRate: math.NaN()},
		"infinite learning rate": {LearningRate: math.Inf(1)},
	} {
		if _, err := n.Train(X, y, opts); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestPredictPanicsOnWidth(t *testing.T) {
	n, _ := New(PaperConfig(3, 1))
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	n.Predict1([]float64{1})
}

func TestEarlyStopping(t *testing.T) {
	n, _ := New(PaperConfig(1, 5))
	X := [][]float64{{0}, {1}}
	y := [][]float64{{0}, {1}}
	// With aggressive early stopping the train loop must terminate fast and
	// still return a finite MSE.
	mse, err := n.Train(mat(X), mat(y), TrainOptions{Epochs: 100000, BatchSize: 2, LearningRate: 0.1, MaxEpochsNoImprove: 5})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if math.IsNaN(mse) || math.IsInf(mse, 0) {
		t.Errorf("MSE = %v", mse)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	build := func() float64 {
		n, _ := New(PaperConfig(2, 42))
		X := [][]float64{{0.1, 0.2}, {0.3, -0.1}, {-0.2, 0.4}}
		y := [][]float64{{0.5}, {0.1}, {-0.3}}
		mse, _ := n.Train(mat(X), mat(y), TrainOptions{Epochs: 50, BatchSize: 2, LearningRate: 0.05})
		return mse
	}
	if build() != build() {
		t.Error("same seed must give identical training trajectories")
	}
}

func TestMSEEmpty(t *testing.T) {
	n, _ := New(PaperConfig(2, 1))
	if got := n.MSE(nil, nil); got != 0 {
		t.Errorf("MSE(empty) = %v", got)
	}
}

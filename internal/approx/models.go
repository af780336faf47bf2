package approx

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"github.com/routeplanning/mamorl/internal/features"
	"github.com/routeplanning/mamorl/internal/linreg"
	"github.com/routeplanning/mamorl/internal/neural"
	"github.com/routeplanning/mamorl/internal/tensor"
)

// Model approximates both modules: the TMM's P values and the LM's reward
// values, each from its feature vector.
type Model interface {
	// PredictTMM estimates P(s, a_j) from Equation 9's features.
	PredictTMM(x []float64) float64
	// PredictLM estimates r̂_{i,a_i,s} from Equation 11's features.
	PredictLM(x []float64) float64
	// Bytes is the serialized parameter footprint, the "memory usage" of
	// Table 6's Approx rows.
	Bytes() int
	// Name identifies the approximation family.
	Name() string
}

// LinearModel is Approx-MaMoRL's model pair (Section 3.3, linear
// regression).
type LinearModel struct {
	TMM *linreg.Model
	LM  *linreg.Model
}

// PredictTMM implements Model.
func (m *LinearModel) PredictTMM(x []float64) float64 { return m.TMM.Predict(x) }

// PredictLM implements Model.
func (m *LinearModel) PredictLM(x []float64) float64 { return m.LM.Predict(x) }

// Bytes implements Model: weight vectors plus intercepts at 8 bytes each.
func (m *LinearModel) Bytes() int {
	return (len(m.TMM.Weights) + len(m.LM.Weights) + 2) * 8
}

// Name implements Model.
func (m *LinearModel) Name() string { return "Approx-MaMoRL" }

// FitLinear fits the linear model pair by least squares (Equations 10 and
// 12) and reports the training wall time (the Figure 3 comparison metric).
func FitLinear(data *TrainingData) (*LinearModel, time.Duration, error) {
	start := time.Now()
	opts := linreg.Options{FitIntercept: true, Ridge: 1e-6}
	tmm, err := linreg.Fit(data.TMMX, data.TMMY, opts)
	if err != nil {
		return nil, 0, fmt.Errorf("approx: TMM fit: %w", err)
	}
	lm, err := linreg.Fit(data.LMX, data.LMY, opts)
	if err != nil {
		return nil, 0, fmt.Errorf("approx: LM fit: %w", err)
	}
	return &LinearModel{TMM: tmm, LM: lm}, time.Since(start), nil
}

// FitLoss reports the pair's mean squared error on the training samples —
// the "fit loss" entry of the learning-curve export.
func (m *LinearModel) FitLoss(data *TrainingData) (tmm, lm float64) {
	return m.TMM.MSE(data.TMMX, data.TMMY), m.LM.MSE(data.LMX, data.LMY)
}

// linearModelFile is the on-disk JSON form of a LinearModel — the entire
// deployable planner state (a few hundred bytes, as Table 6 reports).
type linearModelFile struct {
	TMMWeights   []float64 `json:"tmm_weights"`
	TMMIntercept float64   `json:"tmm_intercept"`
	LMWeights    []float64 `json:"lm_weights"`
	LMIntercept  float64   `json:"lm_intercept"`
}

// Save writes the model weights as JSON.
func (m *LinearModel) Save(path string) error {
	data, err := json.MarshalIndent(linearModelFile{
		TMMWeights:   m.TMM.Weights,
		TMMIntercept: m.TMM.Intercept,
		LMWeights:    m.LM.Weights,
		LMIntercept:  m.LM.Intercept,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadLinear reads a model saved by Save.
func LoadLinear(path string) (*LinearModel, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f linearModelFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("approx: load model: %w", err)
	}
	m, err := linearModel(&linreg.Model{Weights: f.TMMWeights, Intercept: f.TMMIntercept},
		&linreg.Model{Weights: f.LMWeights, Intercept: f.LMIntercept})
	if err != nil {
		return nil, fmt.Errorf("approx: model file %s: %w", path, err)
	}
	return m, nil
}

// linearModel pairs loaded TMM and LM regressions, the one check every
// loader passes through: their widths must match the feature vectors
// Decide builds (features.TMMDim and features.LMDim), or the first
// prediction would panic.
func linearModel(tmm, lm *linreg.Model) (*LinearModel, error) {
	if len(tmm.Weights) != features.TMMDim || len(lm.Weights) != features.LMDim {
		return nil, fmt.Errorf("%d TMM and %d LM weights, want %d and %d",
			len(tmm.Weights), len(lm.Weights), features.TMMDim, features.LMDim)
	}
	return &LinearModel{TMM: tmm, LM: lm}, nil
}

// NeuralModel is NN-Approx-MaMoRL's model pair: one Table 5 network per
// module.
type NeuralModel struct {
	TMM *neural.Network
	LM  *neural.Network
}

// PredictTMM implements Model.
func (m *NeuralModel) PredictTMM(x []float64) float64 { return m.TMM.Predict1(x) }

// PredictLM implements Model.
func (m *NeuralModel) PredictLM(x []float64) float64 { return m.LM.Predict1(x) }

// Bytes implements Model.
func (m *NeuralModel) Bytes() int { return (m.TMM.NumParams() + m.LM.NumParams()) * 8 }

// Name implements Model.
func (m *NeuralModel) Name() string { return "NN-Approx-MaMoRL" }

// FitNeural trains the network pair with the Table 5 architecture and the
// given SGD options, reporting training wall time. Pass zero-valued options
// for the paper's batch 1000 / 10000 epochs (slow — Figure 3's point);
// tests and benches use smaller budgets.
func FitNeural(data *TrainingData, opts neural.TrainOptions, seed int64) (*NeuralModel, time.Duration, error) {
	start := time.Now()
	if data.TMMX.Rows() == 0 || data.LMX.Rows() == 0 {
		return nil, 0, fmt.Errorf("approx: no training data")
	}
	tmm, err := neural.New(neural.PaperConfig(data.TMMX.Cols(), seed))
	if err != nil {
		return nil, 0, err
	}
	lm, err := neural.New(neural.PaperConfig(data.LMX.Cols(), seed+1))
	if err != nil {
		return nil, 0, err
	}
	tmmY, lmY := data.targets()
	if _, err := tmm.Train(data.TMMX, tmmY, opts); err != nil {
		return nil, 0, fmt.Errorf("approx: TMM net: %w", err)
	}
	if _, err := lm.Train(data.LMX, lmY, opts); err != nil {
		return nil, 0, fmt.Errorf("approx: LM net: %w", err)
	}
	return &NeuralModel{TMM: tmm, LM: lm}, time.Since(start), nil
}

// FitLoss reports the pair's mean squared error on the training samples.
func (m *NeuralModel) FitLoss(data *TrainingData) (tmm, lm float64) {
	tmmY, lmY := data.targets()
	return m.TMM.MSE(data.TMMX, tmmY), m.LM.MSE(data.LMX, lmY)
}

// targets views the TMM and LM targets as one-column matrices, the shape
// the networks train against. FromSlice cannot fail for one column.
func (d *TrainingData) targets() (tmm, lm *tensor.Matrix) {
	tmm, _ = tensor.FromSlice(d.TMMY, 1)
	lm, _ = tensor.FromSlice(d.LMY, 1)
	return tmm, lm
}

package approx

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"github.com/routeplanning/mamorl/internal/linreg"
	"github.com/routeplanning/mamorl/internal/neural"
)

// Blob persistence for the model registry: each model pair (TMM + LM)
// serializes to one gob payload. The per-module encoding is delegated to
// linreg.Save/Load and neural.Save/Load so the registry blob format stays in
// lockstep with the single-model formats; the pair file only frames the two
// sub-streams.

// pairFile frames a model pair: the kind discriminator plus the two
// module payloads, each a self-contained gob stream.
type pairFile struct {
	Version int
	Kind    string
	TMM     []byte
	LM      []byte
}

const pairFileVersion = 1

// Pair-file kind discriminators.
const (
	pairKindLinear = "linreg"
	pairKindNeural = "nn"
)

// encodePair gobs a framed pair file.
func encodePair(kind string, tmm, lm []byte) ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(pairFile{
		Version: pairFileVersion, Kind: kind, TMM: tmm, LM: lm,
	})
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodePair reads a framed pair file and checks the kind discriminator.
func decodePair(blob []byte, kind string) (pairFile, error) {
	var pf pairFile
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&pf); err != nil {
		return pairFile{}, fmt.Errorf("approx: decode model blob: %w", err)
	}
	if pf.Version != pairFileVersion {
		return pairFile{}, fmt.Errorf("approx: model blob version %d, want %d", pf.Version, pairFileVersion)
	}
	if pf.Kind != kind {
		return pairFile{}, fmt.Errorf("approx: model blob kind %q, want %q", pf.Kind, kind)
	}
	if len(pf.TMM) == 0 || len(pf.LM) == 0 {
		return pairFile{}, fmt.Errorf("approx: model blob missing a module payload")
	}
	return pf, nil
}

// EncodeBlob serializes the linear model pair for registry storage.
func (m *LinearModel) EncodeBlob() ([]byte, error) {
	var tmm, lm bytes.Buffer
	if err := m.TMM.Save(&tmm); err != nil {
		return nil, fmt.Errorf("approx: encode TMM: %w", err)
	}
	if err := m.LM.Save(&lm); err != nil {
		return nil, fmt.Errorf("approx: encode LM: %w", err)
	}
	return encodePair(pairKindLinear, tmm.Bytes(), lm.Bytes())
}

// DecodeLinearBlob inverts (*LinearModel).EncodeBlob.
func DecodeLinearBlob(blob []byte) (*LinearModel, error) {
	pf, err := decodePair(blob, pairKindLinear)
	if err != nil {
		return nil, err
	}
	tmm, err := linreg.Load(bytes.NewReader(pf.TMM))
	if err != nil {
		return nil, fmt.Errorf("approx: decode TMM: %w", err)
	}
	lm, err := linreg.Load(bytes.NewReader(pf.LM))
	if err != nil {
		return nil, fmt.Errorf("approx: decode LM: %w", err)
	}
	m, err := linearModel(tmm, lm)
	if err != nil {
		return nil, fmt.Errorf("approx: model blob: %w", err)
	}
	return m, nil
}

// EncodeBlob serializes the neural model pair for registry storage.
func (m *NeuralModel) EncodeBlob() ([]byte, error) {
	var tmm, lm bytes.Buffer
	if err := m.TMM.Save(&tmm); err != nil {
		return nil, fmt.Errorf("approx: encode TMM net: %w", err)
	}
	if err := m.LM.Save(&lm); err != nil {
		return nil, fmt.Errorf("approx: encode LM net: %w", err)
	}
	return encodePair(pairKindNeural, tmm.Bytes(), lm.Bytes())
}

// DecodeNeuralBlob inverts (*NeuralModel).EncodeBlob.
func DecodeNeuralBlob(blob []byte) (*NeuralModel, error) {
	pf, err := decodePair(blob, pairKindNeural)
	if err != nil {
		return nil, err
	}
	tmm, err := neural.Load(bytes.NewReader(pf.TMM))
	if err != nil {
		return nil, fmt.Errorf("approx: decode TMM net: %w", err)
	}
	lm, err := neural.Load(bytes.NewReader(pf.LM))
	if err != nil {
		return nil, fmt.Errorf("approx: decode LM net: %w", err)
	}
	return &NeuralModel{TMM: tmm, LM: lm}, nil
}

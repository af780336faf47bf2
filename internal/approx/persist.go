package approx

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"github.com/routeplanning/mamorl/internal/linreg"
)

// Blob persistence for the model registry: the linear model pair (TMM +
// LM) serializes to one gob payload. The per-module encoding is delegated
// to linreg.Save/Load so the registry blob format stays in lockstep with
// the single-model format; the pair file only frames the two sub-streams.

// pairFile frames a model pair: a kind discriminator plus the two module
// payloads, each a self-contained gob stream. The kind is always
// pairKindLinear on write; on read it refuses a frame of any other kind
// (an artifact written for another model family).
type pairFile struct {
	Version int
	Kind    string
	TMM     []byte
	LM      []byte
}

const (
	pairFileVersion = 1
	pairKindLinear  = "linreg"
)

// EncodeBlob serializes the linear model pair for registry storage.
func (m *LinearModel) EncodeBlob() ([]byte, error) {
	var tmm, lm, buf bytes.Buffer
	if err := m.TMM.Save(&tmm); err != nil {
		return nil, fmt.Errorf("approx: encode TMM: %w", err)
	}
	if err := m.LM.Save(&lm); err != nil {
		return nil, fmt.Errorf("approx: encode LM: %w", err)
	}
	err := gob.NewEncoder(&buf).Encode(pairFile{
		Version: pairFileVersion, Kind: pairKindLinear, TMM: tmm.Bytes(), LM: lm.Bytes(),
	})
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeLinearBlob inverts (*LinearModel).EncodeBlob.
func DecodeLinearBlob(blob []byte) (*LinearModel, error) {
	var pf pairFile
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&pf); err != nil {
		return nil, fmt.Errorf("approx: decode model blob: %w", err)
	}
	if pf.Version != pairFileVersion {
		return nil, fmt.Errorf("approx: model blob version %d, want %d", pf.Version, pairFileVersion)
	}
	if pf.Kind != pairKindLinear {
		return nil, fmt.Errorf("approx: model blob kind %q, want %q", pf.Kind, pairKindLinear)
	}
	if len(pf.TMM) == 0 || len(pf.LM) == 0 {
		return nil, fmt.Errorf("approx: model blob missing a module payload")
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

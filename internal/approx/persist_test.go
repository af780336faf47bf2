package approx

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"path/filepath"
	"strings"
	"testing"

	"github.com/routeplanning/mamorl/internal/features"
	"github.com/routeplanning/mamorl/internal/linreg"
)

// widthModel is an untrained linear pair with the given weight widths.
func widthModel(tmm, lm int) *LinearModel {
	return &LinearModel{
		TMM: &linreg.Model{Weights: make([]float64, tmm), Intercept: 0.5},
		LM:  &linreg.Model{Weights: make([]float64, lm), Intercept: -0.5},
	}
}

// wantWidthError is the error text of a three-and-three-weight model.
const wantWidthError = "3 TMM and 3 LM weights, want 5 and 6"

// TestLoadLinearRefusesMismatchedWidths: a model file whose weights do not
// fit the feature vectors is refused at load, naming the widths, instead of
// panicking at the planner's first prediction.
func TestLoadLinearRefusesMismatchedWidths(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	if err := widthModel(features.TMMDim, features.LMDim).Save(good); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadLinear(good); err != nil {
		t.Fatalf("LoadLinear of a %d/%d-weight file: %v", features.TMMDim, features.LMDim, err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := widthModel(3, 3).Save(bad); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadLinear(bad); err == nil || !strings.Contains(err.Error(), wantWidthError) {
		t.Fatalf("LoadLinear of a 3/3-weight file: err = %v, want one naming %q", err, wantWidthError)
	}
}

// TestDecodeLinearBlobRefusesMismatchedWidths is the same check for the
// registry's blob form.
func TestDecodeLinearBlobRefusesMismatchedWidths(t *testing.T) {
	blob, err := widthModel(features.TMMDim, features.LMDim).EncodeBlob()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeLinearBlob(blob); err != nil {
		t.Fatalf("DecodeLinearBlob of a %d/%d-weight blob: %v", features.TMMDim, features.LMDim, err)
	}
	if blob, err = widthModel(3, 3).EncodeBlob(); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeLinearBlob(blob); err == nil || !strings.Contains(err.Error(), wantWidthError) {
		t.Fatalf("DecodeLinearBlob of a 3/3-weight blob: err = %v, want one naming %q", err, wantWidthError)
	}
}

// goldenLinearBlob is the SHA-256 of EncodeBlob for the linear model the
// default seed-1 pipeline fits (the model TestTrainingSetGolden pins).
const goldenLinearBlob = "ad40d1676b5497dd606252570ebb8cedba63a37ce0d60108e2d44f16c652aab1"

// TestLinearBlobGolden pins the registry blob byte for byte: a registry
// artifact's ID hashes its blob, so a change to the pair frame or to
// linreg's gob form would orphan every stored artifact.
func TestLinearBlobGolden(t *testing.T) {
	p, err := NewPipeline(TrainConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	model, _, err := FitLinear(p.Data)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := model.EncodeBlob()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	if got := hex.EncodeToString(sum[:]); got != goldenLinearBlob {
		t.Errorf("linear blob digest = %s, want %s (%d bytes)", got, goldenLinearBlob, len(blob))
	}
}

// TestDecodeLinearBlobRefusesOtherKind: a pair frame of another kind is
// refused even when its module payloads are valid linear models.
func TestDecodeLinearBlobRefusesOtherKind(t *testing.T) {
	m := widthModel(features.TMMDim, features.LMDim)
	var tmm, lm, buf bytes.Buffer
	if err := m.TMM.Save(&tmm); err != nil {
		t.Fatal(err)
	}
	if err := m.LM.Save(&lm); err != nil {
		t.Fatal(err)
	}
	pf := pairFile{Version: pairFileVersion, Kind: "nn", TMM: tmm.Bytes(), LM: lm.Bytes()}
	if err := gob.NewEncoder(&buf).Encode(pf); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeLinearBlob(buf.Bytes()); err == nil || !strings.Contains(err.Error(), `kind "nn"`) {
		t.Fatalf("DecodeLinearBlob of an nn-kind frame: err = %v, want one naming the kind", err)
	}
}

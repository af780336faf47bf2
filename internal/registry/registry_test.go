package registry

import (
	"bytes"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/routeplanning/mamorl/internal/approx"
	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/linreg"
)

// testGrid generates a small named grid for manifest identity.
func testGrid(t *testing.T, seed int64) *grid.Grid {
	t.Helper()
	g, err := grid.GenerateSynthetic(grid.SyntheticConfig{
		Name: "registry-test", Nodes: 30, Edges: 55, MaxOutDegree: 5, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// testModel builds a deterministic linear model pair without training, as
// wide as the feature vectors (5 TMM and 6 LM weights) so that it loads.
func testModel(bias float64) *approx.LinearModel {
	return &approx.LinearModel{
		TMM: &linreg.Model{Weights: []float64{0.5, -1.25, bias, 0.25, -0.5}, Intercept: 0.1},
		LM:  &linreg.Model{Weights: []float64{2.0, 0.75, -bias, 0.5, -0.25, 1.5}, Intercept: -0.2},
	}
}

func openStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openStore(t)
	g := testGrid(t, 1)
	model := testModel(1.0)

	man, err := PutLinear(s, model, Meta{Grid: g, Seed: 7, Params: TrainParams{Assets: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if man.ID == "" || man.Kind != KindLinreg || man.Grid != "registry-test" {
		t.Fatalf("bad manifest: %+v", man)
	}
	if man.GridFingerprint != g.Fingerprint() {
		t.Fatalf("fingerprint mismatch: %s vs %s", man.GridFingerprint, g.Fingerprint())
	}
	if man.Seed != 7 || man.WeightsSHA256 == "" || man.WeightsBytes == 0 {
		t.Fatalf("incomplete manifest: %+v", man)
	}

	got, err := s.Get(man.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != man.ID || got.WeightsSHA256 != man.WeightsSHA256 {
		t.Fatalf("Get returned a different manifest: %+v vs %+v", got, man)
	}

	loaded, err := LoadLinear(s, got)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.3, -0.7, 1.1, 0.2, -0.4, 0.9}
	if loaded.PredictTMM(x[:5]) != model.PredictTMM(x[:5]) || loaded.PredictLM(x) != model.PredictLM(x) {
		t.Fatal("loaded model predicts differently from the registered one")
	}
}

func TestPutIdempotent(t *testing.T) {
	s := openStore(t)
	g := testGrid(t, 1)
	model := testModel(1.0)
	meta := Meta{Grid: g, Seed: 7}

	first, err := PutLinear(s, model, meta)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond) // a fresh Put would get a later CreatedAt
	second, err := PutLinear(s, model, meta)
	if err != nil {
		t.Fatal(err)
	}
	if second.ID != first.ID {
		t.Fatalf("re-Put changed the artifact ID: %s vs %s", second.ID, first.ID)
	}
	if !second.CreatedAt.Equal(first.CreatedAt) {
		t.Fatalf("re-Put changed CreatedAt: %v vs %v", second.CreatedAt, first.CreatedAt)
	}
	all, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 {
		t.Fatalf("idempotent Put left %d manifests, want 1", len(all))
	}
}

func TestListAndResolve(t *testing.T) {
	s := openStore(t)
	g := testGrid(t, 1)

	old, err := PutLinear(s, testModel(1.0), Meta{Grid: g, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	latest, err := PutLinear(s, testModel(2.0), Meta{Grid: g, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}

	all, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 || all[0].ID != old.ID || all[1].ID != latest.ID {
		t.Fatalf("List order wrong: %+v", all)
	}

	byGrid := func(grid string) func(Manifest) bool {
		return func(m Manifest) bool { return m.Grid == grid && m.Kind == KindLinreg }
	}
	got, err := s.ResolveMatch(byGrid("registry-test"))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != latest.ID {
		t.Fatalf("ResolveMatch returned %s, want latest %s", got.ID, latest.ID)
	}

	bySeed, err := s.ResolveMatch(func(m Manifest) bool { return m.Seed == 1 })
	if err != nil {
		t.Fatal(err)
	}
	if bySeed.ID != old.ID {
		t.Fatalf("ResolveMatch returned %s, want %s", bySeed.ID, old.ID)
	}

	if _, err := s.ResolveMatch(byGrid("no-such-grid")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ResolveMatch on missing grid: %v, want ErrNotFound", err)
	}
	if _, err := s.Get("deadbeefdeadbeef"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get on missing ID: %v, want ErrNotFound", err)
	}
}

func TestCorruptBlobDetected(t *testing.T) {
	s := openStore(t)
	man, err := PutLinear(s, testModel(1.0), Meta{Grid: testGrid(t, 1), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.Dir(), "blobs", man.WeightsSHA256+".gob")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Blob(man); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Blob on flipped byte: %v, want ErrCorrupt", err)
	}
	if _, err := LoadLinear(s, man); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("LoadLinear on flipped byte: %v, want ErrCorrupt", err)
	}
}

func TestRePutHealsCorruptBlob(t *testing.T) {
	s := openStore(t)
	g := testGrid(t, 1)
	model := testModel(1.0)
	meta := Meta{Grid: g, Seed: 7}
	man, err := PutLinear(s, model, meta)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.Dir(), "blobs", man.WeightsSHA256+".gob")
	if err := os.WriteFile(path, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Blob(man); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted blob passed verification: %v", err)
	}
	healed, err := PutLinear(s, model, meta)
	if err != nil {
		t.Fatal(err)
	}
	if healed.ID != man.ID {
		t.Fatalf("heal changed the artifact ID: %s vs %s", healed.ID, man.ID)
	}
	if _, err := LoadLinear(s, healed); err != nil {
		t.Fatalf("artifact still broken after re-Put: %v", err)
	}
}

func TestTamperedManifestDetected(t *testing.T) {
	s := openStore(t)
	man, err := PutLinear(s, testModel(1.0), Meta{Grid: testGrid(t, 1), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.Dir(), "manifests", man.ID+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := []byte(strings.Replace(string(data), `"seed": 7`, `"seed": 8`, 1))
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(man.ID); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get on tampered manifest: %v, want ErrCorrupt", err)
	}
	// List must skip the damaged artifact, not fail.
	all, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 0 {
		t.Fatalf("List served a tampered manifest: %+v", all)
	}
}

// TestNeuralBlobKindMismatch: an artifact whose blob frames a model pair
// of another kind (the "nn" frame NN-Approx-MaMoRL artifacts were stored
// in) stays listed but does not load as a linear model.
func TestNeuralBlobKindMismatch(t *testing.T) {
	s := openStore(t)
	g := testGrid(t, 1)
	var blob bytes.Buffer
	frame := struct {
		Version int
		Kind    string
		TMM, LM []byte
	}{Version: 1, Kind: "nn", TMM: []byte{1}, LM: []byte{1}}
	if err := gob.NewEncoder(&blob).Encode(frame); err != nil {
		t.Fatal(err)
	}
	man, err := s.Put(Manifest{Kind: "nn", Grid: g.Name(), GridFingerprint: g.Fingerprint(), Seed: 7}, blob.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(man.ID); err != nil {
		t.Fatalf("Get of an nn artifact: %v", err)
	}
	if _, err := LoadLinear(s, man); err == nil || !strings.Contains(err.Error(), `kind "nn"`) {
		t.Fatalf("LoadLinear of an nn-framed blob: err = %v, want one naming the kind", err)
	}
}

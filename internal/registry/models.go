package registry

import (
	"github.com/routeplanning/mamorl/internal/approx"
	"github.com/routeplanning/mamorl/internal/grid"
)

// Typed adapters between the blob store and the linear approx model.

// Meta carries the identity of a training run when registering a model.
type Meta struct {
	// Grid is the training grid; its name and fingerprint key the artifact.
	Grid *grid.Grid
	// Seed is the training seed.
	Seed int64
	// Params records the pipeline shape.
	Params TrainParams
}

// PutLinear registers a linear model pair trained under meta.
func PutLinear(s *Store, model *approx.LinearModel, meta Meta) (Manifest, error) {
	blob, err := model.EncodeBlob()
	if err != nil {
		return Manifest{}, err
	}
	return s.Put(Manifest{
		Kind:            KindLinreg,
		Grid:            meta.Grid.Name(),
		GridFingerprint: meta.Grid.Fingerprint(),
		Seed:            meta.Seed,
		Params:          meta.Params,
	}, blob)
}

// LoadLinear restores a linear model pair from an artifact, verifying the
// blob's content hash on the way.
func LoadLinear(s *Store, m Manifest) (*approx.LinearModel, error) {
	blob, err := s.Blob(m)
	if err != nil {
		return nil, err
	}
	return approx.DecodeLinearBlob(blob)
}

// TrainMeta builds a Meta from a completed pipeline: the training grid,
// seed, and the effective (defaulted) pipeline shape.
func TrainMeta(g *grid.Grid, cfg approx.TrainConfig) Meta {
	eff := cfg.Effective()
	return Meta{
		Grid: g,
		Seed: eff.Seed,
		Params: TrainParams{
			GridNodes:      g.NumNodes(),
			GridEdges:      g.NumEdges(),
			Assets:         eff.Assets,
			MaxSpeed:       eff.MaxSpeed,
			CommEvery:      eff.CommEvery,
			SampleEpisodes: eff.SampleEpisodes,
		},
	}
}

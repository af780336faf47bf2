// Worker-count determinism at the artifact level: linreg's data-parallel
// gram accumulation promises byte-identical weights at any worker count,
// which must propagate all the way to the content-addressed registry — an
// artifact trained with 8 workers resolves to the same ID as one trained
// serially, so warm-starts hit regardless of the machine that trained the
// model.
package mamorl_test

import (
	"testing"

	"github.com/routeplanning/mamorl/internal/approx"
	"github.com/routeplanning/mamorl/internal/registry"
)

// TestLinearArtifactIDWorkerInvariant: linear fits at workers 1 and 8
// register under the same content-addressed artifact ID.
func TestLinearArtifactIDWorkerInvariant(t *testing.T) {
	h := harnessT(t)
	meta := registry.TrainMeta(h.Pipe.Scenario.Grid, approx.TrainConfig{Seed: 1})

	serial, _, err := approx.FitLinear(h.Pipe.Data, 1)
	if err != nil {
		t.Fatalf("workers=1: %v", err)
	}
	parallel, _, err := approx.FitLinear(h.Pipe.Data, 8)
	if err != nil {
		t.Fatalf("workers=8: %v", err)
	}

	s1, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s2, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m1, err := registry.PutLinear(s1, serial, meta)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := registry.PutLinear(s2, parallel, meta)
	if err != nil {
		t.Fatal(err)
	}
	if m1.ID != m2.ID {
		t.Fatalf("linear artifact IDs differ across worker counts: %s vs %s", m1.ID, m2.ID)
	}
}

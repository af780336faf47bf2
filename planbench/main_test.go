package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestMetricsMatchBenchmarkJSON keeps the names and units the benchmark
// prints in step with the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside planbench/:", err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}

	r := newReport("plan-hot", 1, 1, true, t.TempDir())
	defer r.clock.close()
	w := window{norm: 1, raw: 1, latMS: []float64{1}, rawMS: []float64{1}, factor: []float64{1}, rssMiB: []float64{1}}
	r.setup(w)
	r.plans(w, quality{attempted: 1, ok: 1, found: 1}, 1)
	if len(r.EndToEnd) != len(spec.EndToEnd) {
		t.Errorf("benchmark prints %d end-to-end metrics, BENCHMARK.json declares %d", len(r.EndToEnd), len(spec.EndToEnd))
	}
	for _, d := range spec.EndToEnd {
		if m, ok := r.EndToEnd[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("end-to-end %s [%s]: printed as %+v (present %v)", d.Name, d.Unit, m, ok)
		}
	}
	if len(perLayer) != len(spec.PerLayer) {
		t.Fatalf("benchmark lists %d per-layer metrics, BENCHMARK.json declares %d", len(perLayer), len(spec.PerLayer))
	}
	for i, d := range spec.PerLayer {
		if perLayer[i].name != d.Name || perLayer[i].unit != d.Unit {
			t.Errorf("per-layer %d: benchmark has %s [%s], BENCHMARK.json %s [%s]", i, perLayer[i].name, perLayer[i].unit, d.Name, d.Unit)
		}
	}
}

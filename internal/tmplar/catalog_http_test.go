package tmplar

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/routeplanning/mamorl/internal/approx"
	"github.com/routeplanning/mamorl/internal/catalog"
	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/jobs"
	"github.com/routeplanning/mamorl/internal/registry"
)

// catalogGrid builds a small deterministic grid for multi-tenant tests.
func catalogGrid(t *testing.T, name string, seed int64) *grid.Grid {
	t.Helper()
	g, err := grid.GenerateSynthetic(grid.SyntheticConfig{
		Name: name, Nodes: 120, Edges: 260, MaxOutDegree: 8, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestMultiTenantServing drives the acceptance scenario: one process serving
// two grids under two models each (the default plus a registry artifact),
// with per-request (grid, model_id) selection, all four tenants in flight
// concurrently. The catalog must hold one entry per pair and attribute the
// right artifact to each.
func TestMultiTenantServing(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the default model")
	}
	dir := t.TempDir()
	s, err := NewServerOpts(29, Options{ModelDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Register a second artifact: the default weights re-registered under a
	// distinct training seed, so "seed:999" names a separate model.
	_, defaultArtifact := s.ModelSource()
	if defaultArtifact == "" {
		t.Fatal("default model not registered despite ModelDir")
	}
	store, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	man, err := store.Get(defaultArtifact)
	if err != nil {
		t.Fatal(err)
	}
	model, err := registry.LoadLinear(store, man)
	if err != nil {
		t.Fatal(err)
	}
	second, err := registry.PutLinear(store, model, registry.Meta{
		Grid: catalogGrid(t, "alt-train", 31), Seed: 999,
	})
	if err != nil {
		t.Fatal(err)
	}

	s.InstallGrid(catalogGrid(t, "north-sector", 41))
	s.InstallGrid(catalogGrid(t, "south-sector", 43))
	h := s.Handler()

	tenants := []struct{ grid, model string }{
		{"north-sector", ""},
		{"north-sector", "seed:999"},
		{"south-sector", ""},
		{"south-sector", second.ID}, // exact content-addressed selection
	}
	var wg sync.WaitGroup
	errs := make([]string, len(tenants))
	for i, tn := range tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := PlanRequest{
				Grid:    tn.grid,
				ModelID: tn.model,
				Assets: []AssetSpec{
					{Source: 0, SensingRadius: 10, MaxSpeed: 3},
					{Source: 60, SensingRadius: 10, MaxSpeed: 3},
				},
				Destination: 110,
				Seed:        5,
			}
			rec := do(t, h, "POST", "/api/plan", req)
			if rec.Code != http.StatusOK {
				errs[i] = fmt.Sprintf("tenant %s/%q: %d %s", tn.grid, tn.model, rec.Code, rec.Body.String())
				return
			}
			var resp PlanResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				errs[i] = fmt.Sprintf("tenant %s/%q: decode: %v", tn.grid, tn.model, err)
			}
		}()
	}
	wg.Wait()
	for _, e := range errs {
		if e != "" {
			t.Fatal(e)
		}
	}

	snap := s.Catalog().Snapshot()
	if len(snap.Entries) != len(tenants) {
		t.Fatalf("catalog holds %d entries, want %d: %+v", len(snap.Entries), len(tenants), snap.Entries)
	}
	byKey := make(map[string]string, len(snap.Entries))
	for _, e := range snap.Entries {
		byKey[e.Grid+"|"+e.Model] = e.Artifact
	}
	if got := byKey["north-sector|seed:999"]; got != second.ID {
		t.Errorf("north-sector/seed:999 artifact = %q, want %q", got, second.ID)
	}
	if got := byKey["south-sector|"+second.ID]; got != second.ID {
		t.Errorf("south-sector/%s artifact = %q, want the same ID", second.ID, got)
	}
	if got := byKey["north-sector|"]; got != defaultArtifact {
		t.Errorf("default tenant artifact = %q, want %q", got, defaultArtifact)
	}
}

// TestPlanUnknownModel404 pins the structured 404 for an unresolvable model
// selector on both the synchronous and async planes.
func TestPlanUnknownModel404(t *testing.T) {
	s := jobServer(t, 1, 8)
	h := s.Handler()

	req := opsPlanRequest()
	req.ModelID = "no-such-model"
	for _, path := range []string{"/api/plan", "/api/jobs/plan"} {
		rec := do(t, h, "POST", path, req)
		if rec.Code != http.StatusNotFound {
			t.Fatalf("%s: code = %d, want 404 (%s)", path, rec.Code, rec.Body.String())
		}
		var body notFoundResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s: 404 body not JSON: %v (%s)", path, err, rec.Body.String())
		}
		if body.Resource != "model" || body.Name != "no-such-model" {
			t.Errorf("%s: 404 body = %+v, want resource=model name=no-such-model", path, body)
		}
		if !strings.Contains(body.Error, "no-such-model") {
			t.Errorf("%s: error %q does not name the selector", path, body.Error)
		}
	}
}

// TestPlanForeignKindModel404: a registry artifact whose blob frames
// another model family's pair (the "nn" frame NN-Approx-MaMoRL artifacts
// were stored in) does not load as the served linear model, so a model_id
// naming it answers the same 404 as an unknown selector.
func TestPlanForeignKindModel404(t *testing.T) {
	dir := t.TempDir()
	store, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var blob bytes.Buffer
	frame := struct {
		Version int
		Kind    string
		TMM, LM []byte
	}{Version: 1, Kind: "nn", TMM: []byte{1}, LM: []byte{1}}
	if err := gob.NewEncoder(&blob).Encode(frame); err != nil {
		t.Fatal(err)
	}
	tg := catalogGrid(t, "nn-train", 5)
	man, err := store.Put(registry.Manifest{Kind: "nn", Grid: tg.Name(), GridFingerprint: tg.Fingerprint(), Seed: 3}, blob.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	s := derivedServer(t, Options{})
	mc, err := newModelCache(1, Options{ModelDir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := s.lookupGrid("ops-area")
	s.cat = catalog.New(catalog.Options{LoadModel: mc.resolve, Metrics: s.opts.Metrics})
	s.InstallGrid(g)

	req := opsPlanRequest()
	req.ModelID = man.ID
	rec := do(t, s.Handler(), "POST", "/api/plan", req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("code = %d, want 404 (%s)", rec.Code, rec.Body.String())
	}
	var body notFoundResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("404 body not JSON: %v (%s)", err, rec.Body.String())
	}
	if body.Resource != "model" || body.Name != man.ID {
		t.Errorf("404 body = %+v, want resource=model name=%s", body, man.ID)
	}
}

// TestBatchedPlanByteIdentical fires concurrent approx and approx-pk
// requests with distinct seeds at one tenant and compares every response
// byte-for-byte against the same request served alone: requests sharing a
// catalog entry must not see each other in their output.
func TestBatchedPlanByteIdentical(t *testing.T) {
	s := derivedServer(t, Options{})
	h := s.Handler()
	g, _ := s.lookupGrid("ops-area")
	dp := g.Pos(140)
	r := 3 * g.AvgEdgeWeight()
	var reqs []PlanRequest
	for seed := int64(1); seed <= 4; seed++ {
		req := opsPlanRequest()
		req.Seed = seed
		reqs = append(reqs, req)
		req.Algorithm = "approx-pk"
		req.Region = &RegionSpec{MinX: dp.X - r, MinY: dp.Y - r, MaxX: dp.X + r, MaxY: dp.Y + r}
		reqs = append(reqs, req)
	}

	want := make([]string, len(reqs))
	for i, req := range reqs {
		rec := do(t, h, "POST", "/api/plan", req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s seed %d alone: %d %s", algoLabel(req.Algorithm), req.Seed, rec.Code, rec.Body.String())
		}
		want[i] = rec.Body.String()
	}

	got := make([]string, len(reqs))
	codes := make([]int, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req PlanRequest) {
			defer wg.Done()
			rec := do(t, h, "POST", "/api/plan", req)
			codes[i], got[i] = rec.Code, rec.Body.String()
		}(i, req)
	}
	wg.Wait()
	for i, req := range reqs {
		if codes[i] != http.StatusOK {
			t.Fatalf("%s seed %d concurrent: %d %s", algoLabel(req.Algorithm), req.Seed, codes[i], got[i])
		}
		if got[i] != want[i] {
			t.Fatalf("%s seed %d differs when served concurrently:\n%s\nvs alone\n%s", algoLabel(req.Algorithm), req.Seed, got[i], want[i])
		}
	}
}

// panicModel wraps a served model and panics in PredictLM while armed.
type panicModel struct {
	approx.Model
	armed *atomic.Bool
}

func (m panicModel) PredictLM(x []float64) float64 {
	if m.armed.Load() {
		panic("planner bug")
	}
	return m.Model.PredictLM(x)
}

// TestPlannerPanicIsRecovered: a panic inside a planner unwinds into the
// request's own goroutine, so POST /api/plan answers instrument's JSON 500
// and POST /api/jobs/plan ends failed, and the process keeps serving.
func TestPlannerPanicIsRecovered(t *testing.T) {
	s := jobServer(t, 1, 4)
	var armed atomic.Bool
	armed.Store(true)
	g, _ := s.lookupGrid("ops-area")
	s.cat = catalog.New(catalog.Options{
		LoadModel: func(ctx context.Context, sel string) (*catalog.ModelArtifact, error) {
			art, err := s.models.resolve(ctx, sel)
			if err != nil {
				return nil, err
			}
			wrapped := *art
			wrapped.Model = panicModel{Model: art.Model, armed: &armed}
			return &wrapped, nil
		},
		Metrics: s.opts.Metrics,
	})
	s.InstallGrid(g)
	h := s.Handler()

	rec := do(t, h, "POST", "/api/plan", opsPlanRequest())
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("plan with a panicking planner: %d %s, want 500", rec.Code, rec.Body.String())
	}
	var body errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || !strings.Contains(body.Error, "planner bug") {
		t.Fatalf("500 body = %s (%v), want a JSON error naming the panic", rec.Body.String(), err)
	}

	rec = do(t, h, "POST", "/api/jobs/plan", opsPlanRequest())
	if rec.Code != http.StatusAccepted {
		t.Fatalf("job submit: %d %s", rec.Code, rec.Body.String())
	}
	var v jobs.View
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	if final := pollJob(t, h, v.ID); final.State != jobs.StateFailed || !strings.Contains(final.Error, "planner bug") {
		t.Fatalf("job with a panicking planner settled %s (%q), want failed naming the panic", final.State, final.Error)
	}

	armed.Store(false)
	rec = do(t, h, "POST", "/api/plan", opsPlanRequest())
	if rec.Code != http.StatusOK {
		t.Fatalf("plan after the panics: %d %s", rec.Code, rec.Body.String())
	}
	want := do(t, derivedServer(t, Options{}).Handler(), "POST", "/api/plan", opsPlanRequest())
	if rec.Body.String() != want.Body.String() {
		t.Fatalf("plan after the panics differs from a clean server's:\n%s\nvs\n%s", rec.Body.String(), want.Body.String())
	}
	if snap := s.cat.Snapshot(); len(snap.Entries) != 1 || snap.Entries[0].Refs != 0 {
		t.Fatalf("catalog entries after the panics = %+v, want one with no refs", snap.Entries)
	}
}

// TestReadyzReportsCatalog checks the readiness payload carries the catalog
// health section.
func TestReadyzReportsCatalog(t *testing.T) {
	s := derivedServer(t, Options{})
	if rec := do(t, s.Handler(), "POST", "/api/plan", opsPlanRequest()); rec.Code != http.StatusOK {
		t.Fatalf("plan: %d %s", rec.Code, rec.Body.String())
	}
	rec := do(t, s.Handler(), "GET", "/readyz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz: %d %s", rec.Code, rec.Body.String())
	}
	var body struct {
		Catalog struct {
			Entries int `json:"entries"`
			Loading int `json:"loading"`
		} `json:"catalog"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Catalog.Entries < 1 {
		t.Errorf("readyz catalog = %+v, want a populated section", body.Catalog)
	}
}

// TestCatalogDebugShapeGolden pins the JSON shape of GET /debug/catalog
// with a resident entry, so dashboards reading it get schema-change signal.
func TestCatalogDebugShapeGolden(t *testing.T) {
	s := derivedServer(t, Options{})
	h := s.Handler()
	if rec := do(t, h, "POST", "/api/plan", opsPlanRequest()); rec.Code != http.StatusOK {
		t.Fatalf("plan: %d %s", rec.Code, rec.Body.String())
	}
	rec := do(t, h, "GET", "/debug/catalog", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("debug/catalog: %d", rec.Code)
	}
	checkShape(t, "catalog", rec.Body.Bytes())
}

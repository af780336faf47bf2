package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/slo"
	"github.com/routeplanning/mamorl/internal/tmplar"
)

// newTestServer boots a real in-process tmplard (trained model, job queue,
// SLO engine, sampler loop) behind httptest and hands back its base URL.
func newTestServer(t *testing.T, opts tmplar.Options) string {
	t.Helper()
	if opts.SampleInterval == 0 {
		opts.SampleInterval = 50 * time.Millisecond
	}
	s, err := tmplar.NewServerOpts(17, opts)
	if err != nil {
		t.Fatalf("NewServerOpts: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	g, err := grid.GenerateSynthetic(grid.SyntheticConfig{
		Name: "ops-area", Nodes: 150, Edges: 330, MaxOutDegree: 8, Seed: 4,
	})
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	s.InstallGrid(g)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go s.Sampler().Run(ctx)
	go s.Profiler().Run(ctx) // nil-safe no-op unless opts enable profiling
	return ts.URL
}

// TestSmoke is the CI smoke stage: a short open-loop run against a healthy
// in-process tmplard must complete real missions over both planes and pass
// every default SLO. The continuous profiler runs throughout, so the pass
// also bounds profiling overhead: captures every 500ms during the load must
// not push any SLO past its objective.
func TestSmoke(t *testing.T) {
	url := newTestServer(t, tmplar.Options{
		ProfileInterval: 500 * time.Millisecond,
		ProfileWindow:   100 * time.Millisecond,
	})
	rep, err := Run(context.Background(), Config{
		Target:       url,
		Duration:     2 * time.Second,
		RPS:          20,
		Concurrency:  16,
		Grid:         "ops-area",
		AssetCounts:  []int{1, 2},
		Destination:  140,
		JobsRatio:    0.25,
		Seed:         1,
		PollInterval: 5 * time.Millisecond,
		Settle:       200 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.Pass {
		t.Fatalf("healthy run failed: %v\n%+v", rep.Reasons, rep)
	}
	if rep.Completed == 0 || rep.OK == 0 {
		t.Fatalf("no traffic completed: %+v", rep)
	}
	if rep.AchievedRPS <= 0 {
		t.Errorf("achieved RPS = %v", rep.AchievedRPS)
	}
	if rep.LatencyP50 <= 0 || rep.LatencyP99 < rep.LatencyP50 {
		t.Errorf("suspicious percentiles: p50 %v p99 %v", rep.LatencyP50, rep.LatencyP99)
	}
	if rep.Status["200"] == 0 {
		t.Errorf("no synchronous 200s: %v", rep.Status)
	}
	if rep.Status["job:done"] == 0 {
		t.Errorf("no async jobs settled: %v", rep.Status)
	}
	if len(rep.SLOs) != 3 || len(rep.Verdicts) != 3 {
		t.Fatalf("expected 3 default SLOs judged, got %d/%d", len(rep.SLOs), len(rep.Verdicts))
	}
	for _, v := range rep.Verdicts {
		if !v.Pass {
			t.Errorf("SLO %q failed on a healthy server: %+v", v.Name, v)
		}
	}
	// The /metrics scrape reconciles: the server saw our plan traffic.
	if rep.ServerRequests["/api/plan"] == 0 {
		t.Errorf("server request scrape missing /api/plan: %v", rep.ServerRequests)
	}
	// The runtime scrape captured the server's post-load health gauges.
	if rt := rep.ServerRuntime; rt == nil {
		t.Error("report lacks server_runtime")
	} else if rt.HeapBytes <= 0 || rt.Goroutines <= 0 {
		t.Errorf("implausible server runtime: %+v", rt)
	}
	// The report round-trips as JSON for machine consumers.
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil || back.Sent != rep.Sent {
		t.Fatalf("report does not round-trip: %v", err)
	}
}

// TestMultiTenantSmoke exercises the multi-tenant mixer against a real
// server registering a model artifact: two grids crossed with the default
// model and the artifact ID give four tenants, each of which must complete
// traffic and show up in the per-tenant report, and the catalog scrape must
// show the four-entry working set served mostly from cache.
func TestMultiTenantSmoke(t *testing.T) {
	s, err := tmplar.NewServerOpts(17, tmplar.Options{
		ModelDir:       t.TempDir(),
		SampleInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewServerOpts: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	_, artifact := s.ModelSource()
	if artifact == "" {
		t.Fatal("server with a ModelDir registered no artifact")
	}
	for i, name := range []string{"alpha", "bravo"} {
		g, err := grid.GenerateSynthetic(grid.SyntheticConfig{
			Name: name, Nodes: 120, Edges: 260, MaxOutDegree: 8, Seed: int64(40 + i),
		})
		if err != nil {
			t.Fatalf("grid %s: %v", name, err)
		}
		s.InstallGrid(g)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go s.Sampler().Run(ctx)

	rep, err := Run(context.Background(), Config{
		Target:       ts.URL,
		Duration:     2 * time.Second,
		RPS:          20,
		Concurrency:  16,
		Grids:        []string{"alpha", "bravo"},
		Models:       []string{"", artifact},
		AssetCounts:  []int{1, 2},
		JobsRatio:    0.25,
		Seed:         1,
		PollInterval: 5 * time.Millisecond,
		Settle:       200 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rep.Pass {
		t.Fatalf("healthy multi-tenant run failed: %v\n%+v", rep.Reasons, rep)
	}
	if len(rep.Tenants) != 4 {
		t.Fatalf("tenant reports = %d, want 4 (2 grids x 2 models): %+v", len(rep.Tenants), rep.Tenants)
	}
	for _, tn := range rep.Tenants {
		if tn.Completed == 0 || tn.OK == 0 {
			t.Errorf("tenant %s/%s starved: %+v", tn.Grid, tn.Model, tn)
		}
		if tn.LatencyP50 <= 0 || tn.LatencyP99 < tn.LatencyP50 {
			t.Errorf("tenant %s/%s suspicious percentiles: %+v", tn.Grid, tn.Model, tn)
		}
	}
	c := rep.Catalog
	if c == nil {
		t.Fatal("report lacks catalog stats")
	}
	// The catalog keeps every loaded entry, so after the four cold loads
	// every request is a cache hit.
	if c.Loads != 4 {
		t.Errorf("catalog loads = %d, want 4 (one per tenant)", c.Loads)
	}
	if c.Hits == 0 || c.HitRate <= 0.5 {
		t.Errorf("catalog hit rate = %v (%d hits / %d misses), want mostly hits", c.HitRate, c.Hits, c.Misses)
	}
	if c.Evictions != 0 {
		t.Errorf("catalog evicted %d entries with no grid replaced", c.Evictions)
	}
}

// TestFailsOnInducedBreach is the acceptance scenario: a deadline pinned
// below any achievable planning latency turns every plan into a 503, the
// availability SLO breaches, and the run reports failure (the binary's
// non-zero exit) with the exemplar trace in the detail.
func TestFailsOnInducedBreach(t *testing.T) {
	url := newTestServer(t, tmplar.Options{PlanTimeout: time.Nanosecond})
	rep, err := Run(context.Background(), Config{
		Target:      url,
		Duration:    time.Second,
		RPS:         30,
		Concurrency: 16,
		Grid:        "ops-area",
		Destination: 140,
		JobsRatio:   0,
		Settle:      300 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Pass {
		t.Fatalf("run passed despite universal 503s: %+v", rep)
	}
	if rep.Errors == 0 || rep.Status["503"] == 0 {
		t.Fatalf("expected 503s, got %v", rep.Status)
	}
	var avail *Verdict
	for i := range rep.Verdicts {
		if rep.Verdicts[i].Name == "plan-availability" {
			avail = &rep.Verdicts[i]
		}
	}
	if avail == nil {
		t.Fatalf("no plan-availability verdict: %+v", rep.Verdicts)
	}
	if avail.Pass || avail.State != "breach" {
		t.Fatalf("plan-availability verdict = %+v, want failed breach", avail)
	}
	if !strings.Contains(avail.Detail, "exemplar trace ") {
		t.Errorf("breach detail lacks the exemplar trace ID: %q", avail.Detail)
	}
	if len(rep.Reasons) == 0 {
		t.Error("failing report carries no reasons")
	}
}

// TestOpenLoopShedding drives a stub server slower than the offered rate
// and checks the generator sheds instead of queueing. The stub also proves
// loadgen runs against anything speaking the wire format.
func TestOpenLoopShedding(t *testing.T) {
	var inflight, maxInflight int
	var mu sync.Mutex
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/grids", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte(`[{"name":"g","nodes":100}]`))
	})
	mux.HandleFunc("POST /api/plan", func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		inflight++
		if inflight > maxInflight {
			maxInflight = inflight
		}
		mu.Unlock()
		time.Sleep(150 * time.Millisecond)
		mu.Lock()
		inflight--
		mu.Unlock()
		_, _ = w.Write([]byte(`{"found":true}`))
	})
	mux.HandleFunc("GET /debug/slo", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte(`{"t":"2026-01-01T00:00:00Z","slos":[]}`))
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte(`{}`))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	rep, err := Run(context.Background(), Config{
		Target:      ts.URL,
		Duration:    600 * time.Millisecond,
		RPS:         100,
		Concurrency: 2,
		Grid:        "g",
		SLOs:        []slo.Spec{}, // stub reports no SLOs; judge none
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Shed == 0 {
		t.Fatalf("expected shedding at 100 rps over 2 slots of 150ms work: %+v", rep)
	}
	if maxInflight > 2 {
		t.Fatalf("concurrency cap violated: %d in flight", maxInflight)
	}
	if rep.Completed == 0 || !rep.Pass {
		t.Fatalf("completed=%d pass=%v reasons=%v", rep.Completed, rep.Pass, rep.Reasons)
	}
	if rep.Sent != rep.Shed+rep.Completed {
		t.Errorf("accounting leak: sent %d != shed %d + completed %d", rep.Sent, rep.Shed, rep.Completed)
	}
}

// TestMissingSLOFailsClosed: judging against a spec the server does not
// report must fail the run, not silently pass it.
func TestMissingSLOFailsClosed(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/grids", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte(`[{"name":"g","nodes":50}]`))
	})
	mux.HandleFunc("POST /api/plan", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte(`{"found":true}`))
	})
	mux.HandleFunc("GET /debug/slo", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte(`{"t":"2026-01-01T00:00:00Z","slos":[]}`))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	rep, err := Run(context.Background(), Config{
		Target:   ts.URL,
		Duration: 100 * time.Millisecond,
		RPS:      10,
		Grid:     "g",
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Pass {
		t.Fatalf("passed with every default SLO missing: %+v", rep)
	}
	if len(rep.Verdicts) != len(slo.Defaults()) {
		t.Fatalf("verdicts = %d, want one per default spec", len(rep.Verdicts))
	}
	for _, v := range rep.Verdicts {
		if v.Pass || v.State != "missing" {
			t.Errorf("verdict %+v, want failed missing", v)
		}
	}
}

func TestMixerDeterministicRatio(t *testing.T) {
	count := func(ratio float64, n int) int {
		m := mixer{ratio: ratio}
		c := 0
		for i := 0; i < n; i++ {
			if m.next() {
				c++
			}
		}
		return c
	}
	if got := count(0.25, 8); got != 2 {
		t.Errorf("ratio 0.25 over 8 = %d jobs, want 2", got)
	}
	if got := count(0, 100); got != 0 {
		t.Errorf("ratio 0 = %d jobs, want 0", got)
	}
	if got := count(1, 7); got != 7 {
		t.Errorf("ratio 1 = %d jobs, want 7", got)
	}
	// Two mixers with the same ratio agree step for step.
	a, b := mixer{ratio: 0.3}, mixer{ratio: 0.3}
	for i := 0; i < 50; i++ {
		if a.next() != b.next() {
			t.Fatalf("mix diverged at step %d", i)
		}
	}
}

func TestPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(s, 0.50); got != 5 {
		t.Errorf("p50 = %v", got)
	}
	if got := percentile(s, 0.90); got != 9 {
		t.Errorf("p90 = %v", got)
	}
	if got := percentile(s, 0.99); got != 10 {
		t.Errorf("p99 = %v", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty = %v", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single = %v", got)
	}
}

func TestConfigValidation(t *testing.T) {
	base := func() Config { return Config{Target: "http://x", Grid: "g"} }
	ok := base()
	if err := ok.normalize(); err != nil {
		t.Fatalf("minimal config rejected: %v", err)
	}
	if ok.RPS != 50 || ok.Concurrency != 64 || ok.FailOn != "breach" || len(ok.SLOs) == 0 {
		t.Errorf("defaults not applied: %+v", ok)
	}
	for name, mutate := range map[string]func(*Config){
		"no target":   func(c *Config) { c.Target = "" },
		"no grid":     func(c *Config) { c.Grid = "" },
		"bad ratio":   func(c *Config) { c.JobsRatio = 1.5 },
		"bad fail-on": func(c *Config) { c.FailOn = "panic" },
		"zero assets": func(c *Config) { c.AssetCounts = []int{0} },
	} {
		c := base()
		mutate(&c)
		if err := c.normalize(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestRequestShape(t *testing.T) {
	cfg := Config{Target: "http://x", Grid: "g", AssetCounts: []int{1, 3}, Seed: 10, DeadlineMS: 250}
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	tn := tenant{grid: "g", nodes: 150, dest: 140}
	r0 := cfg.request(0, tn)
	r1 := cfg.request(1, tn)
	if len(r0.Assets) != 1 || len(r1.Assets) != 3 {
		t.Fatalf("asset rotation broken: %d, %d", len(r0.Assets), len(r1.Assets))
	}
	if r0.Seed != 10 || r1.Seed != 11 {
		t.Errorf("seeds %d, %d want 10, 11", r0.Seed, r1.Seed)
	}
	if r1.Assets[0].Source == r1.Assets[2].Source {
		t.Errorf("sources not spread: %+v", r1.Assets)
	}
	for _, a := range r1.Assets {
		if a.Source < 0 || a.Source >= 150 {
			t.Errorf("source %d outside grid", a.Source)
		}
	}
	if r0.DeadlineMS != 250 || r0.Destination != 140 {
		t.Errorf("caps not carried: %+v", r0)
	}
}

func TestParseCounts(t *testing.T) {
	if got, err := parseCounts("1, 2,4"); err != nil || len(got) != 3 || got[2] != 4 {
		t.Errorf("parseCounts = %v, %v", got, err)
	}
	for _, bad := range []string{"", "0", "-1", "x"} {
		if _, err := parseCounts(bad); err == nil {
			t.Errorf("parseCounts(%q) accepted", bad)
		}
	}
}

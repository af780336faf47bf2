package tmplar

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/routeplanning/mamorl/internal/trace"
)

// planBody is a small valid plan request against the shared test grid.
func planBody() PlanRequest {
	return PlanRequest{
		Grid:        "ops-area",
		Assets:      []AssetSpec{{Source: 0, SensingRadius: 2, MaxSpeed: 3}},
		Destination: 40,
		Seed:        5,
		MaxSteps:    200,
	}
}

func TestTraceIDHeaderAndDebugTraces(t *testing.T) {
	h := server(t).Handler()

	rec := do(t, h, "POST", "/api/plan", planBody())
	if rec.Code != http.StatusOK {
		t.Fatalf("plan: %d %s", rec.Code, rec.Body.String())
	}
	hdr := rec.Header().Get("X-Trace-Id")
	if hdr == "" {
		t.Fatal("no X-Trace-Id header on the plan response")
	}
	if _, err := trace.ParseTraceID(hdr); err != nil {
		t.Fatalf("X-Trace-Id %q does not parse: %v", hdr, err)
	}

	// The completed request trace is served at /debug/traces: the request
	// span plus its plan and mission children, all under the header's ID.
	tr := do(t, h, "GET", "/debug/traces", nil)
	if tr.Code != http.StatusOK {
		t.Fatalf("debug/traces: %d %s", tr.Code, tr.Body.String())
	}
	var spans []*trace.Span
	if err := json.Unmarshal(tr.Body.Bytes(), &spans); err != nil {
		t.Fatalf("decode traces: %v", err)
	}
	names := map[string]bool{}
	for _, s := range spans {
		if s.TraceID.String() == hdr {
			names[s.Name] = true
			if s.Name == "plan" {
				if a, ok := trace.GetAttr(s.Attrs, "algorithm"); !ok || a.Str() != "approx" {
					t.Fatalf("plan span algorithm attr: %+v", s.Attrs)
				}
			}
		}
	}
	for _, want := range []string{"request", "plan", "mission"} {
		if !names[want] {
			t.Fatalf("trace %s lacks a %q span; got %v", hdr, want, names)
		}
	}

	// ?n= keeps only the newest n spans; a bad n is a 400.
	one := do(t, h, "GET", "/debug/traces?n=1", nil)
	var limited []*trace.Span
	if err := json.Unmarshal(one.Body.Bytes(), &limited); err != nil || len(limited) != 1 {
		t.Fatalf("n=1: %v %s", err, one.Body.String())
	}
	if bad := do(t, h, "GET", "/debug/traces?n=bogus", nil); bad.Code != http.StatusBadRequest {
		t.Fatalf("n=bogus answered %d", bad.Code)
	}
}

func TestRequestLogCarriesTraceID(t *testing.T) {
	s := server(t)
	// Swap in a captive structured logger; restore the shared server after.
	saved := s.opts.Logger
	defer func() { s.opts.Logger = saved }()
	var buf bytes.Buffer
	s.opts.Logger = slog.New(slog.NewTextHandler(&buf, nil))

	rec := do(t, s.Handler(), "GET", "/healthz", nil)
	id := rec.Header().Get("X-Trace-Id")
	if id == "" {
		t.Fatal("no X-Trace-Id header")
	}
	line := buf.String()
	if !strings.Contains(line, "trace="+id) {
		t.Fatalf("log record lacks trace ID %s: %q", id, line)
	}
	if !strings.Contains(line, "path=/healthz") || !strings.Contains(line, "status=200") {
		t.Fatalf("log record incomplete: %q", line)
	}
}

// TestPlanRerunsFromTrace: a plan span records what re-runs the plan. The
// request it records, POSTed again to /api/plan, answers the served body
// byte for byte, for both views; the span also names the model artifact
// and the grid fingerprint the plan ran with.
func TestPlanRerunsFromTrace(t *testing.T) {
	s, err := NewServerOpts(17, Options{ModelDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := catalogGrid(t, "rerun", 4)
	s.InstallGrid(g)
	_, artifact := s.ModelSource()
	if artifact == "" {
		t.Fatal("a server with a model registry serves an unregistered default model")
	}
	h := s.Handler()

	b := g.Bounds()
	global := PlanRequest{
		Grid: "rerun",
		Assets: []AssetSpec{
			{Source: 0, SensingRadius: 1.5, MaxSpeed: 3},
			{Source: 70, SensingRadius: 2.25, MaxSpeed: 2},
		},
		Destination: 110,
		CommEvery:   2,
		Algorithm:   "approx",
		Obstacles:   []int32{40, 41},
		Weather: &WeatherSpec{
			Gyre:   &GyreSpec{CenterX: b.Center().X, CenterY: b.Center().Y, Radius: b.Width() / 2, Strength: 0.3},
			Storms: []StormSpec{{CenterX: b.Center().X, CenterY: b.Center().Y, DriftX: 0.1, Radius: b.Width() / 4, Slowdown: 0.5}},
		},
		Seed:     9,
		MaxSteps: 500,
	}
	local := LocalPlanRequest{Grid: "rerun", Asset: AssetSpec{Source: 3, SensingRadius: 1.5, MaxSpeed: 3}, Destination: 90, Seed: 4, MaxSteps: 300}
	for _, c := range []struct {
		path string
		body any
	}{{"/api/plan", global}, {"/api/plan/asset", local}} {
		served := do(t, h, "POST", c.path, c.body)
		if served.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", c.path, served.Code, served.Body.String())
		}
		plan := planSpanOf(t, h, served)
		want := map[string]string{"artifact": artifact, "grid_fingerprint": g.Fingerprint()}
		for k, v := range want {
			if a, ok := trace.GetAttr(plan.Attrs, k); !ok || a.Str() != v {
				t.Fatalf("%s: plan span %s = %q (%v), want %q", c.path, k, a.Str(), ok, v)
			}
		}
		req, ok := trace.GetAttr(plan.Attrs, "request")
		if !ok {
			t.Fatalf("%s: plan span records no request: %+v", c.path, plan.Attrs)
		}
		rerun := do(t, h, "POST", "/api/plan", req.Str())
		if rerun.Code != http.StatusOK || !bytes.Equal(rerun.Body.Bytes(), served.Body.Bytes()) {
			t.Fatalf("%s: re-running %s answered %d\n%s\nwant\n%s", c.path, req.Str(), rerun.Code, rerun.Body.Bytes(), served.Body.Bytes())
		}
	}
}

// planSpanOf returns the plan span of the trace a response's X-Trace-Id
// names, from /debug/traces.
func planSpanOf(t *testing.T, h http.Handler, served *httptest.ResponseRecorder) *trace.Span {
	t.Helper()
	rec := do(t, h, "GET", "/debug/traces?name="+served.Header().Get("X-Trace-Id"), nil)
	var spans []*trace.Span
	if err := json.Unmarshal(rec.Body.Bytes(), &spans); err != nil {
		t.Fatalf("decode traces: %v (%s)", err, rec.Body.String())
	}
	for _, sp := range spans {
		if sp.Name == "plan" {
			return sp
		}
	}
	t.Fatalf("trace %s has no plan span", served.Header().Get("X-Trace-Id"))
	return nil
}

// TestBudgetExhaustionOnPlanSpan: a plan whose budget runs out stamps the
// resource, its limit and its use on the plan span, which still records
// the request, so the refused plan can be re-run.
func TestBudgetExhaustionOnPlanSpan(t *testing.T) {
	s, err := NewServerOpts(17, Options{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g, _ := server(t).lookupGrid("ops-area")
	s.InstallGrid(g)
	h := s.Handler()
	served := do(t, h, "POST", "/api/plan", opsPlanRequest())
	if served.Code != http.StatusTooManyRequests {
		t.Fatalf("code = %d, want 429 (%s)", served.Code, served.Body.String())
	}
	var body overBudgetResponse
	if err := json.Unmarshal(served.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	got := map[string]any{}
	for _, a := range planSpanOf(t, h, served).Attrs {
		got[a.Key] = a.Any()
	}
	if got["budget_exhausted"] != "nodes" || got["budget_limit"] != float64(body.Limit) || got["budget_used"] != float64(body.Used) {
		t.Fatalf("plan span attrs %v, want budget_exhausted nodes, limit %d, used %d", got, body.Limit, body.Used)
	}
	if req, ok := got["request"].(string); !ok {
		t.Fatalf("plan span records no request: %v", got)
	} else if rerun := do(t, h, "POST", "/api/plan", req); !bytes.Equal(rerun.Body.Bytes(), served.Body.Bytes()) {
		t.Fatalf("re-run answered %s, want %s", rerun.Body.Bytes(), served.Body.Bytes())
	}
}

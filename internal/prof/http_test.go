package prof

import (
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

func newMux(p *Profiler) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("GET /debug/prof", p.ListHandler())
	mux.Handle("GET /debug/prof/{id}", p.GetHandler())
	return mux
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

func TestHTTPDisabled(t *testing.T) {
	var p *Profiler
	mux := newMux(p)

	rec := get(t, mux, "/debug/prof")
	if rec.Code != http.StatusOK {
		t.Fatalf("list status = %d", rec.Code)
	}
	var list ListResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if list.Enabled || len(list.Captures) != 0 {
		t.Fatalf("disabled list = %+v", list)
	}
	if rec := get(t, mux, "/debug/prof/c000001"); rec.Code != http.StatusNotFound {
		t.Fatalf("disabled get status = %d", rec.Code)
	}
}

func TestHTTPEnabled(t *testing.T) {
	p := New(Options{Interval: time.Hour, Window: 20 * time.Millisecond})
	c := p.CaptureNow(context.Background(), ReasonManual)
	mux := newMux(p)

	var list ListResponse
	if err := json.Unmarshal(get(t, mux, "/debug/prof").Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if !list.Enabled || len(list.Captures) != 1 || list.Captures[0].ID != c.ID {
		t.Fatalf("list = %+v", list)
	}
	if len(list.Captures[0].Profiles) == 0 {
		t.Fatalf("list entry has no profile summaries: %+v", list.Captures[0])
	}

	rec := get(t, mux, "/debug/prof/"+c.ID)
	if rec.Code != http.StatusOK {
		t.Fatalf("get status = %d", rec.Code)
	}
	var got Capture
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != c.ID || got.State != "done" || len(got.Tables) == 0 {
		t.Fatalf("capture = %+v", got)
	}
	for _, tab := range got.Tables {
		if tab.Type == "" {
			t.Fatalf("%s table does not say which column it folded: %+v", tab.Kind, tab)
		}
	}

	raw := get(t, mux, "/debug/prof/"+c.ID+"?format=raw&kind=heap")
	if raw.Code != http.StatusOK {
		t.Fatalf("raw status = %d", raw.Code)
	}
	b := raw.Body.Bytes()
	if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Fatalf("raw download is not gzipped pprof (first bytes % x)", b[:min(4, len(b))])
	}

	if rec := get(t, mux, "/debug/prof/nope"); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown id status = %d", rec.Code)
	}
	if rec := get(t, mux, "/debug/prof/"+c.ID+"?format=raw&kind=nope"); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown raw kind status = %d", rec.Code)
	}
}

// TestProfShapeGolden pins the JSON shape of /debug/prof and
// /debug/prof/{id} so dashboard and benchjson consumers can't be silently
// broken. Values are reduced to a type skeleton; run with -update to accept
// intentional shape changes.
func TestProfShapeGolden(t *testing.T) {
	p := New(Options{Interval: time.Hour, Window: 10 * time.Millisecond})
	c := p.CaptureNow(context.Background(), ReasonManual)
	mux := newMux(p)

	checkShape(t, "prof_list", get(t, mux, "/debug/prof").Body.Bytes())
	checkShape(t, "prof_capture", get(t, mux, "/debug/prof/"+c.ID).Body.Bytes())
}

// checkShape reduces a JSON payload to its type skeleton and compares it to
// testdata/<name>.shape.json.
func checkShape(t *testing.T, name string, body []byte) {
	t.Helper()
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	shape, err := json.MarshalIndent(shapeOf(v), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	shape = append(shape, '\n')
	path := filepath.Join("testdata", name+".shape.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, shape, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if string(want) != string(shape) {
		t.Errorf("%s JSON shape changed.\n got: %s\nwant: %s\nRun `go test ./internal/prof -run ShapeGolden -update` if intentional.", name, shape, want)
	}
}

// shapeOf reduces decoded JSON to a type skeleton: objects keep their keys,
// arrays collapse to one merged element shape, scalars become their type
// name. Dynamic values (ids, timestamps, sample counts) therefore don't
// churn the golden.
func shapeOf(v any) any {
	switch x := v.(type) {
	case map[string]any:
		out := make(map[string]any, len(x))
		for k, vv := range x {
			out[k] = shapeOf(vv)
		}
		return out
	case []any:
		var merged any = "empty"
		for _, e := range x {
			merged = mergeShape(merged, shapeOf(e))
		}
		return []any{merged}
	case string:
		return "string"
	case float64:
		return "number"
	case bool:
		return "bool"
	case nil:
		return "null"
	default:
		return "unknown"
	}
}

// mergeShape unions two element shapes; null/empty defer to the other side,
// and irreconcilable scalars collapse to "mixed".
func mergeShape(a, b any) any {
	if a == "empty" || a == "null" {
		return b
	}
	if b == "empty" || b == "null" {
		return a
	}
	if am, ok := a.(map[string]any); ok {
		if bm, ok := b.(map[string]any); ok {
			for k, bv := range bm {
				if av, exists := am[k]; exists {
					am[k] = mergeShape(av, bv)
				} else {
					am[k] = bv
				}
			}
			return am
		}
	}
	if aa, ok := a.([]any); ok {
		if bb, ok := b.([]any); ok && len(aa) == 1 && len(bb) == 1 {
			return []any{mergeShape(aa[0], bb[0])}
		}
	}
	if sa, ok := a.(string); ok {
		if sb, ok := b.(string); ok {
			switch {
			case sa == sb:
				return sa
			case sa == "null" || sa == "empty":
				return sb
			case sb == "null" || sb == "empty":
				return sa
			}
		}
	}
	return "mixed"
}

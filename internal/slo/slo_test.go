package slo

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestDefaultsCompile(t *testing.T) {
	specs := Defaults()
	if len(specs) != 3 {
		t.Fatalf("Defaults() returned %d specs, want 3", len(specs))
	}
	names := map[string]bool{}
	for _, s := range specs {
		names[s.Name] = true
		if s.Window <= 0 || s.ShortWindow <= 0 || s.LongWindow <= 0 {
			t.Errorf("spec %q has unfilled windows: %+v", s.Name, s)
		}
		if s.WarnBurn <= 0 || s.BreachBurn < s.WarnBurn {
			t.Errorf("spec %q has bad burn thresholds: %+v", s.Name, s)
		}
	}
	for _, want := range []string{"plan-latency", "plan-availability", "http-latency"} {
		if !names[want] {
			t.Errorf("Defaults() lacks %q", want)
		}
	}
}

func TestParseConfig(t *testing.T) {
	specs, err := Parse([]byte(`{
		"slos": [
			{
				"name": "api-latency",
				"metric": {"metric": "tmplar_plan_seconds"},
				"threshold_seconds": 0.25,
				"target": 0.99,
				"short_window": "2m",
				"long_window": "30m",
				"window": "30m"
			},
			{
				"name": "api-availability",
				"kind": "error_rate",
				"total": {"metric": "reqs", "labels": {"endpoint": "/api/plan"}},
				"bad": {"metric": "reqs", "label_prefixes": {"status": "5"}},
				"target": 0.999
			}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("got %d specs", len(specs))
	}
	lat := specs[0]
	if lat.Kind != KindLatency {
		t.Errorf("kind not inferred as latency: %q", lat.Kind)
	}
	if time.Duration(lat.ShortWindow) != 2*time.Minute || time.Duration(lat.LongWindow) != 30*time.Minute {
		t.Errorf("duration strings not parsed: %+v", lat)
	}
	if lat.WarnBurn != DefaultWarnBurn || lat.BreachBurn != DefaultBreachBurn {
		t.Errorf("burn defaults not filled: %+v", lat)
	}
	if lat.Exemplar.Metric != "tmplar_plan_seconds" {
		t.Errorf("latency exemplar selector should default to the metric, got %+v", lat.Exemplar)
	}
	av := specs[1]
	if av.Kind != KindErrorRate || av.Window != DefaultWindow {
		t.Errorf("error-rate spec not normalized: %+v", av)
	}
	if !av.Bad.Matches(map[string]string{"status": "503"}) {
		t.Error("status prefix 5 should match 503")
	}
	if av.Bad.Matches(map[string]string{"status": "200"}) {
		t.Error("status prefix 5 must not match 200")
	}
	if av.Bad.Matches(map[string]string{"other": "x"}) {
		t.Error("prefix constraint on an absent label must fail the match")
	}
}

func TestParseRejectsBadConfigs(t *testing.T) {
	cases := map[string]string{
		"no name":         `{"slos":[{"metric":{"metric":"m"},"threshold_seconds":1,"target":0.9}]}`,
		"bad target":      `{"slos":[{"name":"x","metric":{"metric":"m"},"threshold_seconds":1,"target":1.5}]}`,
		"no threshold":    `{"slos":[{"name":"x","metric":{"metric":"m"},"target":0.9}]}`,
		"no counters":     `{"slos":[{"name":"x","kind":"error_rate","target":0.9}]}`,
		"unknown kind":    `{"slos":[{"name":"x","kind":"weird","target":0.9}]}`,
		"warn over crit":  `{"slos":[{"name":"x","metric":{"metric":"m"},"threshold_seconds":1,"target":0.9,"warn_burn":20,"breach_burn":10}]}`,
		"window inverted": `{"slos":[{"name":"x","metric":{"metric":"m"},"threshold_seconds":1,"target":0.9,"short_window":"1h","long_window":"5m"}]}`,
		"duplicate names": `{"slos":[{"name":"x","metric":{"metric":"m"},"threshold_seconds":1,"target":0.9},{"name":"x","metric":{"metric":"m"},"threshold_seconds":1,"target":0.9}]}`,
		"bad duration":    `{"slos":[{"name":"x","metric":{"metric":"m"},"threshold_seconds":1,"target":0.9,"window":"soon"}]}`,
		"ns past int64":   `{"slos":[{"name":"x","metric":{"metric":"m"},"threshold_seconds":1,"target":0.9,"window":1e19}]}`,
		"huge threshold":  `{"slos":[{"name":"x","metric":{"metric":"m"},"threshold_seconds":1e300,"target":0.9}]}`,
		"not json":        `{`,
	}
	for name, doc := range cases {
		if _, err := Parse([]byte(doc)); err == nil {
			t.Errorf("%s: Parse accepted %s", name, doc)
		}
	}
}

func TestLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "slo.json")
	doc := `{"slos":[{"name":"f","metric":{"metric":"m"},"threshold_seconds":0.5,"target":0.95}]}`
	if err := os.WriteFile(path, []byte(doc), 0o600); err != nil {
		t.Fatal(err)
	}
	specs, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 || specs[0].Name != "f" {
		t.Fatalf("LoadFile = %+v", specs)
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("LoadFile on a missing path succeeded")
	}
}

func TestDurationJSONRoundTrip(t *testing.T) {
	b, err := json.Marshal(Duration(90 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"1m30s"` {
		t.Fatalf("marshal = %s", b)
	}
	var d Duration
	if err := json.Unmarshal([]byte(`300000000000`), &d); err != nil || time.Duration(d) != 5*time.Minute {
		t.Fatalf("nanosecond number unmarshal = %v, %v", d, err)
	}
	if err := json.Unmarshal([]byte(`true`), &d); err == nil {
		t.Error("bool accepted as a duration")
	}
}

func TestObjectiveRendering(t *testing.T) {
	specs := Defaults()
	var lat, avail string
	for _, s := range specs {
		switch s.Name {
		case "plan-latency":
			lat = s.Objective()
		case "plan-availability":
			avail = s.Objective()
		}
	}
	if !strings.Contains(lat, "tmplar_plan_seconds") || !strings.Contains(lat, "250ms") {
		t.Errorf("latency objective = %q", lat)
	}
	if !strings.Contains(avail, "error-rate") || !strings.Contains(avail, "0.1%") {
		t.Errorf("availability objective = %q", avail)
	}
}

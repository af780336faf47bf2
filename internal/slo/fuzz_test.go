package slo

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzParse feeds arbitrary documents to Parse. Parse must not panic; a
// config it accepts must survive json.Marshal and a second Parse as equal
// specs (the compiled form is a fixed point), and every accepted spec must
// render its Objective without panicking. The corpus starts from Defaults
// and the configs of the parse tests.
func FuzzParse(f *testing.F) {
	defaults, err := json.Marshal(Config{SLOs: Defaults()})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(defaults)
	for _, doc := range []string{
		`{"slos":[{"name":"api-latency","metric":{"metric":"tmplar_plan_seconds"},"threshold_seconds":0.25,"target":0.99,"short_window":"2m","long_window":"30m","window":"30m"},` +
			`{"name":"api-availability","kind":"error_rate","total":{"metric":"reqs","labels":{"endpoint":"/api/plan"}},"bad":{"metric":"reqs","label_prefixes":{"status":"5"}},"target":0.999}]}`,
		`{"slos":[{"name":"f","metric":{"metric":"m"},"threshold_seconds":0.5,"target":0.95}]}`,
		`{"slos":[{"name":"n","metric":{"metric":"m"},"threshold_seconds":1,"target":0.9,"window":300000000000}]}`,
		`{"slos":[{"name":"e","metric":{"metric":"m","labels":{},"label_prefixes":{}},"threshold_seconds":1,"target":0.9}]}`,
		`{"slos":[{"name":"o","metric":{"metric":"m"},"threshold_seconds":1e300,"target":0.9,"window":1e19}]}`,
		`{"slos":[{"name":"x","metric":{"metric":"m"},"threshold_seconds":1,"target":0.9,"warn_burn":20,"breach_burn":10}]}`,
		`{"slos":[{"name":"x","metric":{"metric":"m"},"threshold_seconds":1,"target":0.9,"short_window":"1h","long_window":"5m"}]}`,
		`{"slos":[{"name":"x","kind":"weird","target":0.9}]}`,
		`{`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		specs, err := Parse(doc)
		if err != nil {
			return
		}
		for _, s := range specs {
			_ = s.Objective()
		}
		b, err := json.Marshal(Config{SLOs: specs})
		if err != nil {
			t.Fatalf("accepted config does not marshal: %v", err)
		}
		again, err := Parse(b)
		if err != nil {
			t.Fatalf("re-parse of %s: %v", b, err)
		}
		if !reflect.DeepEqual(again, specs) {
			t.Fatalf("round trip changed the specs:\n%+v\nvs\n%+v", specs, again)
		}
	})
}

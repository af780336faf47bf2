package main

import (
	"testing"
)

// TestTracedReplayMatchesHTTP runs a short plan-tenants sequence over HTTP
// and replays it through the layers; traceServing fails if any approx
// outcome or other body differs from the HTTP run.
func TestTracedReplayMatchesHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server and plans a few hundred missions")
	}
	load, err := newServingLoad("plan-tenants", 11, 192)
	if err != nil {
		t.Fatal(err)
	}
	out := newReport("plan-tenants", 11, 1, true, t.TempDir())
	defer out.clock.close()
	r := &servingRun{load: load, clock: out.clock}
	for i := 0; i < clients; i++ {
		r.clients = append(r.clients, newClient())
	}
	if err := r.setUps(out); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := r.ls.close(); err != nil {
			t.Error(err)
		}
	}()
	w, outs, err := r.send(load.reqs)
	if err != nil {
		t.Fatal(err)
	}
	if q := foldQuality(outs); q.ok != q.attempted {
		t.Fatal(firstFailure("HTTP run", outs))
	}
	if err := traceServing(r, w, outs, out); err != nil {
		t.Fatal(err)
	}
	plans := out.PerLayer["approx.decides_per_plan"].Value
	if plans <= 0 || out.PerLayer["tmplar.serve_ms.p50"].Value <= 0 {
		t.Fatalf("traced replay measured nothing: %v", out.PerLayer)
	}
	if out.SpansFile == "" {
		t.Fatal("no span file written")
	}
}

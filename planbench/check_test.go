package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/tmplar"
)

// servedPlan plans one mission on a small lattice through a real server and
// returns the request, the grid and the response body.
func servedPlan(t *testing.T) (*tmplar.PlanRequest, *grid.Grid, []byte) {
	t.Helper()
	srv, err := tmplar.NewServerOpts(1, serverOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	g := grid.Lattice("lattice", 8, 8)
	srv.InstallGrid(g)
	req := &tmplar.PlanRequest{
		Grid:        g.Name(),
		Destination: 63,
		Seed:        5,
		Assets: []tmplar.AssetSpec{
			{Source: 0, SensingRadius: 1.2 * g.AvgEdgeWeight(), MaxSpeed: 3},
			{Source: 7, SensingRadius: 1.2 * g.AvgEdgeWeight(), MaxSpeed: 4},
		},
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/api/plan", bytes.NewReader(body)))
	if rr.Code != http.StatusOK {
		t.Fatalf("plan: status %d: %s", rr.Code, rr.Body)
	}
	return req, g, rr.Body.Bytes()
}

// mutate decodes body, applies fn and re-encodes it.
func mutate(t *testing.T, body []byte, fn func(*tmplar.PlanResponse)) []byte {
	t.Helper()
	var resp tmplar.PlanResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	fn(&resp)
	out, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCheckerAcceptsServedPlan(t *testing.T) {
	req, g, body := servedPlan(t)
	if o := checkPlan(req, g, http.StatusOK, body); !o.ok {
		t.Fatalf("served plan rejected: %v", o.err)
	}
}

func TestCheckerRejectsBrokenPlans(t *testing.T) {
	req, g, body := servedPlan(t)
	var resp tmplar.PlanResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Routes[0].Legs) < 2 {
		t.Fatalf("mission too short to break: %d legs", len(resp.Routes[0].Legs))
	}
	cases := []struct {
		name, want string
		status     int
		fn         func(*tmplar.PlanResponse)
	}{
		{"broken leg chain", "starts at", 200, func(r *tmplar.PlanResponse) {
			r.Routes[0].Legs[1].From = r.Routes[0].Legs[1].From + 1
		}},
		{"route time is not its legs' sum", "legs sum to", 200, func(r *tmplar.PlanResponse) { r.Routes[1].Time += 1 }},
		{"t_total is not the longest route", "t_total/f_total", 200, func(r *tmplar.PlanResponse) { r.TTotal *= 2 }},
		{"missing route", "routes for", 200, func(r *tmplar.PlanResponse) { r.Routes = r.Routes[:1] }},
		{"not 200", "status 503", 503, func(*tmplar.PlanResponse) {}},
	}
	for _, c := range cases {
		o := checkPlan(req, g, c.status, mutate(t, body, c.fn))
		if o.ok || o.err == nil || !strings.Contains(o.err.Error(), c.want) {
			t.Errorf("%s: ok=%v err=%v, want an error containing %q", c.name, o.ok, o.err, c.want)
		}
	}
}

package tmplar

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/routeplanning/mamorl/internal/approx"
	"github.com/routeplanning/mamorl/internal/grid"
)

// planResponseFields is PlanResponse without its methods, so json.Marshal
// encodes it by reflection: the oracle the hand-written encoder must match.
type planResponseFields PlanResponse

// reflectedBody is the body json.NewEncoder(w).Encode(resp) wrote before
// PlanResponse had an encoder of its own.
func reflectedBody(resp PlanResponse) ([]byte, error) {
	b, err := json.Marshal(planResponseFields(resp))
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// checkEncoders compares AppendJSON, MarshalJSON (as json.Marshal calls
// it) and the reflection oracle on resp: equal bytes when every float is
// finite, and the same error from all three otherwise.
func checkEncoders(t *testing.T, name string, resp PlanResponse) {
	t.Helper()
	want, wantErr := reflectedBody(resp)
	got, gotErr := resp.AppendJSON(nil)
	marshaled, marshalErr := json.Marshal(resp)
	if wantErr != nil {
		if gotErr == nil || marshalErr == nil {
			t.Fatalf("%s: reflection fails (%v) but AppendJSON gives %v and json.Marshal %v", name, wantErr, gotErr, marshalErr)
		}
		if gotErr.Error() != wantErr.Error() || !strings.HasSuffix(marshalErr.Error(), wantErr.Error()) {
			t.Fatalf("%s: errors differ: AppendJSON %q, json.Marshal %q, reflection %q", name, gotErr, marshalErr, wantErr)
		}
		return
	}
	if gotErr != nil || marshalErr != nil {
		t.Fatalf("%s: AppendJSON error %v, json.Marshal error %v; reflection encodes it", name, gotErr, marshalErr)
	}
	if !bytes.Equal(append(got, '\n'), want) {
		t.Fatalf("%s: AppendJSON\n%s\nreflection\n%s", name, got, want)
	}
	if !bytes.Equal(append(marshaled, '\n'), want) {
		t.Fatalf("%s: json.Marshal\n%s\nreflection\n%s", name, marshaled, want)
	}
}

// TestPlanResponseJSONMatchesReflection checks the plan encoder against
// encoding/json's reflection, on hand-built responses that reach every
// branch of the encoder (nil and empty slices, wait both ways, floats at
// the edges of the 'f' and 'e' forms) and on served responses.
func TestPlanResponseJSONMatchesReflection(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0),
		math.SmallestNonzeroFloat64, math.MaxFloat64, -1.5, -1e-7, -1e22, -math.MaxFloat64,
		0.1, 1.0 / 3, 123456789.125, 1e20, 2.5e-9, -math.SmallestNonzeroFloat64,
	}
	for _, f := range floats {
		resp := PlanResponse{Found: true, FoundBy: 2, Steps: 7, TTotal: f, FTotal: -f, Collisions: 1,
			Routes: []AssetRoute{
				{Asset: 0, Legs: []RouteLeg{{From: 1, To: 2, Speed: 3, Time: f, Fuel: f / 3}, {From: 2, To: 2, Time: -f, Fuel: 0, Wait: true}}, Time: f, Fuel: f * 2},
				{Asset: 1, Legs: nil, Time: f},
				{Asset: 2, Legs: []RouteLeg{}, Fuel: f},
			}}
		checkEncoders(t, fmt.Sprintf("float %v", f), resp)
	}
	for name, resp := range map[string]PlanResponse{
		"zero":         {},
		"nil routes":   {FoundBy: -1, Steps: 3},
		"empty routes": {FoundBy: -1, Routes: []AssetRoute{}},
		"one wait":     {Routes: []AssetRoute{{Legs: []RouteLeg{{Wait: true}}}}},
		"negative ids": {FoundBy: -1, Routes: []AssetRoute{{Asset: -3, Legs: []RouteLeg{{From: -1, To: math.MaxInt32, Speed: -2}}}}},
	} {
		checkEncoders(t, name, resp)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		set := []func(*PlanResponse){
			func(r *PlanResponse) { r.TTotal = bad },
			func(r *PlanResponse) { r.FTotal = bad },
			func(r *PlanResponse) { r.Routes[1].Legs[0].Time = bad },
			func(r *PlanResponse) { r.Routes[1].Legs[0].Fuel = bad },
			func(r *PlanResponse) { r.Routes[0].Time = bad },
			func(r *PlanResponse) { r.Routes[1].Fuel = bad },
		}
		for k, mutate := range set {
			resp := PlanResponse{Routes: []AssetRoute{{}, {Legs: []RouteLeg{{Time: 1, Fuel: 2}}}}}
			mutate(&resp)
			checkEncoders(t, fmt.Sprintf("%v in field %d", bad, k), resp)
		}
	}

	for _, body := range servedPlanBodies(t) {
		var resp PlanResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		want, err := reflectedBody(resp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("served body\n%s\nreflection\n%s", body, want)
		}
		checkEncoders(t, "served", resp)
	}
}

// servedPlanBodies serves seeded requests for every algorithm on a planar
// and a geodesic grid, plain and with weather, obstacles and rendezvous,
// and returns the /api/plan bodies. Each body carries its Content-Length,
// and the same request run as a job settles with exactly these bytes as
// its result.
func servedPlanBodies(t *testing.T) [][]byte {
	t.Helper()
	s := jobServer(t, 2, 64)
	caribbean, err := grid.CaribbeanGrid(5)
	if err != nil {
		t.Fatal(err)
	}
	s.InstallGrid(caribbean)
	h := s.Handler()
	var bodies [][]byte
	for _, name := range []string{"ops-area", "caribbean"} {
		g, _ := s.lookupGrid(name)
		sc, err := approx.TrainingScenario(g, 3, 3, 1.2, 3)
		if err != nil {
			t.Fatal(err)
		}
		base := PlanRequest{Grid: name, Destination: int32(sc.Dest), Seed: 3}
		for _, a := range sc.Team {
			base.Assets = append(base.Assets, AssetSpec{Source: int32(a.Source), SensingRadius: a.SensingRadius, MaxSpeed: a.MaxSpeed})
		}
		b, d := g.Bounds(), g.Pos(sc.Dest)
		base.Region = &RegionSpec{MinX: d.X - b.Width()/5, MinY: d.Y - b.Height()/5, MaxX: d.X + b.Width()/5, MaxY: d.Y + b.Height()/5}
		weather := &WeatherSpec{
			Gyre:   &GyreSpec{CenterX: b.Center().X, CenterY: b.Center().Y, Radius: b.Width() / 2, Strength: 0.3},
			Storms: []StormSpec{{CenterX: d.X, CenterY: d.Y, DriftX: b.Width() / 50, Radius: b.Width() / 4, Slowdown: 0.5}},
		}
		// Obstacles: the first five nodes past a third of the ID range
		// that are neither a source nor the destination.
		var obstacles []int32
		for v := g.NumNodes() / 3; len(obstacles) < 5; v++ {
			if grid.NodeID(v) != sc.Dest && !slices.ContainsFunc(base.Assets, func(a AssetSpec) bool { return a.Source == int32(v) }) {
				obstacles = append(obstacles, int32(v))
			}
		}
		variants := map[string]func(*PlanRequest){
			"plain":     func(*PlanRequest) {},
			"obstacles": func(r *PlanRequest) { r.Obstacles, r.Weather = obstacles, weather },
			"gather":    func(r *PlanRequest) { r.Rendezvous, r.Weather, r.MaxSteps = true, weather, 400 },
		}
		for _, alg := range []string{"approx", "approx-pk", "baseline1", "baseline2", "random"} {
			for vname, vary := range variants {
				req := base
				req.Algorithm = alg
				vary(&req)
				label := fmt.Sprintf("%s/%s/%s", name, alg, vname)
				rec := do(t, h, "POST", "/api/plan", req)
				if rec.Code != http.StatusOK {
					t.Fatalf("%s: %d %s", label, rec.Code, rec.Body.String())
				}
				body := rec.Body.Bytes()
				if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(body)) {
					t.Fatalf("%s: Content-Length %q for a %d-byte body", label, cl, len(body))
				}
				if result := settledJobResult(t, h, req); !bytes.Equal(append(result, '\n'), body) {
					t.Fatalf("%s: job result\n%s\n/api/plan body\n%s", label, result, body)
				}
				bodies = append(bodies, body)
			}
		}
	}
	return bodies
}

// settledJobResult submits req as a job and returns the raw bytes of the
// settled job view's result.
func settledJobResult(t *testing.T, h http.Handler, req PlanRequest) []byte {
	t.Helper()
	rec := do(t, h, "POST", "/api/jobs/plan", JobPlanRequest{PlanRequest: req})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body.String())
	}
	var v struct{ ID string }
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	pollJob(t, h, v.ID)
	rec = do(t, h, "GET", "/api/jobs/"+v.ID, nil)
	var view struct {
		State  string
		Result json.RawMessage
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	if view.State != "done" {
		t.Fatalf("job %s settled %s: %s", v.ID, view.State, rec.Body.String())
	}
	return view.Result
}

// TestServedPlanHasContentLength: over a real connection a plan body, even
// one far beyond net/http's 2 KiB response buffer, goes out with its
// Content-Length instead of chunked.
func TestServedPlanHasContentLength(t *testing.T) {
	srv := httptest.NewServer(server(t).Handler())
	defer srv.Close()
	req := opsPlanRequest()
	req.Algorithm = "random"
	body, _ := json.Marshal(req)
	resp, err := http.Post(srv.URL+"/api/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(got) <= 2048 {
		t.Fatalf("status %d, %d bytes; want a 200 beyond 2 KiB", resp.StatusCode, len(got))
	}
	if resp.ContentLength != int64(len(got)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("Content-Length %d, Transfer-Encoding %v for a %d-byte body", resp.ContentLength, resp.TransferEncoding, len(got))
	}
}

// FuzzPlanResponseJSON: for any field values the plan encoder writes the
// reflection bytes, or fails with reflection's error when a float is NaN or
// infinite.
func FuzzPlanResponseJSON(f *testing.F) {
	f.Add(true, 1, 40, 0, 12.5, 30.25, uint8(3), uint8(2), int32(4), int32(9), 2, 0.75, 1.5, false)
	f.Add(false, -1, 0, 3, 0.0, 1e-7, uint8(4), uint8(0), int32(0), int32(0), 1, 1e21, 5e-324, true)
	f.Add(true, 0, 1, 0, math.NaN(), 1.0, uint8(1), uint8(1), int32(1), int32(2), 3, 1.0, 1.0, false)
	f.Add(true, 0, 1, 0, 1.0, 1.0, uint8(2), uint8(5), int32(1), int32(2), 3, math.Inf(-1), 1.0, true)
	f.Fuzz(func(t *testing.T, found bool, foundBy, steps, collisions int, tTotal, fTotal float64,
		routes, legs uint8, from, to int32, speed int, legTime, legFuel float64, wait bool) {
		resp := PlanResponse{Found: found, FoundBy: foundBy, Steps: steps, TTotal: tTotal, FTotal: fTotal, Collisions: collisions}
		// routes: bit 2 makes a zero count an empty slice instead of nil;
		// legs likewise, per route.
		if n := int(routes & 3); n > 0 || routes&4 != 0 {
			resp.Routes = make([]AssetRoute, n)
		}
		for i := range resp.Routes {
			r := &resp.Routes[i]
			r.Asset = i
			if n := int(legs&3) + i; n > 0 || legs&4 != 0 {
				r.Legs = make([]RouteLeg, n)
			}
			for k := range r.Legs {
				l := &r.Legs[k]
				l.From, l.To, l.Speed = from+int32(k), to-int32(k), speed
				l.Time, l.Fuel, l.Wait = legTime*float64(k+1), legFuel/float64(k+1), wait != (k%2 == 1)
				r.Time += l.Time
				r.Fuel += l.Fuel
			}
		}
		checkEncoders(t, "fuzz", resp)
	})
}

// TestPlanResponseJSONAllocs: the plan encoder writing into a warmed buffer
// allocates nothing.
func TestPlanResponseJSONAllocs(t *testing.T) {
	resp := PlanResponse{Found: true, FoundBy: 1, Steps: 60, TTotal: 41.25, FTotal: 97.5, Routes: make([]AssetRoute, 4)}
	for i := range resp.Routes {
		for k := 0; k < 60; k++ {
			resp.Routes[i].Legs = append(resp.Routes[i].Legs, RouteLeg{From: int32(k), To: int32(k + 1), Speed: 2, Time: 0.1 * float64(k), Fuel: 1.0 / float64(k+1), Wait: k%7 == 0})
		}
	}
	buf, err := resp.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		buf, err = resp.AppendJSON(buf[:0])
	})
	if avg != 0 || err != nil {
		t.Fatalf("AppendJSON into a warmed buffer allocates %.2f objects per call (err %v), want 0", avg, err)
	}
}

// TestWriteJSONRefusesNonFinite: a value encoding/json refuses answers 500
// with a JSON error naming the encoder's complaint (it used to answer its
// status with an empty body); a value it accepts goes out with its status,
// json.Encoder's exact bytes and a Content-Length.
func TestWriteJSONRefusesNonFinite(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"t_total": math.NaN()})
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != http.StatusInternalServerError {
		t.Fatalf("NaN body: status %d, body %q (%v); want 500 with a JSON error", rec.Code, rec.Body.String(), err)
	}
	if want := "encode response: json: unsupported value: NaN"; e.Error != want {
		t.Fatalf("error %q, want %q", e.Error, want)
	}

	v := gridInfo{Name: "ops-area", Nodes: 150, Edges: 330, MaxOutDegree: 8, Metric: "planar"}
	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusCreated, v)
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(v); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusCreated || !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
		t.Fatalf("status %d, body %q; want 201 and %q", rec.Code, rec.Body.String(), want.String())
	}
	if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(want.Len()) {
		t.Fatalf("Content-Length %q, want %d", got, want.Len())
	}
	if got := rec.Header().Get("Content-Type"); got != "application/json" {
		t.Fatalf("Content-Type %q", got)
	}
}

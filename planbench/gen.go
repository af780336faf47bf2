package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/tmplar"
)

// tenant is one grid the serving workloads upload, with its encoded body.
type tenant struct {
	grid *grid.Grid
	body []byte
}

// request is one generated plan request and its wire body.
type request struct {
	tenant int
	plan   tmplar.PlanRequest
	body   []byte
}

// servingLoad is everything a serving workload sends, generated from the
// workload seed before any timing starts.
type servingLoad struct {
	tenants []tenant
	first   []request // the first plan per tenant, part of set-up
	warmup  []request // run before the timed window, checked but not timed
	reqs    []request // the timed sequence
	segLen  int       // requests per segment between reference slices
}

// Per-workload request rates in plans per nominal second. The timed
// sequence holds rate × --seconds requests, so every run of one seed sends
// the same requests and its quality metrics repeat exactly.
const (
	hotRate     = 160
	tenantsRate = 800
	numTenants  = 12
	hotTenants  = 2
)

func encodeGrid(g *grid.Grid) ([]byte, error) {
	var b bytes.Buffer
	if err := grid.Encode(&b, g); err != nil {
		return nil, fmt.Errorf("encode grid %s: %w", g.Name(), err)
	}
	return b.Bytes(), nil
}

// planGen draws plan requests over a set of tenant grids.
type planGen struct {
	rng     *rand.Rand
	tenants []tenant
}

// team draws a mission on tenant t: 2–6 assets with max speed 3–5, sensing
// radius 1.2 mean edge weights, a destination and distinct sources that can
// all reach it.
func (pg *planGen) team(t int, algo string, seed int64) request {
	g := pg.tenants[t].grid
	n := 2 + pg.rng.Intn(5)
	var dest grid.NodeID
	var reach []grid.NodeID
	for len(reach) <= n {
		dest = grid.NodeID(pg.rng.Intn(g.NumNodes()))
		reach = reaching(g, dest)
	}
	radius := 1.2 * g.AvgEdgeWeight()
	used := map[grid.NodeID]bool{dest: true}
	req := tmplar.PlanRequest{
		Grid:        g.Name(),
		Destination: int32(dest),
		Algorithm:   algo,
		Seed:        seed,
	}
	for len(req.Assets) < n {
		src := reach[pg.rng.Intn(len(reach))]
		if used[src] {
			continue
		}
		used[src] = true
		req.Assets = append(req.Assets, tmplar.AssetSpec{
			Source:        int32(src),
			SensingRadius: radius,
			MaxSpeed:      3 + pg.rng.Intn(3),
		})
	}
	if algo == "approx-pk" {
		d := g.Pos(dest)
		r := 3 * g.AvgEdgeWeight()
		req.Region = &tmplar.RegionSpec{MinX: d.X - r, MinY: d.Y - r, MaxX: d.X + r, MaxY: d.Y + r}
	}
	return request{tenant: t, plan: req}
}

// reaching lists the nodes from which dest is reachable (a reverse BFS), in
// ascending node order.
func reaching(g *grid.Grid, dest grid.NodeID) []grid.NodeID {
	seen := make([]bool, g.NumNodes())
	seen[dest] = true
	queue := []grid.NodeID{dest}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, e := range g.InEdges(v) {
			if !seen[e.To] {
				seen[e.To] = true
				queue = append(queue, e.To)
			}
		}
	}
	var out []grid.NodeID
	for v, ok := range seen {
		if ok {
			out = append(out, grid.NodeID(v))
		}
	}
	return out
}

func encodeAll(reqs []request) error {
	for i := range reqs {
		b, err := json.Marshal(reqs[i].plan)
		if err != nil {
			return fmt.Errorf("encode request: %w", err)
		}
		reqs[i].body = b
	}
	return nil
}

// newServingLoad builds the tenants and request sequences of a serving
// workload. n is the length of the timed sequence.
func newServingLoad(workload string, seed int64, n int) (*servingLoad, error) {
	sl := &servingLoad{}
	pg := &planGen{rng: rand.New(rand.NewSource(seed))}
	var next func() request
	switch workload {
	case "plan-hot":
		g, err := grid.CaribbeanGrid(1)
		if err != nil {
			return nil, err
		}
		sl.tenants = []tenant{{grid: g}}
		sl.segLen = 24
		next = func() request { return pg.team(0, "approx", pg.rng.Int63()) }
	case "plan-tenants":
		// The grids, like plan-hot's mesh, do not depend on the workload
		// seed: two thirds of the traffic plans on two of them, so
		// seed-dependent grids would set a run's throughput more than the
		// program does.
		for t := 0; t < numTenants; t++ {
			nodes := 200 + t*600/(numTenants-1)
			g, err := grid.GenerateSynthetic(grid.SyntheticConfig{
				Name:         fmt.Sprintf("tenant-%02d", t),
				Nodes:        nodes,
				Edges:        nodes * 21 / 10,
				MaxOutDegree: 6 + t%4,
				Seed:         int64(t) + 1,
			})
			if err != nil {
				return nil, err
			}
			sl.tenants = append(sl.tenants, tenant{grid: g})
		}
		sl.segLen = 96
		cold := 0
		next = func() request {
			t := pg.rng.Intn(hotTenants)
			if pg.rng.Intn(3) == 0 {
				t = hotTenants + cold
				cold = (cold + 1) % (numTenants - hotTenants)
			}
			algo := "approx"
			switch pg.rng.Intn(10) {
			case 7:
				algo = "approx-pk"
			case 8:
				algo = "baseline1"
			case 9:
				algo = "baseline2"
			}
			return pg.team(t, algo, pg.rng.Int63())
		}
	default:
		return nil, fmt.Errorf("unknown serving workload %q", workload)
	}
	pg.tenants = sl.tenants
	for t := range sl.tenants {
		b, err := encodeGrid(sl.tenants[t].grid)
		if err != nil {
			return nil, err
		}
		sl.tenants[t].body = b
		sl.first = append(sl.first, pg.team(t, "approx", pg.rng.Int63()))
	}
	for i := 0; i < 2*sl.segLen; i++ {
		sl.warmup = append(sl.warmup, next())
	}
	for i := 0; i < n; i++ {
		sl.reqs = append(sl.reqs, next())
	}
	for _, rs := range [][]request{sl.first, sl.warmup, sl.reqs} {
		if err := encodeAll(rs); err != nil {
			return nil, err
		}
	}
	return sl, nil
}

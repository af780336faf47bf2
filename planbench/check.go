package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"

	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/tmplar"
)

// outcome is one plan as the benchmark saw it. A plan is ok when it
// answered 200 and passed checkPlan.
type outcome struct {
	status     int
	ok         bool
	found      bool
	collisions int
	steps      int
	tTotal     float64
	fTotal     float64
	size       int
	digest     [32]byte
	err        error
}

// checkPlan validates one plan response against its request and grid:
//   - the status is 200 and the body decodes;
//   - there is one route per asset, and every route has one leg per step;
//   - legs chain from the asset's source, waits stay put and moves follow
//     grid edges;
//   - each route's time and fuel equal the sums over its legs, t_total
//     equals the largest route time and f_total the total route fuel.
//
// The sums are taken in the order the server takes them, so they must
// match exactly.
func checkPlan(req *tmplar.PlanRequest, g *grid.Grid, status int, body []byte) outcome {
	out := outcome{status: status, size: len(body), digest: sha256.Sum256(body)}
	if status != http.StatusOK {
		out.err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
		return out
	}
	// A fresh value each time: decoding into reused slice elements would
	// keep fields an omitted JSON key leaves alone ("wait" is omitempty).
	resp := new(tmplar.PlanResponse)
	if err := json.Unmarshal(body, resp); err != nil {
		out.err = fmt.Errorf("decode plan: %w", err)
		return out
	}
	if err := checkRoutes(req, g, resp); err != nil {
		out.err = err
		return out
	}
	out.ok = true
	out.found = resp.Found
	out.collisions = resp.Collisions
	out.steps = resp.Steps
	out.tTotal = resp.TTotal
	out.fTotal = resp.FTotal
	return out
}

func checkRoutes(req *tmplar.PlanRequest, g *grid.Grid, resp *tmplar.PlanResponse) error {
	if len(resp.Routes) != len(req.Assets) {
		return fmt.Errorf("%d routes for %d assets", len(resp.Routes), len(req.Assets))
	}
	if resp.Found != (resp.FoundBy >= 0 && resp.FoundBy < len(req.Assets)) {
		return fmt.Errorf("found=%v with found_by=%d", resp.Found, resp.FoundBy)
	}
	var tMax, fSum float64
	for i, r := range resp.Routes {
		if r.Asset != i {
			return fmt.Errorf("route %d is for asset %d", i, r.Asset)
		}
		if len(r.Legs) != resp.Steps {
			return fmt.Errorf("asset %d: %d legs for %d steps", i, len(r.Legs), resp.Steps)
		}
		at := grid.NodeID(req.Assets[i].Source)
		var t, f float64
		for k, leg := range r.Legs {
			from, to := grid.NodeID(leg.From), grid.NodeID(leg.To)
			switch {
			case from != at:
				return fmt.Errorf("asset %d leg %d starts at %d, not %d", i, k, from, at)
			case leg.Wait && to != from:
				return fmt.Errorf("asset %d leg %d waits but moves %d->%d", i, k, from, to)
			case !leg.Wait && !g.HasEdge(from, to):
				return fmt.Errorf("asset %d leg %d moves along missing edge %d->%d", i, k, from, to)
			}
			at = to
			t += leg.Time
			f += leg.Fuel
		}
		if r.Time != t || r.Fuel != f {
			return fmt.Errorf("asset %d: route time/fuel %v/%v, legs sum to %v/%v", i, r.Time, r.Fuel, t, f)
		}
		if r.Time > tMax {
			tMax = r.Time
		}
		fSum += r.Fuel
	}
	if resp.TTotal != tMax || resp.FTotal != fSum {
		return fmt.Errorf("t_total/f_total %v/%v, routes give %v/%v", resp.TTotal, resp.FTotal, tMax, fSum)
	}
	return nil
}

// quality folds outcomes, in request order, into the plan-quality metrics.
// Folding in request order keeps the float sums, and so the metrics,
// identical across runs of one seed.
type quality struct {
	attempted, ok, found, collisionFree int
	tSum, fSum                          float64
	digest                              [32]byte
}

func foldQuality(outs []outcome) quality {
	var q quality
	h := sha256.New()
	for _, o := range outs {
		q.attempted++
		h.Write(o.digest[:])
		if !o.ok {
			continue
		}
		q.ok++
		if o.collisions == 0 {
			q.collisionFree++
		}
		if o.found {
			q.found++
			q.tSum += o.tTotal
			q.fSum += o.fTotal
		}
	}
	copy(q.digest[:], h.Sum(nil))
	return q
}

// metrics sets the quality part of the end-to-end metrics.
func (q quality) metrics(m metrics) {
	m.set("ok_frac", "fraction", ratio(q.ok, q.attempted))
	m.set("found_frac", "fraction", ratio(q.found, q.ok))
	m.set("collision_free_frac", "fraction", ratio(q.collisionFree, q.ok))
	m.set("t_total_mean", "sim_time", safeDiv(q.tSum, float64(q.found)))
	m.set("f_total_mean", "fuel", safeDiv(q.fSum, float64(q.found)))
}

func ratio(a, b int) float64 { return safeDiv(float64(a), float64(b)) }

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

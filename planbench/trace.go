package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"github.com/routeplanning/mamorl/internal/approx"
	"github.com/routeplanning/mamorl/internal/catalog"
	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/sim"
	"github.com/routeplanning/mamorl/internal/tmplar"
	"github.com/routeplanning/mamorl/internal/vessel"
)

// span is one call at a layer boundary, recorded by the benchmark around
// the exported function it calls. Spans of one request share req; parent
// indexes the same recorder's spans, -1 for the request's root.
type span struct {
	name       string
	req        int32
	parent     int32
	start, end int64 // ns since the recorder's epoch
	// miss marks a catalog.acquire that loaded its entry.
	miss bool
	// decides is the range of a sim.mission's Decide calls in the
	// recorder's decide samples. Decide calls are the mission's children;
	// there are hundreds per plan, so they are kept as durations, not spans.
	decides [2]int32
}

func (s span) dur() int64 { return s.end - s.start }

// recorder holds one client's spans and samples. Each client owns one; a
// span opened by a client may be closed on the catalog's planner goroutine
// while that client waits in Entry.Do, which orders the two.
type recorder struct {
	epoch   time.Time
	spans   []span
	decides []int64 // ns per Decide call
	tmm, lm int64   // model predictions
	// feats holds the first predictions' feature vectors by kind (0 = TMM,
	// 1 = LM), to time the model's predict calls afterwards.
	feats [2][][]float64
	// approx plans replayed through the layers, and their mission steps.
	plans, steps int64
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) open(name string, parent, req int) int {
	r.spans = append(r.spans, span{name: name, req: int32(req), parent: int32(parent), start: r.now()})
	return len(r.spans) - 1
}

func (r *recorder) close(i int) { r.spans[i].end = r.now() }

// featSamples is how many feature vectors of each kind a recorder keeps.
const featSamples = 2048

func (r *recorder) sample(kind int, x []float64) {
	if len(r.feats[kind]) < featSamples {
		r.feats[kind] = append(r.feats[kind], append([]float64(nil), x...))
	}
}

// timedPlanner times each Decide of the planner it wraps.
type timedPlanner struct {
	inner sim.Planner
	rec   *recorder
}

func (p *timedPlanner) Name() string { return p.inner.Name() }

func (p *timedPlanner) Decide(m *sim.Mission, i int) sim.Action {
	t0 := time.Now()
	a := p.inner.Decide(m, i)
	p.rec.decides = append(p.rec.decides, int64(time.Since(t0)))
	return a
}

// countingModel counts the predictions of the model it wraps.
type countingModel struct {
	approx.Model
	rec *recorder
}

func (m countingModel) PredictTMM(x []float64) float64 {
	m.rec.tmm++
	m.rec.sample(0, x)
	return m.Model.PredictTMM(x)
}

func (m countingModel) PredictLM(x []float64) float64 {
	m.rec.lm++
	m.rec.sample(1, x)
	return m.Model.PredictLM(x)
}

// scenarioOf builds the mission of a plan request as Server.plan does for
// the request shapes this benchmark sends (no obstacles, weather or
// rendezvous).
func scenarioOf(req *tmplar.PlanRequest, g *grid.Grid) sim.Scenario {
	team := make(vessel.Team, len(req.Assets))
	for i, a := range req.Assets {
		team[i] = vessel.Asset{ID: i, SensingRadius: a.SensingRadius, MaxSpeed: a.MaxSpeed, Source: grid.NodeID(a.Source)}
	}
	commEvery := req.CommEvery
	if commEvery == 0 {
		commEvery = 3
	}
	return sim.Scenario{Grid: g, Team: team, Dest: grid.NodeID(req.Destination), CommEvery: commEvery, MaxSteps: req.MaxSteps}
}

// replay is the traced run of a serving workload.
type replay struct {
	r       *servingRun
	outs    []outcome // the untraced run's outcomes, to compare against
	cat     *catalog.Catalog
	handler http.Handler
	recs    []*recorder
	errs    []error
}

// approxPlan replays approx request i through the layers in the order
// Server.plan calls them: decode, Catalog.Acquire, Scenario.Validate,
// Entry.Do (whose fn stamps the queue wait), sim.RunContext on a fresh
// approx planner with timing and counting wrappers, Entry.Release.
func (t *replay) approxPlan(rec *recorder, i int) error {
	q := &t.r.load.reqs[i]
	root := rec.open("request", -1, i)
	defer rec.close(root)
	sp := rec.open("json.unmarshal", root, i)
	var req tmplar.PlanRequest
	err := json.Unmarshal(q.body, &req)
	rec.close(sp)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), serverOptions().PlanTimeout)
	defer cancel()
	called := time.Now()
	sp = rec.open("catalog.acquire", root, i)
	ent, err := t.cat.Acquire(ctx, catalog.Key{Grid: req.Grid, Model: req.ModelID})
	rec.close(sp)
	if err != nil {
		return err
	}
	rec.spans[sp].miss = t.loadedSince(ent.Key(), called)
	sc := scenarioOf(&req, ent.Grid())
	sp = rec.open("sim.validate", root, i)
	err = sc.Validate()
	rec.close(sp)
	if err != nil {
		ent.Release()
		return err
	}
	do := rec.open("catalog.do", root, i)
	wait := rec.open("catalog.wait", do, i)
	var res sim.Result
	var runErr error
	err = ent.Do(ctx, req.Seed, func(ctx context.Context, _ *approx.Planner) error {
		rec.close(wait)
		ms := rec.open("sim.mission", do, i)
		lo := len(rec.decides)
		pl := &timedPlanner{inner: approx.NewPlanner(countingModel{ent.Model(), rec}, ent.Ext(), req.Seed), rec: rec}
		res, runErr = sim.RunContext(ctx, sc, pl, sim.RunOptions{Collision: sim.RecordCollisions})
		rec.close(ms)
		rec.spans[ms].decides = [2]int32{int32(lo), int32(len(rec.decides))}
		return nil
	})
	rec.close(do)
	sp = rec.open("catalog.release", root, i)
	ent.Release()
	rec.close(sp)
	if err == nil {
		err = runErr
	}
	if err != nil {
		return err
	}
	rec.plans++
	rec.steps += int64(res.Steps)
	o := t.outs[i]
	if res.Found != o.found || res.Steps != o.steps || res.Collisions != o.collisions || res.TTotal != o.tTotal || res.FTotal != o.fTotal {
		return fmt.Errorf("traced replay of plan %d: found=%v steps=%d collisions=%d t=%v f=%v, HTTP run gave %v %d %d %v %v",
			i, res.Found, res.Steps, res.Collisions, res.TTotal, res.FTotal, o.found, o.steps, o.collisions, o.tTotal, o.fTotal)
	}
	return nil
}

// loadedSince reports whether the resident entry for key was loaded after
// t, i.e. by the Acquire that started at t.
func (t *replay) loadedSince(key catalog.Key, at time.Time) bool {
	for _, e := range t.cat.Snapshot().Entries {
		if e.Grid == key.Grid && e.Model == key.Model {
			return e.LoadedAt.After(at)
		}
	}
	return true // evicted already: only a fresh load goes that fast
}

// servePlan replays a non-approx request through Handler().ServeHTTP with
// no transport; its body must equal the HTTP run's byte for byte.
func (t *replay) servePlan(rec *recorder, i int) error {
	q := &t.r.load.reqs[i]
	root := rec.open("request", -1, i)
	sp := rec.open("tmplar.serve", root, i)
	rr := httptest.NewRecorder()
	t.handler.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/api/plan", bytes.NewReader(q.body)))
	rec.close(sp)
	rec.close(root)
	if rr.Code != http.StatusOK || sha256.Sum256(rr.Body.Bytes()) != t.outs[i].digest {
		return fmt.Errorf("traced replay of plan %d: status %d, body differs from the HTTP run", i, rr.Code)
	}
	return nil
}

// traceServing replays the timed sequence with the same clients and
// segments, calling each layer's exported functions directly, and reports
// the per-layer metrics.
func traceServing(r *servingRun, untraced window, outs []outcome, out *report) error {
	t := &replay{r: r, outs: outs, cat: r.ls.srv.Catalog(), handler: r.ls.srv.Handler()}
	n := len(r.load.reqs)
	epoch := time.Now()
	for cl := 0; cl < clients; cl++ {
		t.recs = append(t.recs, &recorder{epoch: epoch, spans: make([]span, 0, 8*n)})
	}
	t.errs = make([]error, n)
	before := t.cat.Stats()
	w, err := r.clock.closedLoop(n, r.load.segLen, clients, func(cl, i int) {
		if a := r.load.reqs[i].plan.Algorithm; a == "" || a == "approx" {
			t.errs[i] = t.approxPlan(t.recs[cl], i)
		} else {
			t.errs[i] = t.servePlan(t.recs[cl], i)
		}
	}, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if t.errs[i] != nil {
				return t.errs[i]
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	after := t.cat.Stats()

	m := out.PerLayer
	lay := collect(t.recs, w.factor)
	spanTimings(m, lay)
	spanTimings(out.Raw, collect(t.recs, nil))
	out.Samples["catalog.wait_ms.p99.beyond"] = lay.beyond99("catalog.wait")
	out.Samples["approx.decide_us.p99.beyond"] = lay.beyond99("approx.decide")
	var size float64
	for _, o := range outs {
		size += float64(o.size)
	}
	m.set("tmplar.resp_kb.mean", "KiB", size/float64(len(outs))/1024)
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	m.set("catalog.hit_frac", "fraction", ratio(int(hits), int(hits+misses)))
	m.set("catalog.loads_per_kplan", "count", 1000*float64(after.Loads-before.Loads)/float64(n))
	var plans, steps, tmm, lm int64
	for _, rec := range t.recs {
		plans += rec.plans
		steps += rec.steps
		tmm += rec.tmm
		lm += rec.lm
	}
	decides := float64(len(lay.samples["approx.decide"]))
	m.set("sim.steps_per_plan", "count", safeDiv(float64(steps), float64(plans)))
	m.set("approx.decides_per_plan", "count", safeDiv(decides, float64(plans)))
	m.set("approx.decide_share", "fraction", safeDiv(lay.sum["approx.decide"], lay.sum["sim.mission"]))
	m.set("model.predicts_per_decide", "count", safeDiv(float64(tmm+lm), decides))
	if plans > 0 {
		share, err := predictShare(r.clock, t, tmm, lm, lay.sum["approx.decide"])
		if err != nil {
			return err
		}
		m.set("model.predict_share", "fraction", share)
	}
	for name, sv := range lay.samples {
		out.Samples[name] = len(sv)
	}
	out.unmeasured(unmeasuredServing)
	out.overhead(untraced, w)
	return out.writeSpans(t.recs, w.factor)
}

// predictSink keeps the replayed predictions from being optimized away.
var predictSink float64

// predictShare estimates the share of Decide time spent in model
// predictions: the counted calls times the per-call time of the served
// model, replayed over the feature vectors the traced run recorded. Timing
// each ~10 ns call in place would cost more than the call and inflate
// Decide.
func predictShare(clock *hostClock, t *replay, tmm, lm int64, decideNS float64) (float64, error) {
	var feats [2][][]float64
	for _, rec := range t.recs {
		feats[0] = append(feats[0], rec.feats[0]...)
		feats[1] = append(feats[1], rec.feats[1]...)
	}
	ent, err := t.cat.Acquire(context.Background(), catalog.Key{Grid: t.r.load.tenants[0].grid.Name()})
	if err != nil {
		return 0, err
	}
	defer ent.Release()
	model := ent.Model()
	const loops = 50
	var perCall [2]float64
	for kind, fs := range feats {
		if len(fs) == 0 {
			continue
		}
		w, err := clock.repeat(5, func(int) error {
			for k := 0; k < loops; k++ {
				for _, x := range fs {
					if kind == 0 {
						predictSink += model.PredictTMM(x)
					} else {
						predictSink += model.PredictLM(x)
					}
				}
			}
			return nil
		}, func(int) error { return nil })
		if err != nil {
			return 0, err
		}
		perCall[kind] = median(w.latMS) * 1e6 / float64(loops*len(fs))
	}
	return safeDiv(float64(tmm)*perCall[0]+float64(lm)*perCall[1], decideNS), nil
}

// spanTimings sets the per-layer timings read off the spans.
func spanTimings(m metrics, l layers) {
	m.set("tmplar.serve_ms.p50", "ms", l.q("tmplar.serve", 0.5)/1e6)
	m.set("catalog.acquire_us.p50", "us", l.q("catalog.acquire.hit", 0.5)/1e3)
	m.set("catalog.load_ms.p50", "ms", l.q("catalog.acquire.miss", 0.5)/1e6)
	m.set("catalog.wait_ms.p50", "ms", l.q("catalog.wait", 0.5)/1e6)
	m.set("catalog.wait_ms.p99", "ms", l.q("catalog.wait", 0.99)/1e6)
	m.set("sim.validate_us.p50", "us", l.q("sim.validate", 0.5)/1e3)
	m.set("sim.mission_ms.p50", "ms", l.q("sim.mission", 0.5)/1e6)
	m.set("sim.self_ms.p50", "ms", l.q("sim.mission.self", 0.5)/1e6)
	m.set("approx.decide_us.p50", "us", l.q("approx.decide", 0.5)/1e3)
	m.set("approx.decide_us.p99", "us", l.q("approx.decide", 0.99)/1e3)
}

// layers is the traced run folded by span name: host-normalized durations
// in ns, and their sums.
type layers struct {
	samples map[string][]float64
	sum     map[string]float64
}

// collect folds the spans by name, each scaled by its request's host
// factor (unscaled when factor is nil). Besides the span names it adds
// catalog.acquire.hit and .miss, approx.decide (one sample per Decide) and
// sim.mission.self: a mission's self time, its duration minus the time its
// children cover. Every child of a span runs on the same goroutine chain
// and ends before the next starts, so their durations add up.
func collect(recs []*recorder, factor []float64) layers {
	l := layers{samples: map[string][]float64{}, sum: map[string]float64{}}
	add := func(name string, v float64) {
		l.samples[name] = append(l.samples[name], v)
		l.sum[name] += v
	}
	for _, rec := range recs {
		children := make([]int64, len(rec.spans))
		for _, s := range rec.spans {
			if s.parent >= 0 {
				children[s.parent] += s.dur()
			}
		}
		for i, s := range rec.spans {
			f := 1.0
			if factor != nil {
				f = factor[s.req]
			}
			add(s.name, float64(s.dur())*f)
			switch s.name {
			case "catalog.acquire":
				if s.miss {
					add("catalog.acquire.miss", float64(s.dur())*f)
				} else {
					add("catalog.acquire.hit", float64(s.dur())*f)
				}
			case "sim.mission":
				covered := children[i]
				for _, d := range rec.decides[s.decides[0]:s.decides[1]] {
					add("approx.decide", float64(d)*f)
					covered += d
				}
				add("sim.mission.self", float64(s.dur()-covered)*f)
			}
		}
	}
	return l
}

// q is the q-quantile of a span name's samples, 0 without samples.
func (l layers) q(name string, q float64) float64 {
	if len(l.samples[name]) == 0 {
		return 0
	}
	return quantile(l.samples[name], q)
}

// beyond99 counts the samples beyond a span name's p99.
func (l layers) beyond99(name string) int {
	return beyond(l.samples[name], l.q(name, 0.99))
}

// unmeasuredServing names the per-layer metrics a serving workload does
// not cross or measures indirectly, and why.
var unmeasuredServing = map[string]string{
	"setup.harness_s, experiments.*, grid.generate_ms.p50": "table6-batch only: the serving workloads build no experiments harness, and their grids are generated before set-up",
	"tmplar.serve_ms.p50":       "only non-approx plans are timed at ServeHTTP; plan-hot sends none",
	"catalog.load_ms.p50":       "0 when every traced acquire hits, as on plan-hot",
	"model.predict_share":       "estimated: counted predictions times the per-call time of the served model, replayed over recorded feature vectors; timing each call in place would inflate Decide",
	"runtime.alloc_kb_per_plan": "TotalAlloc over the untraced window per plan, client and server together",
}

// spanRecord is one span as written to the span file.
type spanRecord struct {
	Name    string  `json:"name"`
	Req     int32   `json:"req"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Client  int     `json:"client"`
	StartNS int64   `json:"start_ns"`
	EndNS   int64   `json:"end_ns"`
	Factor  float64 `json:"factor"`
	Miss    bool    `json:"miss,omitempty"`
	Decides int32   `json:"decides,omitempty"`
	DecNS   int64   `json:"decide_ns,omitempty"`
}

// writeSpans writes every span, as gzip-compressed JSON lines, once the run
// is over.
func (r *report) writeSpans(recs []*recorder, factor []float64) error {
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(r.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl.gz", r.Workload, r.Seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	enc := json.NewEncoder(zw)
	for cl, rec := range recs {
		for i, s := range rec.spans {
			sr := spanRecord{Name: s.name, Req: s.req, ID: i, Parent: int(s.parent), Client: cl,
				StartNS: s.start, EndNS: s.end, Factor: factor[s.req], Miss: s.miss}
			if s.name == "sim.mission" {
				sr.Decides = s.decides[1] - s.decides[0]
				for _, d := range rec.decides[s.decides[0]:s.decides[1]] {
					sr.DecNS += d
				}
			}
			if err := enc.Encode(sr); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	r.SpansFile = path
	return nil
}

package slo

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/routeplanning/mamorl/internal/obs"
)

// fakeClock drives engines deterministically.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0).UTC()} }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func approx(got, want float64) bool { return math.Abs(got-want) < 1e-9 }

// availSpec is an error-rate objective with windows small enough to
// hand-compute: target 0.9 (10% budget), short 10s, long 20s, tick 5s.
func availSpec(t *testing.T) Spec {
	t.Helper()
	specs, err := Compile([]Spec{{
		Name:        "avail",
		Kind:        KindErrorRate,
		Total:       Selector{Metric: "req_total"},
		Bad:         Selector{Metric: "req_errors"},
		Target:      0.9,
		Window:      Duration(60 * time.Second),
		ShortWindow: Duration(10 * time.Second),
		LongWindow:  Duration(20 * time.Second),
		WarnBurn:    2,
		BreachBurn:  10,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return specs[0]
}

// TestBurnRateTransitions drives the full ok → warn → breach → warn → ok
// cycle against hand-computed windowed burn rates.
func TestBurnRateTransitions(t *testing.T) {
	reg := obs.New()
	clock := newFakeClock()
	total := reg.Counter("req_total")
	bad := reg.Counter("req_errors")
	e := NewEngine(EngineOptions{Registry: reg, Specs: []Spec{availSpec(t)}, Now: clock.now})

	step := func(addTotal, addBad uint64, wantState State, wantShort, wantLong float64) {
		t.Helper()
		clock.advance(5 * time.Second)
		total.Add(addTotal)
		bad.Add(addBad)
		e.Tick()
		r := e.Report()
		s := r.SLOs[0]
		if s.State != wantState.String() {
			t.Fatalf("at %v: state = %s, want %s (short %.3f long %.3f)",
				clock.t, s.State, wantState, s.ShortBurn, s.LongBurn)
		}
		if !approx(s.ShortBurn, wantShort) || !approx(s.LongBurn, wantLong) {
			t.Fatalf("at %v: burns = %.6f/%.6f, want %.6f/%.6f",
				clock.t, s.ShortBurn, s.LongBurn, wantShort, wantLong)
		}
	}
	budget := 1 - 0.9 // exactly the float the engine divides by

	// t+5s: clean traffic.
	step(100, 0, StateOK, 0, 0)
	// t+10s: 50/100 errors. Short window reaches the t0 baseline:
	// bad-fraction 50/200, burn 0.25/budget = 2.5 on both windows => warn.
	step(100, 50, StateWarn, 0.25/budget, 0.25/budget)
	// t+15s: all-error batch. Short [t5,t15]: 150 bad of 200 -> 7.5; long
	// falls back to baseline: 150/300 -> 5. Warn holds (short < breach 10).
	step(100, 100, StateWarn, 0.75/budget, 0.5/budget)
	// t+20s: short window saturates (200 bad / 200 -> burn 10) but the long
	// window [t0,t20] is still diluted (250/400 -> 6.25): multiwindow
	// confirmation must hold breach back.
	step(100, 100, StateWarn, 1.0/budget, 0.625/budget)
	// t+25s: long window [t5,t25] still shy of 10 (350/400 -> 8.75).
	step(100, 100, StateWarn, 1.0/budget, 0.875/budget)
	// t+30s: long window [t10,t30] now all-error too (400/400) => breach.
	step(100, 100, StateBreach, 1.0/budget, 1.0/budget)
	// t+35s: recovery begins. Short [t25,t35]: 100 bad of 200 -> 5, below
	// 0.9*BreachBurn=9 => de-escalate one level to warn.
	step(100, 0, StateWarn, 0.5/budget, 0.75/budget)
	// t+40s: short window clean (0 of 200), below 0.9*WarnBurn => ok.
	step(100, 0, StateOK, 0, 0.5/budget)

	// Transition counters recorded every edge.
	for _, tr := range []struct{ from, to string }{
		{"ok", "warn"}, {"warn", "breach"}, {"breach", "warn"}, {"warn", "ok"},
	} {
		if got := reg.CounterValue("slo_transitions_total",
			"slo", "avail", "from", tr.from, "to", tr.to); got != 1 {
			t.Errorf("slo_transitions_total{%s->%s} = %d, want 1", tr.from, tr.to, got)
		}
	}
	if got := reg.GaugeValue("slo_state", "slo", "avail"); got != 0 {
		t.Errorf("slo_state gauge = %v, want 0 after recovery", got)
	}
}

// TestBaselineExcludesHistory: traffic observed before the engine exists
// must never count against a window.
func TestBaselineExcludesHistory(t *testing.T) {
	reg := obs.New()
	clock := newFakeClock()
	reg.Counter("req_total").Add(1000)
	reg.Counter("req_errors").Add(1000) // 100% errors... before we watched
	e := NewEngine(EngineOptions{Registry: reg, Specs: []Spec{availSpec(t)}, Now: clock.now})

	clock.advance(5 * time.Second)
	e.Tick()
	if s := e.Report().SLOs[0]; s.State != "ok" || s.ShortBurn != 0 {
		t.Fatalf("pre-engine errors leaked into the window: %+v", s)
	}
}

// TestLatencyObjectiveAndExemplar checks threshold bucketing and that the
// surfaced exemplar is always a violating observation.
func TestLatencyObjectiveAndExemplar(t *testing.T) {
	reg := obs.New()
	clock := newFakeClock()
	specs, err := Compile([]Spec{{
		Name:             "lat",
		Metric:           Selector{Metric: "plan_seconds"},
		ThresholdSeconds: 0.25,
		Target:           0.9,
		Window:           Duration(60 * time.Second),
		ShortWindow:      Duration(10 * time.Second),
		LongWindow:       Duration(20 * time.Second),
	}})
	if err != nil {
		t.Fatal(err)
	}
	h := reg.Histogram("plan_seconds", []float64{0.1, 0.25, 1})
	e := NewEngine(EngineOptions{Registry: reg, Specs: specs, Now: clock.now})

	h.ObserveExemplar(0.2, 0xfa57, 100) // within threshold: not a violation
	h.ObserveExemplar(0.5, 0xbad, 200)  // violation
	for i := 0; i < 8; i++ {
		h.Observe(0.05)
	}
	clock.advance(5 * time.Second)
	e.Tick()
	s := e.Report().SLOs[0]
	// 9 of 10 observations <= 0.25 -> bad fraction 0.1, burn 1 => ok.
	if s.State != "ok" || !approx(s.ShortBurn, 0.1/(1-0.9)) {
		t.Fatalf("latency eval: %+v", s)
	}
	if s.Good != 9 || s.Total != 10 {
		t.Fatalf("window counts = %v/%v, want 9/10", s.Good, s.Total)
	}
	if s.Exemplar == nil || s.Exemplar.TraceID != "0000000000000bad" {
		t.Fatalf("exemplar = %+v, want the violating 0.5s sample (trace ...fbad)", s.Exemplar)
	}
	if s.Exemplar.Value != 0.5 {
		t.Fatalf("exemplar value = %v, want 0.5", s.Exemplar.Value)
	}
}

// TestThresholdBetweenBoundsIsConservative: a threshold that does not
// coincide with a bucket bound must round DOWN (events in the gap count as
// bad), never up.
func TestThresholdBetweenBoundsIsConservative(t *testing.T) {
	reg := obs.New()
	clock := newFakeClock()
	specs, err := Compile([]Spec{{
		Name:             "lat",
		Metric:           Selector{Metric: "h"},
		ThresholdSeconds: 0.3, // between bounds 0.25 and 1
		Target:           0.5,
		ShortWindow:      Duration(10 * time.Second),
		LongWindow:       Duration(20 * time.Second),
	}})
	if err != nil {
		t.Fatal(err)
	}
	h := reg.Histogram("h", []float64{0.1, 0.25, 1})
	e := NewEngine(EngineOptions{Registry: reg, Specs: specs, Now: clock.now})
	h.Observe(0.28) // under the threshold but over the 0.25 bound
	h.Observe(0.05)
	clock.advance(5 * time.Second)
	e.Tick()
	if s := e.Report().SLOs[0]; s.Good != 1 || s.Total != 2 {
		t.Fatalf("conservative bucketing: good/total = %v/%v, want 1/2", s.Good, s.Total)
	}
}

// TestReportDeterministic: two engines fed identical inputs under the same
// fake clock serve byte-identical /debug/slo JSON.
func TestReportDeterministic(t *testing.T) {
	build := func() ([]byte, []byte) {
		reg := obs.New()
		clock := newFakeClock()
		specs, err := Compile([]Spec{
			availSpec(t),
			{
				Name:             "lat",
				Metric:           Selector{Metric: "plan_seconds"},
				ThresholdSeconds: 0.25,
				Target:           0.99,
				ShortWindow:      Duration(10 * time.Second),
				LongWindow:       Duration(20 * time.Second),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		h := reg.Histogram("plan_seconds", []float64{0.1, 0.25, 1})
		e := NewEngine(EngineOptions{Registry: reg, Specs: specs, Now: clock.now})
		for i := 0; i < 3; i++ {
			clock.advance(5 * time.Second)
			reg.Counter("req_total").Add(100)
			reg.Counter("req_errors").Add(uint64(10 * i))
			h.ObserveExemplar(0.4, uint64(i+1), int64(1000+i))
			h.Observe(0.05)
			e.Tick()
		}
		body, err := json.Marshal(e.Report())
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		e.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slo", nil))
		return body, rec.Body.Bytes()
	}
	b1, h1 := build()
	b2, h2 := build()
	if !bytes.Equal(b1, b2) {
		t.Fatalf("Report JSON not deterministic:\n%s\n%s", b1, b2)
	}
	if !bytes.Equal(h1, h2) {
		t.Fatalf("/debug/slo body not deterministic:\n%s\n%s", h1, h2)
	}
	if !bytes.Contains(h1, []byte(`"exemplar"`)) || !bytes.Contains(h1, []byte(`"objective"`)) {
		t.Fatalf("report lacks exemplar/objective fields: %s", h1)
	}
}

// TestNilEngine: a nil engine is a safe no-op (SLOs disabled).
func TestNilEngine(t *testing.T) {
	var e *Engine
	if e.Enabled() {
		t.Error("nil engine enabled")
	}
	e.Tick()
	if r := e.Report(); len(r.SLOs) != 0 {
		t.Errorf("nil engine report = %+v", r)
	}
}

// TestOnTransitionCaptureID drives the same transition cycle with an
// OnTransition hook wired and checks the returned capture ID sticks to the
// objective — in the report, and across later no-transition ticks — and that
// the hook observes the right edges.
func TestOnTransitionCaptureID(t *testing.T) {
	reg := obs.New()
	clock := newFakeClock()
	total := reg.Counter("req_total")
	bad := reg.Counter("req_errors")

	var seen []Transition
	e := NewEngine(EngineOptions{
		Registry: reg,
		Specs:    []Spec{availSpec(t)},
		Now:      clock.now,
		OnTransition: func(tr Transition) string {
			seen = append(seen, tr)
			if tr.To > tr.From && tr.To >= StateWarn {
				return "c000042"
			}
			return "" // recovery edges keep the previous forensic capture
		},
	})

	step := func(addTotal, addBad uint64) {
		t.Helper()
		clock.advance(5 * time.Second)
		total.Add(addTotal)
		bad.Add(addBad)
		e.Tick()
	}
	step(100, 0) // ok
	step(100, 50)
	if s := e.Report().SLOs[0]; s.State != "warn" || s.CaptureID != "c000042" {
		t.Fatalf("after escalation: state=%s capture_id=%q", s.State, s.CaptureID)
	}
	if len(seen) != 1 || seen[0].SLO != "avail" || seen[0].From != StateOK || seen[0].To != StateWarn {
		t.Fatalf("hook saw %+v", seen)
	}
	if seen[0].ShortBurn <= 0 {
		t.Fatalf("hook transition burns not populated: %+v", seen[0])
	}

	// No transition on a steady tick: hook not called, capture ID retained.
	step(100, 50)
	if len(seen) != 1 {
		t.Fatalf("hook called without a transition: %+v", seen)
	}
	if s := e.Report().SLOs[0]; s.CaptureID != "c000042" {
		t.Fatalf("capture_id dropped on steady tick: %q", s.CaptureID)
	}

	// Recovery edge: hook sees it, returns "", previous capture ID sticks.
	step(100, 0)
	step(100, 0)
	r := e.Report().SLOs[0]
	if r.State != "ok" {
		t.Fatalf("state = %s, want ok", r.State)
	}
	if r.CaptureID != "c000042" {
		t.Fatalf("capture_id after recovery = %q, want retained c000042", r.CaptureID)
	}
	if last := seen[len(seen)-1]; last.From != StateWarn || last.To != StateOK {
		t.Fatalf("hook saw %+v", seen)
	}
}

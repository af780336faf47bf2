package slo

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/routeplanning/mamorl/internal/obs"
	"github.com/routeplanning/mamorl/internal/trace"
)

// State is an SLO's health: the ordering matters (escalation is numeric).
type State int

// SLO states.
const (
	StateOK State = iota
	StateWarn
	StateBreach
)

// String renders the state for reports, metrics labels, and logs.
func (s State) String() string {
	switch s {
	case StateWarn:
		return "warn"
	case StateBreach:
		return "breach"
	default:
		return "ok"
	}
}

// EngineOptions configures an Engine.
type EngineOptions struct {
	// Registry is both the metric source the objectives judge and the sink
	// the engine's own slo_state / slo_burn_rate / slo_transitions_total
	// metrics are written into. Required.
	Registry *obs.Registry
	// Specs are the compiled objectives (see Compile / Defaults).
	Specs []Spec
	// Logger receives one record per state transition. nil disables.
	Logger *slog.Logger
	// Tracer, when set, records each state transition as a root span named
	// "slo.transition" so transitions land in /debug/traces next to the
	// requests that caused them.
	Tracer *trace.Tracer
	// Now replaces the clock (fake clocks make evaluation deterministic).
	Now func() time.Time
	// Capacity bounds the per-SLO ring of measurement points. <= 0 selects
	// enough for the longest window at a 2s tick, capped at 4096.
	Capacity int
	// OnTransition, when set, observes every state transition and may
	// return a forensic capture ID to attach to it (span attr, log record,
	// and the capture_id field in /debug/slo). tmplar wires this to the
	// continuous profiler so a warn/breach escalation snapshots the CPU and
	// heap state that caused it. Called with the engine lock held, from
	// Tick: it must be fast and must not call back into the engine.
	OnTransition func(Transition) (captureID string)
}

// Transition describes one SLO state change handed to OnTransition.
type Transition struct {
	SLO       string
	From, To  State
	ShortBurn float64
	LongBurn  float64
}

// point is one cumulative measurement: good/total event counts observed at
// time t. Windowed deltas between points yield burn rates.
type point struct {
	t           time.Time
	good, total float64
}

// sloState is one objective's live evaluation state.
type sloState struct {
	spec  Spec
	ring  []point
	start int
	count int

	state     State
	shortBurn float64
	longBurn  float64
	consumed  float64       // error budget consumed over spec.Window
	good      float64       // delta over spec.Window
	total     float64       // delta over spec.Window
	exemplar  *obs.Exemplar // offending request, when one is known
	captureID string        // forensic profile capture from the last transition
}

// push appends a point, evicting the oldest when full.
func (st *sloState) push(p point) {
	if st.count < len(st.ring) {
		st.ring[(st.start+st.count)%len(st.ring)] = p
		st.count++
		return
	}
	st.ring[st.start] = p
	st.start = (st.start + 1) % len(st.ring)
}

// at returns the i-th retained point, oldest first.
func (st *sloState) at(i int) point { return st.ring[(st.start+i)%len(st.ring)] }

// window returns the good/total deltas over [now-w, now]: the newest point
// minus the newest point old enough to sit at or before the window start
// (falling back to the oldest retained point when history is shorter than
// the window, which makes short runs judge their whole lifetime — exactly
// what a bounded load test wants).
func (st *sloState) window(now time.Time, w time.Duration) (good, total float64) {
	if st.count < 2 {
		return 0, 0
	}
	newest := st.at(st.count - 1)
	cut := now.Add(-w)
	ref := st.at(0)
	for i := st.count - 1; i >= 0; i-- {
		if p := st.at(i); !p.t.After(cut) {
			ref = p
			break
		}
	}
	return newest.good - ref.good, newest.total - ref.total
}

// burnRate converts windowed deltas into a burn rate: the bad-event
// fraction divided by the error budget. Burn 1 spends the budget exactly
// at the promised pace; burn 10 spends it 10x too fast.
func burnRate(good, total, target float64) float64 {
	if total <= 0 {
		return 0
	}
	bad := (total - good) / total
	if bad < 0 {
		bad = 0
	}
	return bad / (1 - target)
}

// nextState advances the hysteretic state machine. Escalation requires
// BOTH windows over the threshold (multiwindow confirmation); recovery is
// governed by the short window — one level per evaluation, and only once
// it has fallen below RecoverRatio of the current level's entry threshold,
// so a burn hovering at a threshold holds rather than flaps.
func nextState(cur State, short, long float64, sp Spec) State {
	want := StateOK
	if short >= sp.WarnBurn && long >= sp.WarnBurn {
		want = StateWarn
	}
	if short >= sp.BreachBurn && long >= sp.BreachBurn {
		want = StateBreach
	}
	if want > cur {
		return want
	}
	if want < cur {
		thr := sp.WarnBurn
		if cur == StateBreach {
			thr = sp.BreachBurn
		}
		if short < thr*RecoverRatio {
			return cur - 1
		}
	}
	return cur
}

// Engine continuously evaluates a spec set against registry snapshots.
// Drive it by adding Tick to the obs.Sampler's OnTick hooks (tmplard does
// this), or call Tick directly under a fake clock in tests.
type Engine struct {
	reg          *obs.Registry
	logger       *slog.Logger
	tracer       *trace.Tracer
	now          func() time.Time
	onTransition func(Transition) string

	mu   sync.Mutex
	slos []*sloState
}

// NewEngine builds an engine and records the baseline measurement, so
// events from before the engine existed never count against a window.
func NewEngine(opts EngineOptions) *Engine {
	if opts.Now == nil {
		opts.Now = time.Now
	}
	e := &Engine{
		reg:          opts.Registry,
		logger:       opts.Logger,
		tracer:       opts.Tracer,
		now:          opts.Now,
		onTransition: opts.OnTransition,
	}
	capacity := opts.Capacity
	if capacity <= 0 {
		longest := time.Duration(0)
		for _, sp := range opts.Specs {
			if d := time.Duration(sp.LongWindow); d > longest {
				longest = d
			}
			if d := time.Duration(sp.Window); d > longest {
				longest = d
			}
		}
		capacity = int(longest/(2*time.Second)) + 2
		if capacity > 4096 {
			capacity = 4096
		}
		if capacity < 64 {
			capacity = 64
		}
	}
	for _, sp := range opts.Specs {
		e.slos = append(e.slos, &sloState{spec: sp, ring: make([]point, capacity)})
	}
	registerHelp(opts.Registry)
	snap := e.reg.Snapshot()
	now := e.now()
	for _, st := range e.slos {
		good, total, _ := measure(snap, st.spec)
		st.push(point{t: now, good: good, total: total})
		e.reg.Gauge("slo_state", "slo", st.spec.Name).Set(float64(st.state))
	}
	return e
}

// registerHelp documents the engine's metric names.
func registerHelp(m *obs.Registry) {
	for name, help := range map[string]string{
		"slo_state":             "SLO health by name: 0 ok, 1 warn, 2 breach.",
		"slo_burn_rate":         "Error-budget burn rate by SLO and window (short/long).",
		"slo_budget_consumed":   "Fraction of the error budget consumed over the SLO window.",
		"slo_transitions_total": "SLO state transitions, by SLO and from/to state.",
	} {
		m.SetHelp(name, help)
	}
}

// Enabled reports whether the engine evaluates anything.
func (e *Engine) Enabled() bool { return e != nil && len(e.slos) > 0 }

// measure reduces one snapshot to an objective's cumulative good/total
// counts plus the offending exemplar, if one is known.
func measure(snap obs.Snapshot, sp Spec) (good, total float64, ex *obs.Exemplar) {
	switch sp.Kind {
	case KindLatency:
		for _, h := range snap.Histograms {
			if h.Name != sp.Metric.Metric || !sp.Metric.Matches(h.Labels) {
				continue
			}
			total += float64(h.Count)
			good += float64(cumulativeAtThreshold(h, sp.ThresholdSeconds))
		}
	case KindErrorRate:
		for _, c := range snap.Counters {
			if c.Name == sp.Total.Metric && sp.Total.Matches(c.Labels) {
				total += float64(c.Value)
			}
			if c.Name == sp.Bad.Metric && sp.Bad.Matches(c.Labels) {
				good -= float64(c.Value) // accumulate bad negatively, add total below
			}
		}
		good += total
		if good < 0 {
			good = 0
		}
	}
	ex = offendingExemplar(snap, sp)
	return good, total, ex
}

// cumulativeAtThreshold returns the cumulative count of observations at or
// below the threshold: the bucket whose bound equals the threshold, or the
// next lower bound when the threshold falls between bounds (conservative —
// the gap counts as bad).
func cumulativeAtThreshold(h obs.HistogramSnapshot, threshold float64) uint64 {
	idx := sort.SearchFloat64s(h.Bounds, threshold)
	// SearchFloat64s returns the first bound >= threshold; step back when
	// it is strictly above (or past the end).
	if idx == len(h.Bounds) || h.Bounds[idx] > threshold {
		idx--
	}
	if idx < 0 {
		return 0
	}
	return h.Buckets[idx]
}

// offendingExemplar picks the most recently stamped exemplar matching the
// spec's exemplar selector. For latency objectives only buckets strictly
// above the threshold qualify, so the answer is always an observation that
// violated the objective.
func offendingExemplar(snap obs.Snapshot, sp Spec) *obs.Exemplar {
	if sp.Exemplar.Metric == "" {
		return nil
	}
	var best *obs.Exemplar
	for _, h := range snap.Histograms {
		if h.Name != sp.Exemplar.Metric || !sp.Exemplar.Matches(h.Labels) || h.Exemplars == nil {
			continue
		}
		from := 0
		if sp.Kind == KindLatency && sp.Exemplar.Metric == sp.Metric.Metric {
			idx := sort.SearchFloat64s(h.Bounds, sp.ThresholdSeconds)
			if idx < len(h.Bounds) && h.Bounds[idx] <= sp.ThresholdSeconds {
				idx++
			}
			from = idx
		}
		for i := from; i < len(h.Exemplars); i++ {
			if e := h.Exemplars[i]; e != nil && (best == nil || e.UnixNanos > best.UnixNanos) {
				best = e
			}
		}
	}
	return best
}

// Tick evaluates every objective against the current registry state:
// records a measurement point, recomputes both burn windows and the budget
// consumed, advances the state machine, and emits metrics, log records and
// trace events for transitions. Call it from the sampler's OnTick hook so
// the slo_* gauges land in the same time-series sample the dashboards
// stream.
func (e *Engine) Tick() {
	if !e.Enabled() {
		return
	}
	snap := e.reg.Snapshot()
	now := e.now()

	e.mu.Lock()
	defer e.mu.Unlock()
	for _, st := range e.slos {
		good, total, ex := measure(snap, st.spec)
		st.push(point{t: now, good: good, total: total})
		st.exemplar = ex

		sg, stot := st.window(now, time.Duration(st.spec.ShortWindow))
		lg, ltot := st.window(now, time.Duration(st.spec.LongWindow))
		wg, wtot := st.window(now, time.Duration(st.spec.Window))
		st.shortBurn = burnRate(sg, stot, st.spec.Target)
		st.longBurn = burnRate(lg, ltot, st.spec.Target)
		st.good, st.total = wg, wtot
		st.consumed = 0
		if wtot > 0 {
			st.consumed = (wtot - wg) / (wtot * (1 - st.spec.Target))
		}

		next := nextState(st.state, st.shortBurn, st.longBurn, st.spec)
		if next != st.state {
			e.emitTransition(st, next)
		}
		st.state = next

		e.reg.Gauge("slo_state", "slo", st.spec.Name).Set(float64(st.state))
		e.reg.Gauge("slo_burn_rate", "slo", st.spec.Name, "window", "short").Set(st.shortBurn)
		e.reg.Gauge("slo_burn_rate", "slo", st.spec.Name, "window", "long").Set(st.longBurn)
		e.reg.Gauge("slo_budget_consumed", "slo", st.spec.Name).Set(st.consumed)
	}
}

// emitTransition records one state change in the transition counter, the
// log, and the trace ring, and hands it to the OnTransition hook, whose
// returned capture ID (a profiler forensic snapshot) sticks to the objective
// until the next transition. Called with the engine lock held.
func (e *Engine) emitTransition(st *sloState, next State) {
	e.reg.Counter("slo_transitions_total",
		"slo", st.spec.Name, "from", st.state.String(), "to", next.String()).Inc()
	if e.onTransition != nil {
		if id := e.onTransition(Transition{
			SLO:       st.spec.Name,
			From:      st.state,
			To:        next,
			ShortBurn: st.shortBurn,
			LongBurn:  st.longBurn,
		}); id != "" {
			st.captureID = id
		}
	}
	if e.logger != nil {
		level := slog.LevelInfo
		switch next {
		case StateWarn:
			level = slog.LevelWarn
		case StateBreach:
			level = slog.LevelError
		}
		attrs := []any{
			"slo", st.spec.Name, "from", st.state.String(), "to", next.String(),
			"short_burn", st.shortBurn, "long_burn", st.longBurn,
			"objective", st.spec.Objective(),
		}
		if st.exemplar != nil {
			attrs = append(attrs, "exemplar_trace", st.exemplar.TraceID)
		}
		if st.captureID != "" {
			attrs = append(attrs, "capture_id", st.captureID)
		}
		e.logger.Log(context.Background(), level, "slo transition", attrs...)
	}
	if e.tracer.Enabled() {
		sp := e.tracer.Start("slo.transition",
			trace.String("slo", st.spec.Name),
			trace.String("from", st.state.String()),
			trace.String("to", next.String()),
			trace.Float("short_burn", st.shortBurn),
			trace.Float("long_burn", st.longBurn))
		if st.exemplar != nil {
			sp.SetAttrs(trace.String("exemplar_trace", st.exemplar.TraceID))
		}
		if st.captureID != "" {
			sp.SetAttrs(trace.String("capture_id", st.captureID))
		}
		sp.End()
	}
}

// Status is one objective's evaluated state, as served at /debug/slo.
type Status struct {
	Name        string        `json:"name"`
	Objective   string        `json:"objective"`
	State       string        `json:"state"`
	Target      float64       `json:"target"`
	ShortWindow Duration      `json:"short_window"`
	LongWindow  Duration      `json:"long_window"`
	ShortBurn   float64       `json:"short_burn"`
	LongBurn    float64       `json:"long_burn"`
	Window      Duration      `json:"window"`
	Good        float64       `json:"good"`
	Total       float64       `json:"total"`
	BudgetUsed  float64       `json:"budget_consumed"`
	Exemplar    *obs.Exemplar `json:"exemplar,omitempty"`
	// CaptureID names the forensic profile capture taken at this SLO's last
	// state transition; resolve it at /debug/prof/{id}.
	CaptureID string `json:"capture_id,omitempty"`
}

// Report is the full evaluation snapshot: every objective in spec order.
type Report struct {
	T    time.Time `json:"t"`
	SLOs []Status  `json:"slos"`
}

// Report returns the current evaluation without re-measuring (states are
// as of the last Tick).
func (e *Engine) Report() Report {
	if e == nil {
		return Report{}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	r := Report{SLOs: make([]Status, 0, len(e.slos))}
	for _, st := range e.slos {
		if st.count > 0 {
			if t := st.at(st.count - 1).t; t.After(r.T) {
				r.T = t
			}
		}
		var ex *obs.Exemplar
		if st.exemplar != nil {
			c := *st.exemplar
			ex = &c
		}
		r.SLOs = append(r.SLOs, Status{
			Name:        st.spec.Name,
			Objective:   st.spec.Objective(),
			State:       st.state.String(),
			Target:      st.spec.Target,
			ShortWindow: st.spec.ShortWindow,
			LongWindow:  st.spec.LongWindow,
			ShortBurn:   st.shortBurn,
			LongBurn:    st.longBurn,
			Window:      st.spec.Window,
			Good:        st.good,
			Total:       st.total,
			BudgetUsed:  st.consumed,
			Exemplar:    ex,
			CaptureID:   st.captureID,
		})
	}
	return r
}

// Handler serves the report as JSON (the /debug/slo endpoint).
func (e *Engine) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(e.Report())
	})
}

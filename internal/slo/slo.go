// Package slo turns the raw metrics in an obs.Registry into service-level
// objectives: declarative specs ("99% of plans finish within 250ms over a
// rolling hour") evaluated continuously into multi-window burn rates with
// hysteretic ok → warn → breach state transitions, in the style of the
// Google SRE workbook's multiwindow multi-burn-rate alerts.
//
// Objectives are data, not code: tmplard loads them from a -slo-config
// JSON file (falling back to compiled-in defaults), and cmd/loadgen reads
// the evaluated verdicts back from GET /debug/slo to decide whether a load
// run passed. The engine only ever reads registry snapshots, so evaluation
// can never perturb the metrics it judges.
package slo

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"time"
)

// Kind discriminates what an objective measures.
type Kind string

const (
	// KindLatency judges a histogram: good events are observations at or
	// below ThresholdSeconds. The threshold should coincide with a bucket
	// bound; otherwise the next lower bound is used (conservative — events
	// between the two count as bad).
	KindLatency Kind = "latency"
	// KindErrorRate judges counters: good events are Total minus Bad.
	KindErrorRate Kind = "error_rate"
)

// Selector picks metric series from a registry snapshot by name plus label
// constraints. Labels must match exactly; LabelPrefixes match when the
// series' label value starts with the given prefix (e.g. status "5" for
// every 5xx). A series matches when every constraint holds; constraints on
// labels the series lacks fail the match. Multiple matching series are
// summed.
type Selector struct {
	Metric        string            `json:"metric"`
	Labels        map[string]string `json:"labels,omitempty"`
	LabelPrefixes map[string]string `json:"label_prefixes,omitempty"`
}

// Matches reports whether a series with the given labels satisfies the
// selector's constraints (the metric name is checked by the caller).
func (s Selector) Matches(labels map[string]string) bool {
	for k, want := range s.Labels {
		if labels[k] != want {
			return false
		}
	}
	for k, prefix := range s.LabelPrefixes {
		v, ok := labels[k]
		if !ok || !strings.HasPrefix(v, prefix) {
			return false
		}
	}
	return true
}

// Spec is one declarative objective. The zero values of the tuning fields
// select the defaults below (normalize fills them in).
type Spec struct {
	// Name identifies the SLO in metrics, logs, traces, and reports.
	Name string `json:"name"`
	// Kind selects the measurement; empty means KindLatency when Metric is
	// set, KindErrorRate otherwise.
	Kind Kind `json:"kind,omitempty"`

	// Metric selects the latency histogram (KindLatency) and
	// ThresholdSeconds the good/bad boundary in seconds.
	Metric           Selector `json:"metric,omitempty"`
	ThresholdSeconds float64  `json:"threshold_seconds,omitempty"`

	// Total and Bad select the event counters (KindErrorRate).
	Total Selector `json:"total,omitempty"`
	Bad   Selector `json:"bad,omitempty"`

	// Exemplar optionally selects a histogram whose most recent exemplar
	// illustrates a violation. Latency SLOs default to their own Metric
	// (scanning only buckets above the threshold); error-rate SLOs have no
	// default.
	Exemplar Selector `json:"exemplar,omitempty"`

	// Target is the good-event ratio the objective promises, in (0, 1) —
	// e.g. 0.999. The error budget is 1 - Target.
	Target float64 `json:"target"`

	// Window is the rolling compliance window the budget-consumed figure
	// is computed over. Default 1h.
	Window Duration `json:"window,omitempty"`
	// ShortWindow and LongWindow are the two burn-rate windows (SRE
	// workbook style); a state escalates only when BOTH exceed the
	// threshold, so a brief spike (short only) or stale history (long
	// only) cannot page. Defaults 5m and 1h.
	ShortWindow Duration `json:"short_window,omitempty"`
	LongWindow  Duration `json:"long_window,omitempty"`

	// WarnBurn and BreachBurn are the burn-rate thresholds entering the
	// warn and breach states. Burn rate 1 consumes exactly the error
	// budget over the window; defaults 2 and 10.
	WarnBurn   float64 `json:"warn_burn,omitempty"`
	BreachBurn float64 `json:"breach_burn,omitempty"`
}

// Tuning defaults.
const (
	DefaultWindow      = Duration(time.Hour)
	DefaultShortWindow = Duration(5 * time.Minute)
	DefaultLongWindow  = Duration(time.Hour)
	DefaultWarnBurn    = 2.0
	DefaultBreachBurn  = 10.0
	// RecoverRatio is the hysteresis band: a state de-escalates (one level
	// per evaluation) only once the short-window burn falls below
	// RecoverRatio times the threshold that entered it, so a burn rate
	// hovering at the threshold cannot flap the state.
	RecoverRatio = 0.9
)

// normalize fills a spec's zero tuning fields with the defaults and infers
// the kind.
func (s Spec) normalize() Spec {
	if s.Kind == "" {
		if s.Metric.Metric != "" {
			s.Kind = KindLatency
		} else {
			s.Kind = KindErrorRate
		}
	}
	if s.Window <= 0 {
		s.Window = DefaultWindow
	}
	if s.ShortWindow <= 0 {
		s.ShortWindow = DefaultShortWindow
	}
	if s.LongWindow <= 0 {
		s.LongWindow = DefaultLongWindow
	}
	if s.WarnBurn <= 0 {
		s.WarnBurn = DefaultWarnBurn
	}
	if s.BreachBurn <= 0 {
		s.BreachBurn = DefaultBreachBurn
	}
	if s.Kind == KindLatency && s.Exemplar.Metric == "" {
		s.Exemplar = s.Metric
	}
	// An empty constraint map means no constraint, as an absent one does;
	// keep one form, so a compiled spec marshals and parses back equal.
	for _, sel := range []*Selector{&s.Metric, &s.Total, &s.Bad, &s.Exemplar} {
		if len(sel.Labels) == 0 {
			sel.Labels = nil
		}
		if len(sel.LabelPrefixes) == 0 {
			sel.LabelPrefixes = nil
		}
	}
	return s
}

// validate rejects specs the engine cannot evaluate.
func (s Spec) validate() error {
	if s.Name == "" {
		return fmt.Errorf("slo: spec without a name")
	}
	if s.Target <= 0 || s.Target >= 1 {
		return fmt.Errorf("slo %q: target %v outside (0, 1)", s.Name, s.Target)
	}
	switch s.Kind {
	case KindLatency:
		if s.Metric.Metric == "" {
			return fmt.Errorf("slo %q: latency objective without a metric", s.Name)
		}
		if s.ThresholdSeconds <= 0 {
			return fmt.Errorf("slo %q: latency objective without a positive threshold_seconds", s.Name)
		}
		if s.ThresholdSeconds >= maxSeconds {
			return fmt.Errorf("slo %q: threshold_seconds %v beyond the longest duration", s.Name, s.ThresholdSeconds)
		}
	case KindErrorRate:
		if s.Total.Metric == "" || s.Bad.Metric == "" {
			return fmt.Errorf("slo %q: error-rate objective needs total and bad selectors", s.Name)
		}
	default:
		return fmt.Errorf("slo %q: unknown kind %q", s.Name, s.Kind)
	}
	if s.WarnBurn > s.BreachBurn {
		return fmt.Errorf("slo %q: warn_burn %v above breach_burn %v", s.Name, s.WarnBurn, s.BreachBurn)
	}
	if s.ShortWindow > s.LongWindow {
		return fmt.Errorf("slo %q: short_window %v above long_window %v", s.Name, s.ShortWindow, s.LongWindow)
	}
	return nil
}

// Objective renders the human-readable promise ("p(tmplar_plan_seconds <=
// 250ms) >= 99% over 1h0m0s"), used in reports and the dashboard.
func (s Spec) Objective() string {
	switch s.Kind {
	case KindLatency:
		return fmt.Sprintf("p(%s <= %s) >= %g%% over %s",
			s.Metric.Metric, time.Duration(s.ThresholdSeconds*float64(time.Second)),
			pct(s.Target), time.Duration(s.Window))
	default:
		return fmt.Sprintf("error-rate(%s) <= %g%% over %s",
			s.Total.Metric, pct(1-s.Target), time.Duration(s.Window))
	}
}

// pct converts a ratio to a percentage, rounded past float noise so 0.999
// renders as 0.1%, not 0.10000000000000009%.
func pct(ratio float64) float64 { return math.Round(ratio*1e11) / 1e9 }

// maxSeconds is the longest time.Duration in seconds.
var maxSeconds = time.Duration(math.MaxInt64).Seconds()

// Duration is a time.Duration that marshals as a Go duration string
// ("5m0s") and unmarshals from either a string or a nanosecond number, so
// SLO config files stay human-readable.
type Duration time.Duration

// MarshalJSON renders the duration as a string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "5m" / "1h30m" strings or raw nanosecond numbers.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	switch x := v.(type) {
	case string:
		p, err := time.ParseDuration(x)
		if err != nil {
			return fmt.Errorf("slo: bad duration %q: %w", x, err)
		}
		*d = Duration(p)
	case float64:
		// float64(math.MaxInt64) rounds up to 2^63, one past the range.
		if x < math.MinInt64 || x >= math.MaxInt64 {
			return fmt.Errorf("slo: duration %v ns outside the int64 range", x)
		}
		*d = Duration(x)
	default:
		return fmt.Errorf("slo: duration must be a string or number, got %T", v)
	}
	return nil
}

// Config is the on-disk form of an SLO set: {"slos": [ ... ]}.
type Config struct {
	SLOs []Spec `json:"slos"`
}

// Parse decodes and validates a config document.
func Parse(b []byte) ([]Spec, error) {
	var cfg Config
	if err := json.Unmarshal(b, &cfg); err != nil {
		return nil, fmt.Errorf("slo: parse config: %w", err)
	}
	return Compile(cfg.SLOs)
}

// LoadFile reads an SLO config file.
func LoadFile(path string) ([]Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("slo: %w", err)
	}
	return Parse(b)
}

// Compile normalizes and validates a spec set (duplicate names included).
func Compile(specs []Spec) ([]Spec, error) {
	out := make([]Spec, 0, len(specs))
	seen := make(map[string]bool, len(specs))
	for _, s := range specs {
		s = s.normalize()
		if err := s.validate(); err != nil {
			return nil, err
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("slo: duplicate name %q", s.Name)
		}
		seen[s.Name] = true
		out = append(out, s)
	}
	return out, nil
}

// Defaults returns the compiled-in objectives tmplard serves when no
// -slo-config file is given: plan latency, plan availability (no 5xx), and
// end-to-end request latency on the plan route. The endpoint label values
// are route patterns (see tmplar's route normalization), so /debug scrapes
// never pollute these objectives.
func Defaults() []Spec {
	specs, err := Compile([]Spec{
		{
			Name:             "plan-latency",
			Kind:             KindLatency,
			Metric:           Selector{Metric: "tmplar_plan_seconds"},
			ThresholdSeconds: 0.25,
			Target:           0.99,
		},
		{
			Name: "plan-availability",
			Kind: KindErrorRate,
			Total: Selector{
				Metric: "tmplar_http_requests_total",
				Labels: map[string]string{"endpoint": "/api/plan"},
			},
			Bad: Selector{
				Metric:        "tmplar_http_requests_total",
				Labels:        map[string]string{"endpoint": "/api/plan"},
				LabelPrefixes: map[string]string{"status": "5"},
			},
			Exemplar: Selector{
				Metric: "tmplar_plan_seconds",
				Labels: map[string]string{"outcome": "error"},
			},
			Target: 0.999,
		},
		{
			Name: "http-latency",
			Kind: KindLatency,
			Metric: Selector{
				Metric: "tmplar_http_request_seconds",
				Labels: map[string]string{"endpoint": "/api/plan"},
			},
			ThresholdSeconds: 0.5,
			Target:           0.99,
		},
	})
	if err != nil {
		panic("slo: invalid defaults: " + err.Error()) // unreachable; pinned by tests
	}
	return specs
}

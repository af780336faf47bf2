package trace

import "github.com/routeplanning/mamorl/internal/obs"

// HistogramSink aggregates span durations into an obs registry: one
// trace_span_seconds histogram per span name (obs.DefaultLatencyBuckets),
// labeled span=<name>, plus a per-name trace_spans_total completion
// counter. This is the bridge between the trace layer and the /metrics
// surface — dashboards see latency distributions and span rates (the
// time-series sampler converts the counter into spans/second) of missions,
// runs and requests without storing any spans.
type HistogramSink struct {
	reg *obs.Registry
}

// NewHistogramSink aggregates into r.
func NewHistogramSink(r *obs.Registry) *HistogramSink {
	return &HistogramSink{reg: r}
}

// Emit implements Sink.
func (h *HistogramSink) Emit(s *Span) {
	h.reg.Histogram("trace_span_seconds", obs.DefaultLatencyBuckets, "span", s.Name).Observe(s.Dur.Seconds())
	h.reg.Counter("trace_spans_total", "span", s.Name).Inc()
}

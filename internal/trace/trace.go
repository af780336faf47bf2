// Package trace is a stdlib-only, allocation-conscious span tracer for the
// whole pipeline: missions, training episodes, experiment runs, and TMPLAR
// requests all emit the same span/event records, fanned out to pluggable
// sinks (an in-memory ring buffer for /debug/traces, JSONL files for
// offline analysis and replay, obs histograms for aggregated latency).
//
// The design goal is zero cost when disabled: every method on a nil *Tracer
// or nil *Span is a no-op, so instrumented code carries exactly one pointer
// comparison per call. Hot loops that build attributes should additionally
// guard with Enabled() — a variadic attribute list is materialized by the
// caller before the nil receiver can discard it:
//
//	if sp.Enabled() {
//		sp.Event("step", trace.Int("epoch", int64(e)))
//	}
//
// A Span's mutating methods (Event, SetAttrs, End) are single-goroutine;
// Child is safe to call concurrently because it only reads immutable
// identity fields. Completed spans are immutable and safe to share across
// goroutines, which is what makes the lock-free Ring sink sound.
package trace

import (
	"context"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"
)

// TraceID identifies one end-to-end trace (a mission, a request, a training
// pipeline). The zero value means "no trace".
type TraceID uint64

// String renders the ID as 16 hex digits, the form used in logs and the
// X-Trace-Id response header.
func (id TraceID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// ParseTraceID inverts TraceID.String.
func ParseTraceID(s string) (TraceID, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("trace: bad trace id %q: %w", s, err)
	}
	return TraceID(v), nil
}

// SpanID identifies one span within a tracer's lifetime.
type SpanID uint64

// Kind discriminates an Attr's payload.
type Kind uint8

// Attr payload kinds.
const (
	KindString Kind = iota
	KindInt
	KindFloat
	KindBool
)

// Attr is one typed key/value attribute. The payload lives in value fields
// rather than an interface so that building an attribute does not box.
type Attr struct {
	Key  string
	kind Kind
	str  string
	num  float64
	i    int64
}

// String builds a string attribute.
func String(key, v string) Attr { return Attr{Key: key, kind: KindString, str: v} }

// Int builds an integer attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, kind: KindInt, i: v} }

// Float builds a float attribute.
func Float(key string, v float64) Attr { return Attr{Key: key, kind: KindFloat, num: v} }

// Bool builds a boolean attribute.
func Bool(key string, v bool) Attr {
	a := Attr{Key: key, kind: KindBool}
	if v {
		a.i = 1
	}
	return a
}

// Kind returns the payload kind.
func (a Attr) Kind() Kind { return a.kind }

// Str returns the string payload (empty for other kinds).
func (a Attr) Str() string { return a.str }

// IntVal returns the integer payload (0 for other kinds).
func (a Attr) IntVal() int64 { return a.i }

// FloatVal returns the float payload (0 for other kinds).
func (a Attr) FloatVal() float64 { return a.num }

// BoolVal returns the boolean payload (false for other kinds).
func (a Attr) BoolVal() bool { return a.i != 0 }

// Any returns the payload as an interface value (JSON export).
func (a Attr) Any() any {
	switch a.kind {
	case KindString:
		return a.str
	case KindInt:
		return a.i
	case KindFloat:
		return a.num
	default:
		return a.i != 0
	}
}

// GetAttr finds the first attribute with the given key.
func GetAttr(attrs []Attr, key string) (Attr, bool) {
	for _, a := range attrs {
		if a.Key == key {
			return a, true
		}
	}
	return Attr{}, false
}

// Event is a point-in-time record inside a span (a mission step, a
// communication exchange, a reroute).
type Event struct {
	Name string
	// Offset is the event time relative to the span start.
	Offset time.Duration
	Attrs  []Attr
}

// Attr finds an event attribute by key.
func (e Event) Attr(key string) (Attr, bool) { return GetAttr(e.Attrs, key) }

// Span is one timed operation. Identity fields (TraceID, ID, Parent, Name,
// Start) are immutable after creation; Attrs/Events/Dur settle when End is
// called, after which the span is immutable.
type Span struct {
	TraceID TraceID
	ID      SpanID
	Parent  SpanID
	Name    string
	Start   time.Time
	Dur     time.Duration
	Attrs   []Attr
	Events  []Event

	tracer *Tracer
	ended  bool
	// eventAttrs is the chunk every event's Attrs are carved from, each
	// capped at its own length so none can grow into the next. A full
	// chunk is replaced, never regrown: carved slices keep theirs.
	eventAttrs []Attr
}

// firstEvents is a span's first Events capacity: a mission span records a
// decide and a step event per epoch, so spans that have one event usually
// get many. eventAttrChunk is the size of each attribute chunk. Chunks
// stay small and do not double, because a finished span keeps its last
// chunk's unused tail for as long as a sink such as the Ring holds it.
const (
	firstEvents    = 16
	eventAttrChunk = 32
)

// Enabled reports whether the span records anything. Hot paths guard
// attribute construction with it.
func (s *Span) Enabled() bool { return s != nil }

// SetAttrs appends attributes to the span. No-op on nil or ended spans.
func (s *Span) SetAttrs(attrs ...Attr) {
	if s == nil || s.ended {
		return
	}
	s.Attrs = append(s.Attrs, attrs...)
}

// Event appends a typed event stamped with the current offset. No-op on nil
// or ended spans.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil || s.ended {
		return
	}
	e := Event{Name: name, Offset: time.Since(s.Start)}
	if len(attrs) > 0 {
		if cap(s.eventAttrs)-len(s.eventAttrs) < len(attrs) {
			s.eventAttrs = make([]Attr, 0, max(eventAttrChunk, len(attrs)))
		}
		start := len(s.eventAttrs)
		s.eventAttrs = append(s.eventAttrs, attrs...)
		e.Attrs = s.eventAttrs[start:len(s.eventAttrs):len(s.eventAttrs)]
	}
	if s.Events == nil {
		s.Events = make([]Event, 0, firstEvents)
	}
	s.Events = append(s.Events, e)
}

// EventsNamed returns the span's events with the given name, in order.
func (s *Span) EventsNamed(name string) []Event {
	if s == nil {
		return nil
	}
	var out []Event
	for _, e := range s.Events {
		if e.Name == name {
			out = append(out, e)
		}
	}
	return out
}

// Child starts a sub-span sharing the trace ID. Returns nil on a nil
// receiver, so call chains degrade to no-ops when tracing is off. Safe to
// call concurrently from sibling goroutines.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.tracer.start(s.TraceID, s.ID, name, attrs)
}

// End stamps the duration and hands the completed span to the tracer's
// sinks. Safe to call twice (the second call is a no-op) and on nil.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.Dur = time.Since(s.Start)
	s.ended = true
	s.tracer.emit(s)
}

// Sink consumes completed spans. Emit is called from whatever goroutine
// ended the span; implementations must be safe for concurrent use.
type Sink interface {
	Emit(s *Span)
}

// Tracer mints spans and fans completed ones out to its sinks. A nil
// *Tracer is the disabled tracer: Start returns nil and everything
// downstream no-ops.
type Tracer struct {
	sinks   []Sink
	spanIDs atomic.Uint64
	traces  atomic.Uint64
}

// New builds a tracer over the given sinks.
func New(sinks ...Sink) *Tracer {
	return &Tracer{sinks: sinks}
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// Start begins a new root span under a fresh trace ID. Returns nil on a nil
// receiver.
func (t *Tracer) Start(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	return t.start(TraceID(t.traces.Add(1)), 0, name, attrs)
}

// StartTrace begins a root span under an explicit trace ID (e.g. one parsed
// from an incoming request header). Returns nil on a nil receiver.
func (t *Tracer) StartTrace(id TraceID, name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	return t.start(id, 0, name, attrs)
}

func (t *Tracer) start(trace TraceID, parent SpanID, name string, attrs []Attr) *Span {
	s := &Span{
		TraceID: trace,
		ID:      SpanID(t.spanIDs.Add(1)),
		Parent:  parent,
		Name:    name,
		Start:   time.Now(),
		tracer:  t,
	}
	s.Attrs = append(s.Attrs, attrs...)
	return s
}

func (t *Tracer) emit(s *Span) {
	if t == nil {
		return
	}
	for _, sink := range t.sinks {
		sink.Emit(s)
	}
}

// --- Context propagation -----------------------------------------------------

type ctxKey struct{}

// ContextWithSpan returns a context carrying the span (e.g. an HTTP request
// span that planner spans should parent under).
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

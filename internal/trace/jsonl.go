package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// spanJSON is the wire form of one span: one JSON object per line. Times
// are unix nanoseconds.
type spanJSON struct {
	Trace  string         `json:"trace"`
	Span   uint64         `json:"span"`
	Parent uint64         `json:"parent,omitempty"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"`
	Dur    int64          `json:"dur_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

func attrsToMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Any()
	}
	return m
}

// attrsFromMap inverts attrsToMap. JSON numbers come back as float64 — the
// int/float distinction is not preserved on the wire, which is fine for a
// diagnostic record (re-marshaling yields identical bytes either way).
// Keys are sorted so a decoded span is deterministic.
func attrsFromMap(m map[string]any) []Attr {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	attrs := make([]Attr, 0, len(m))
	for _, k := range keys {
		switch v := m[k].(type) {
		case string:
			attrs = append(attrs, String(k, v))
		case bool:
			attrs = append(attrs, Bool(k, v))
		case float64:
			attrs = append(attrs, Float(k, v))
		default:
			attrs = append(attrs, String(k, fmt.Sprint(v)))
		}
	}
	return attrs
}

func (s *Span) toWire() spanJSON {
	return spanJSON{
		Trace:  s.TraceID.String(),
		Span:   uint64(s.ID),
		Parent: uint64(s.Parent),
		Name:   s.Name,
		Start:  s.Start.UnixNano(),
		Dur:    int64(s.Dur),
		Attrs:  attrsToMap(s.Attrs),
	}
}

func spanFromWire(w spanJSON) (*Span, error) {
	id, err := ParseTraceID(w.Trace)
	if err != nil {
		return nil, err
	}
	return &Span{
		TraceID: id,
		ID:      SpanID(w.Span),
		Parent:  SpanID(w.Parent),
		Name:    w.Name,
		Start:   time.Unix(0, w.Start).UTC(),
		Dur:     time.Duration(w.Dur),
		Attrs:   attrsFromMap(w.Attrs),
		ended:   true,
	}, nil
}

// MarshalJSON renders the span in its wire form.
func (s *Span) MarshalJSON() ([]byte, error) { return json.Marshal(s.toWire()) }

// UnmarshalJSON parses the wire form.
func (s *Span) UnmarshalJSON(data []byte) error {
	var w spanJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	parsed, err := spanFromWire(w)
	if err != nil {
		return err
	}
	*s = *parsed
	return nil
}

// JSONLWriter is a Sink streaming one span per line. Emit is
// mutex-serialized; buffered output is flushed by Flush (call it before
// reading the file — cmd/experiments defers one around the suite).
type JSONLWriter struct {
	mu  sync.Mutex
	buf *bufio.Writer
	err error
}

// NewJSONLWriter wraps w in a buffered JSONL span sink.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	return &JSONLWriter{buf: bufio.NewWriterSize(w, 64<<10)}
}

// Emit implements Sink. The first write error sticks and suppresses
// subsequent writes; Flush reports it.
func (jw *JSONLWriter) Emit(s *Span) {
	data, err := json.Marshal(s.toWire())
	jw.mu.Lock()
	defer jw.mu.Unlock()
	if jw.err != nil {
		return
	}
	if err != nil {
		jw.err = err
		return
	}
	if _, err := jw.buf.Write(data); err != nil {
		jw.err = err
		return
	}
	jw.err = jw.buf.WriteByte('\n')
}

// Flush drains the buffer and returns the first error seen.
func (jw *JSONLWriter) Flush() error {
	jw.mu.Lock()
	defer jw.mu.Unlock()
	if err := jw.buf.Flush(); jw.err == nil {
		jw.err = err
	}
	return jw.err
}

// ReadJSONL parses spans written by JSONLWriter, in file order.
func ReadJSONL(r io.Reader) ([]*Span, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var out []*Span
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var w spanJSON
		if err := json.Unmarshal(sc.Bytes(), &w); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		s, err := spanFromWire(w)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	return out, nil
}

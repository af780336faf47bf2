package trace

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/routeplanning/mamorl/internal/obs"
)

func TestTraceIDRoundTrip(t *testing.T) {
	id := TraceID(0xdeadbeef12345678)
	s := id.String()
	if len(s) != 16 {
		t.Fatalf("String() = %q, want 16 hex digits", s)
	}
	back, err := ParseTraceID(s)
	if err != nil {
		t.Fatalf("ParseTraceID(%q): %v", s, err)
	}
	if back != id {
		t.Fatalf("round trip: got %v want %v", back, id)
	}
	if _, err := ParseTraceID("not-hex"); err == nil {
		t.Fatal("ParseTraceID accepted garbage")
	}
}

func TestAttrAccessors(t *testing.T) {
	cases := []struct {
		a    Attr
		kind Kind
		any  any
	}{
		{String("k", "v"), KindString, "v"},
		{Int("k", 42), KindInt, int64(42)},
		{Float("k", 1.5), KindFloat, 1.5},
		{Bool("k", true), KindBool, true},
		{Bool("k", false), KindBool, false},
	}
	for _, c := range cases {
		if c.a.Kind() != c.kind {
			t.Errorf("Kind() = %v want %v", c.a.Kind(), c.kind)
		}
		if c.a.Any() != c.any {
			t.Errorf("Any() = %v want %v", c.a.Any(), c.any)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	sp := tr.Start("root", String("k", "v"))
	if sp != nil {
		t.Fatal("nil tracer minted a span")
	}
	if sp.Enabled() {
		t.Fatal("nil span reports enabled")
	}
	// All of these must be no-ops, not panics.
	sp.SetAttrs(Int("a", 1))
	sp.End()
	sp.End()
	if c := sp.Child("child"); c != nil {
		t.Fatal("nil span minted a child")
	}
}

// TestNilSpanAllocs pins the disabled-tracing fast path: guarded emission
// against a nil span must not allocate.
func TestNilSpanAllocs(t *testing.T) {
	var sp *Span
	avg := testing.AllocsPerRun(1000, func() {
		if sp.Enabled() {
			sp.SetAttrs(Int("steps", 3))
		}
		sp.End()
	})
	if avg != 0 {
		t.Fatalf("disabled-tracing path allocates %.1f/op, want 0", avg)
	}
}

func TestSpanLifecycle(t *testing.T) {
	ring := NewRing(16)
	tr := New(ring)
	root := tr.Start("mission", String("planner", "mamorl"))
	if !root.Enabled() {
		t.Fatal("live span reports disabled")
	}
	child := root.Child("decide")
	if child.TraceID != root.TraceID {
		t.Fatalf("child trace %v != root trace %v", child.TraceID, root.TraceID)
	}
	if child.Parent != root.ID {
		t.Fatalf("child parent %v != root id %v", child.Parent, root.ID)
	}
	child.End()
	root.SetAttrs(Int("epochs", 2))
	root.End()

	if root.Dur < 0 {
		t.Fatalf("negative duration %v", root.Dur)
	}
	// End is idempotent and post-End mutation is ignored.
	durBefore := root.Dur
	root.End()
	root.SetAttrs(Int("late", 1))
	if root.Dur != durBefore {
		t.Fatal("span mutated after End")
	}
	if a, ok := GetAttr(root.Attrs, "late"); ok {
		t.Fatalf("attr added after End: %v", a)
	}
	if a, ok := GetAttr(root.Attrs, "epochs"); !ok || a.IntVal() != 2 {
		t.Fatalf("epochs attr = %v, %v", a, ok)
	}

	got := ring.Snapshot()
	if len(got) != 2 {
		t.Fatalf("ring holds %d spans, want 2", len(got))
	}
	// Child ended first, so it is oldest.
	if got[0].Name != "decide" || got[1].Name != "mission" {
		t.Fatalf("ring order: %q, %q", got[0].Name, got[1].Name)
	}
}

func TestRingWraparound(t *testing.T) {
	ring := NewRing(16)
	tr := New(ring)
	for i := 0; i < 40; i++ {
		sp := tr.Start("s", Int("i", int64(i)))
		sp.End()
	}
	if ring.Len() != 16 {
		t.Fatalf("Len() = %d want 16", ring.Len())
	}
	snap := ring.Snapshot()
	if len(snap) != 16 {
		t.Fatalf("Snapshot() = %d spans, want 16", len(snap))
	}
	// Oldest-first: the surviving spans are i = 24..39.
	for k, s := range snap {
		a, ok := GetAttr(s.Attrs, "i")
		if !ok || a.IntVal() != int64(24+k) {
			t.Fatalf("snap[%d] i = %v (ok=%v), want %d", k, a.IntVal(), ok, 24+k)
		}
	}
}

// TestRingCapacityRounding: a ring keeps its capacity rounded up to a power
// of two, at least 16, so once overfilled it holds that many spans.
func TestRingCapacityRounding(t *testing.T) {
	for _, c := range []struct{ in, want int }{{0, 16}, {1, 16}, {16, 16}, {17, 32}, {100, 128}} {
		ring := NewRing(c.in)
		tr := New(ring)
		for range 2 * c.want {
			tr.Start("s").End()
		}
		if got := ring.Len(); got != c.want {
			t.Errorf("NewRing(%d) holds %d spans, want %d", c.in, got, c.want)
		}
	}
}

// TestRingConcurrentEmit exercises the lock-free publish under the race
// detector: concurrent writers plus a snapshotting reader.
func TestRingConcurrentEmit(t *testing.T) {
	ring := NewRing(64)
	tr := New(ring)
	const writers, perWriter = 8, 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, s := range ring.Snapshot() {
				if s.Name != "w" {
					t.Errorf("snapshot saw foreign span %q", s.Name)
					return
				}
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				sp := tr.Start("w", Int("writer", int64(w)), Int("i", int64(i)))
				sp.SetAttrs(Bool("done", true))
				sp.End()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// Writers finish quickly; release the reader once the counter shows all
	// emits have landed.
	for ring.pos.Load() < writers*perWriter {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-done
	if ring.Len() != 64 {
		t.Fatalf("Len() = %d want 64", ring.Len())
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	jw := NewJSONLWriter(&buf)
	tr := New(jw)

	root := tr.Start("mission", String("planner", "exact"), Int("assets", 2), Float("p_comm", 0.9), Bool("found", true))
	root.SetAttrs(String("request", `{"grid":"g","seed":1}`))
	child := root.Child("decide", Int("epoch", 0))
	child.End()
	root.End()
	if err := jw.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	spans, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if len(spans) != 2 {
		t.Fatalf("read %d spans, want 2", len(spans))
	}
	// File order is end order: child first.
	dec, mis := spans[0], spans[1]
	if dec.Name != "decide" || mis.Name != "mission" {
		t.Fatalf("names: %q, %q", dec.Name, mis.Name)
	}
	if dec.TraceID != mis.TraceID || dec.Parent != mis.ID {
		t.Fatalf("lineage lost: trace %v/%v parent %v id %v", dec.TraceID, mis.TraceID, dec.Parent, mis.ID)
	}
	if a, ok := GetAttr(mis.Attrs, "planner"); !ok || a.Str() != "exact" {
		t.Fatalf("planner attr: %v %v", a, ok)
	}
	if a, ok := GetAttr(mis.Attrs, "found"); !ok || !a.BoolVal() {
		t.Fatalf("found attr: %v %v", a, ok)
	}
	// Ints round-trip as floats on the wire; value is preserved.
	if a, ok := GetAttr(mis.Attrs, "assets"); !ok || a.FloatVal() != 2 {
		t.Fatalf("assets attr: %v %v", a, ok)
	}
	if a, ok := GetAttr(mis.Attrs, "request"); !ok || a.Str() != `{"grid":"g","seed":1}` {
		t.Fatalf("request attr: %v %v", a, ok)
	}

	// Re-marshal is byte-identical: the wire form is a fixed point.
	var buf2 bytes.Buffer
	jw2 := NewJSONLWriter(&buf2)
	jw2.Emit(spans[0])
	jw2.Emit(spans[1])
	if err := jw2.Flush(); err != nil {
		t.Fatalf("Flush 2: %v", err)
	}
	if buf.String() != buf2.String() {
		t.Fatalf("re-marshal differs:\n%s\nvs\n%s", buf.String(), buf2.String())
	}
}

func TestHistogramSink(t *testing.T) {
	reg := obs.New()
	tr := New(NewHistogramSink(reg))
	sp := tr.Start("run")
	sp.End()
	sp2 := tr.Start("mission")
	sp2.End()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE trace_span_seconds histogram",
		`trace_span_seconds_count{span="run"} 1`,
		`trace_span_seconds_count{span="mission"} 1`,
		// The completion counter is the span-rate series: the time-series
		// sampler turns it into spans/second for the dashboard.
		"# TYPE trace_spans_total counter",
		`trace_spans_total{span="run"} 1`,
		`trace_spans_total{span="mission"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if got := reg.CounterValue("trace_spans_total", "span", "run"); got != 1 {
		t.Errorf("trace_spans_total{span=run} = %d, want 1", got)
	}
}

func TestContextPropagation(t *testing.T) {
	tr := New()
	sp := tr.Start("req")
	base := context.Background()
	ctx := ContextWithSpan(base, sp)
	if got := SpanFromContext(ctx); got != sp {
		t.Fatalf("SpanFromContext = %v want %v", got, sp)
	}
	if got := SpanFromContext(base); got != nil {
		t.Fatalf("empty context yields span %v", got)
	}
	// Nil span leaves the context untouched.
	if ctx2 := ContextWithSpan(base, nil); SpanFromContext(ctx2) != nil {
		t.Fatal("nil span stored in context")
	}
}

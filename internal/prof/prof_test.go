package prof

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/routeplanning/mamorl/internal/obs"
)

// testOptions returns options with a tiny real CPU window so captures finish
// fast, and a fixed clock for deterministic timestamps.
func testOptions() Options {
	return Options{
		Interval: time.Hour, // schedule driven manually in tests
		Window:   20 * time.Millisecond,
		Now:      func() time.Time { return time.Unix(1700000000, 0).UTC() },
	}
}

// burn gives the CPU profiler something to sample while a window is open.
func burn(stop <-chan struct{}) {
	x := 1.0
	for {
		select {
		case <-stop:
			return
		default:
			for i := 0; i < 1000; i++ {
				x = x*1.000001 + 1
			}
		}
	}
}

func TestCaptureNow(t *testing.T) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); burn(stop) }()
	defer func() { close(stop); wg.Wait() }()

	reg := obs.New()
	p := New(Options{Interval: time.Hour, Window: 20 * time.Millisecond, Metrics: reg})
	c := p.CaptureNow(context.Background(), ReasonManual)
	if c == nil || c.State != "done" {
		t.Fatalf("capture = %+v", c)
	}
	if c.ID == "" || c.Reason != ReasonManual {
		t.Fatalf("capture id/reason = %q/%q", c.ID, c.Reason)
	}
	kinds := map[string]Table{}
	for _, tab := range c.Tables {
		kinds[tab.Kind] = tab
	}
	// The heap table is the reliability anchor: a test process always has
	// live allocations, so a capture must never come back empty.
	heap := kinds["heap"]
	if heap.Total <= 0 || len(heap.Funcs) == 0 {
		t.Fatalf("heap table empty: %+v", heap)
	}
	if heap.Type != "inuse_space" && heap.Type != "alloc_space" {
		t.Fatalf("heap table folded %q", heap.Type)
	}
	if _, ok := kinds["goroutine"]; !ok {
		t.Fatalf("no goroutine table in %+v", kinds)
	}
	if _, ok := kinds["cpu"]; !ok {
		t.Fatalf("no cpu table in %+v", kinds)
	}
	if got := reg.CounterValue("prof_captures_total", "trigger", "manual"); got != 1 {
		t.Fatalf("prof_captures_total{trigger=manual} = %d", got)
	}
	if got := reg.GaugeValue("prof_captures_retained"); got != 1 {
		t.Fatalf("prof_captures_retained = %v", got)
	}

	// The capture resolves through Get and the raw CPU payload is retained.
	got, ok := p.Get(c.ID)
	if !ok || got.ID != c.ID {
		t.Fatalf("Get(%q) = %+v, %v", c.ID, got, ok)
	}
	raw, ok := p.Raw(c.ID, "heap")
	if !ok || len(raw) == 0 {
		t.Fatalf("Raw heap missing")
	}
	if _, err := Parse(raw); err != nil {
		t.Fatalf("retained raw does not parse: %v", err)
	}
}

func TestScheduledCapturesWithFakeTicker(t *testing.T) {
	tick := make(chan time.Time)
	stopped := false
	opts := testOptions()
	opts.Ticker = func(d time.Duration) (<-chan time.Time, func()) {
		if d != time.Hour {
			t.Errorf("ticker interval = %v, want 1h", d)
		}
		return tick, func() { stopped = true }
	}
	p := New(opts)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); p.Run(ctx) }()

	for i := 0; i < 2; i++ {
		tick <- time.Time{}
	}
	// The second tick is only consumed once the first capture finished, so
	// two sends guarantee at least one completed scheduled capture.
	deadline := time.Now().Add(5 * time.Second)
	for {
		caps := p.Snapshot()
		if len(caps) >= 1 && caps[len(caps)-1].State != "pending" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no finished capture: %+v", caps)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-done
	if !stopped {
		t.Error("Run did not stop its ticker")
	}
	caps := p.Snapshot()
	if caps[len(caps)-1].Reason != ReasonScheduled {
		t.Fatalf("reason = %q", caps[len(caps)-1].Reason)
	}
	if caps[len(caps)-1].Start != time.Unix(1700000000, 0).UTC() {
		t.Fatalf("start = %v", caps[len(caps)-1].Start)
	}
}

func TestTriggerCaptureDedupsInflight(t *testing.T) {
	p := New(Options{Interval: time.Hour, Window: 200 * time.Millisecond})
	id1 := p.TriggerCapture("slo:plan-latency:breach")
	id2 := p.TriggerCapture("slo:plan-latency:breach")
	if id1 == "" || id1 != id2 {
		t.Fatalf("in-flight dedup: %q vs %q", id1, id2)
	}
	// The pending capture is resolvable immediately, before the window ends.
	c, ok := p.Get(id1)
	if !ok || c.State != "pending" {
		t.Fatalf("pending capture = %+v, %v", c, ok)
	}
	waitDone(t, p, id1)
	id3 := p.TriggerCapture(ReasonManual)
	if id3 == id1 {
		t.Fatalf("new trigger reused id %q", id3)
	}
	waitDone(t, p, id3)
}

func waitDone(t *testing.T, p *Profiler, id string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, ok := p.Get(id)
		if ok && c.State != "pending" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("capture %q never finished", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRingRetention(t *testing.T) {
	p := New(Options{Interval: time.Hour, Window: 5 * time.Millisecond, MaxCaptures: 2})
	var ids []string
	for i := 0; i < 4; i++ {
		c := p.CaptureNow(context.Background(), ReasonManual)
		ids = append(ids, c.ID)
	}
	caps := p.Snapshot()
	if len(caps) != 2 {
		t.Fatalf("retained %d captures, want 2", len(caps))
	}
	if caps[0].ID != ids[3] || caps[1].ID != ids[2] {
		t.Fatalf("retained %q/%q, want newest-first %q/%q", caps[0].ID, caps[1].ID, ids[3], ids[2])
	}
	if _, ok := p.Get(ids[0]); ok {
		t.Error("evicted capture still resolvable")
	}
}

func TestRawRetentionShedsOldestFirst(t *testing.T) {
	// A 1-byte cap: every capture's raw payloads exceed it, so after the
	// second capture the first must have shed raw bytes while keeping
	// tables (the in-flight capture itself is never shed).
	p := New(Options{Interval: time.Hour, Window: 5 * time.Millisecond, MaxRawBytes: 1})
	c1 := p.CaptureNow(context.Background(), ReasonManual)
	c2 := p.CaptureNow(context.Background(), ReasonManual)
	if _, ok := p.Raw(c1.ID, "heap"); ok {
		t.Error("oldest capture kept raw bytes past the budget")
	}
	got, ok := p.Get(c1.ID)
	if !ok || len(got.Tables) == 0 {
		t.Fatalf("shedding raw dropped tables: %+v, %v", got, ok)
	}
	if _, ok := p.Raw(c2.ID, "heap"); !ok {
		t.Error("newest capture lost its raw bytes")
	}
}

// TestDisabledProfilerZeroCost pins the nil fast path at 0 allocs/op — the
// same contract trace.Tracer and limits.Budget keep when disabled.
func TestDisabledProfilerZeroCost(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts inflated under the race detector")
	}
	var p *Profiler
	ctx := context.Background()
	allocs := testing.AllocsPerRun(256, func() {
		if p.Enabled() {
			t.Error("nil profiler reports enabled")
		}
		if id := p.TriggerCapture(ReasonManual); id != "" {
			t.Errorf("nil TriggerCapture = %q", id)
		}
		if c := p.CaptureNow(ctx, ReasonManual); c != nil {
			t.Error("nil CaptureNow returned a capture")
		}
		if s := p.Snapshot(); s != nil {
			t.Error("nil Snapshot returned data")
		}
		if _, ok := p.Get("c000001"); ok {
			t.Error("nil Get found a capture")
		}
		if _, ok := p.Raw("c000001", "cpu"); ok {
			t.Error("nil Raw found bytes")
		}
		if d := p.Window(); d != 0 {
			t.Errorf("nil Window = %v", d)
		}
		p.Run(ctx)
	})
	if allocs != 0 {
		t.Fatalf("disabled profiler allocated %.1f/op, want 0", allocs)
	}
}

// TestConcurrentTriggerAndRead exercises trigger/list/get under the race
// detector.
func TestConcurrentTriggerAndRead(t *testing.T) {
	p := New(Options{Interval: time.Hour, Window: 2 * time.Millisecond, MaxCaptures: 4, MaxRawBytes: 64 << 10})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if g%2 == 0 {
					id := p.TriggerCapture(fmt.Sprintf("slo:test-%d:warn", g))
					if id == "" {
						t.Error("enabled TriggerCapture returned empty id")
						return
					}
					// t.Fatal is test-goroutine-only, so poll inline.
					deadline := time.Now().Add(5 * time.Second)
					for {
						c, ok := p.Get(id)
						if ok && c.State != "pending" {
							break
						}
						if !ok {
							break // evicted by a concurrent trigger
						}
						if time.Now().After(deadline) {
							t.Errorf("capture %q never finished", id)
							return
						}
						time.Sleep(2 * time.Millisecond)
					}
				} else {
					for _, s := range p.Snapshot() {
						c, _ := p.Get(s.ID)
						_, _ = p.Raw(c.ID, "cpu")
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if caps := p.Snapshot(); len(caps) == 0 || len(caps) > 4 {
		t.Fatalf("retained %d captures", len(caps))
	}
}

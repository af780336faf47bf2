package prof

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"runtime/pprof"
	"sync"
	"time"

	"github.com/routeplanning/mamorl/internal/obs"
)

// Capture kinds collected on every capture. CPU is a windowed profile; the
// rest are instantaneous snapshots (mutex/block are empty unless the runtime
// rates are armed, e.g. via tmplard -mutex-profile-fraction).
var captureKinds = []string{"cpu", "heap", "goroutine", "mutex", "block"}

// Capture reasons.
const (
	ReasonScheduled = "scheduled"
	ReasonManual    = "manual"
	// SLO-triggered captures use "slo:<name>:<state>" via TriggerCapture.
)

// Options configures a Profiler. The zero value is usable: 5s CPU windows
// every 60s, 32 retained captures, top 30 functions per table.
type Options struct {
	// Interval is the scheduled capture cadence.
	Interval time.Duration
	// Window is the CPU profile length per capture; clamped below Interval.
	Window time.Duration
	// MaxCaptures bounds the capture ring.
	MaxCaptures int
	// TopN bounds each hot-function table (union of top-N by flat and cum).
	TopN int
	// MaxRawBytes bounds total retained raw pprof bytes across the ring;
	// older captures drop their raw payloads first (tables are kept).
	MaxRawBytes int
	// Metrics receives prof_* counters/gauges when non-nil.
	Metrics *obs.Registry
	// Logger receives one record per finished capture when non-nil.
	Logger *slog.Logger
	// Now and Ticker inject fake clocks for tests.
	Now    func() time.Time
	Ticker func(time.Duration) (<-chan time.Time, func())
}

func (o Options) withDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = 60 * time.Second
	}
	if o.Window <= 0 {
		o.Window = 5 * time.Second
	}
	if o.Window >= o.Interval {
		o.Window = o.Interval / 2
	}
	if o.MaxCaptures <= 0 {
		o.MaxCaptures = 32
	}
	if o.TopN <= 0 {
		o.TopN = 30
	}
	if o.MaxRawBytes <= 0 {
		o.MaxRawBytes = 16 << 20
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.Ticker == nil {
		o.Ticker = func(d time.Duration) (<-chan time.Time, func()) {
			t := time.NewTicker(d)
			return t.C, t.Stop
		}
	}
	return o
}

// Capture is one profiling capture: a CPU window plus snapshots, folded into
// hot-function tables. Raw profile bytes are retained (bounded) for download
// into `go tool pprof`.
type Capture struct {
	ID            string    `json:"id"`
	Reason        string    `json:"reason"`
	Start         time.Time `json:"start"`
	WindowSeconds float64   `json:"window_seconds"`
	// State is "pending" while the CPU window is still open, then "done" or
	// "failed".
	State  string  `json:"state"`
	Error  string  `json:"error,omitempty"`
	Tables []Table `json:"tables,omitempty"`

	raw map[string][]byte
}

// TableSummary is a Table without its rows, for capture listings.
type TableSummary struct {
	Kind    string `json:"kind"`
	Unit    string `json:"unit"`
	Samples int    `json:"samples"`
	Total   int64  `json:"total"`
}

// CaptureSummary is the /debug/prof listing entry for one capture.
type CaptureSummary struct {
	ID            string         `json:"id"`
	Reason        string         `json:"reason"`
	Start         time.Time      `json:"start"`
	WindowSeconds float64        `json:"window_seconds"`
	State         string         `json:"state"`
	Error         string         `json:"error,omitempty"`
	Profiles      []TableSummary `json:"profiles,omitempty"`
}

// Profiler runs the continuous-profiling loop. A nil *Profiler is a valid
// disabled profiler: every method no-ops without allocating, so callers wire
// it unconditionally (same pattern as trace.Tracer and limits.Budget).
type Profiler struct {
	opts Options

	mu       sync.Mutex
	captures []*Capture // oldest first
	seq      int
	inflight *Capture
	rawBytes int
}

// New returns an enabled profiler. Run starts the schedule; TriggerCapture
// and CaptureNow work without Run.
func New(opts Options) *Profiler {
	return &Profiler{opts: opts.withDefaults()}
}

// Enabled reports whether the profiler is live.
func (p *Profiler) Enabled() bool { return p != nil }

// Window returns the configured CPU window (zero when disabled).
func (p *Profiler) Window() time.Duration {
	if p == nil {
		return 0
	}
	return p.opts.Window
}

// Run takes scheduled captures every Interval until ctx is done. A tick that
// lands while a capture is already in flight is skipped.
func (p *Profiler) Run(ctx context.Context) {
	if p == nil {
		return
	}
	tick, stop := p.opts.Ticker(p.opts.Interval)
	defer stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick:
			if c, started := p.begin(ReasonScheduled); started {
				p.collect(ctx, c)
			}
		}
	}
}

// TriggerCapture starts an immediate out-of-schedule capture and returns its
// ID without waiting for the window to close — the pending capture is
// resolvable through Get at once. When a capture is already in flight its ID
// is returned instead (runtime/pprof allows one CPU profile at a time).
// Returns "" on a disabled profiler.
func (p *Profiler) TriggerCapture(reason string) string {
	if p == nil {
		return ""
	}
	c, started := p.begin(reason)
	if started {
		go p.collect(context.Background(), c)
	}
	return c.ID
}

// CaptureNow runs one full capture synchronously and returns it. If a
// capture is already in flight, that capture is returned instead (it may
// still be pending). Returns nil on a disabled profiler.
func (p *Profiler) CaptureNow(ctx context.Context, reason string) *Capture {
	if p == nil {
		return nil
	}
	c, started := p.begin(reason)
	if started {
		p.collect(ctx, c)
	}
	return c
}

// begin registers a pending capture, or returns the in-flight one.
func (p *Profiler) begin(reason string) (c *Capture, started bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.inflight != nil {
		return p.inflight, false
	}
	p.seq++
	c = &Capture{
		ID:            fmt.Sprintf("c%06d", p.seq),
		Reason:        reason,
		Start:         p.opts.Now(),
		WindowSeconds: p.opts.Window.Seconds(),
		State:         "pending",
	}
	p.inflight = c
	p.captures = append(p.captures, c)
	if len(p.captures) > p.opts.MaxCaptures {
		drop := p.captures[0]
		p.rawBytes -= rawSize(drop)
		p.captures = p.captures[1:]
	}
	return c, true
}

// collect runs the capture body: CPU window, snapshots, decode, fold.
func (p *Profiler) collect(ctx context.Context, c *Capture) {
	raw := make(map[string][]byte, len(captureKinds))
	var cpuErr error

	var cpuBuf bytes.Buffer
	if err := pprof.StartCPUProfile(&cpuBuf); err != nil {
		// Another CPU profile is active (e.g. an operator-driven -pprof
		// session); keep the snapshot kinds rather than failing the capture.
		cpuErr = err
	} else {
		timer := time.NewTimer(p.opts.Window)
		select {
		case <-ctx.Done():
		case <-timer.C:
		}
		timer.Stop()
		pprof.StopCPUProfile()
		raw["cpu"] = cpuBuf.Bytes()
	}

	for _, kind := range captureKinds[1:] {
		prof := pprof.Lookup(kind)
		if prof == nil {
			continue
		}
		var buf bytes.Buffer
		if err := prof.WriteTo(&buf, 0); err == nil {
			raw[kind] = buf.Bytes()
		}
	}

	var tables []Table
	var decodeErr error
	for _, kind := range captureKinds {
		data, ok := raw[kind]
		if !ok {
			continue
		}
		parsed, err := Parse(data)
		if err != nil {
			decodeErr = fmt.Errorf("%s: %w", kind, err)
			delete(raw, kind)
			continue
		}
		tables = append(tables, Fold(parsed, kind, p.opts.TopN))
	}

	p.mu.Lock()
	c.Tables = tables
	c.raw = raw
	switch {
	case len(tables) > 0:
		c.State = "done"
	default:
		c.State = "failed"
	}
	if cpuErr != nil {
		c.Error = "cpu: " + cpuErr.Error()
	} else if decodeErr != nil {
		c.Error = decodeErr.Error()
	}
	if c.State == "failed" && c.Error == "" {
		c.Error = "no profiles collected"
	}
	p.rawBytes += rawSize(c)
	// Shed raw payloads oldest-first until under budget; tables stay.
	for i := 0; i < len(p.captures) && p.rawBytes > p.opts.MaxRawBytes; i++ {
		old := p.captures[i]
		if old == c || old.raw == nil {
			continue
		}
		p.rawBytes -= rawSize(old)
		old.raw = nil
	}
	if p.inflight == c {
		p.inflight = nil
	}
	retained := len(p.captures)
	p.mu.Unlock()

	if m := p.opts.Metrics; m != nil {
		m.Counter("prof_captures_total", "trigger", triggerLabel(c.Reason)).Inc()
		if c.Error != "" {
			m.Counter("prof_capture_errors_total").Inc()
		}
		m.Gauge("prof_captures_retained").Set(float64(retained))
	}
	if l := p.opts.Logger; l != nil {
		l.LogAttrs(context.Background(), slog.LevelInfo, "profile capture",
			slog.String("capture", c.ID),
			slog.String("reason", c.Reason),
			slog.String("state", c.State),
			slog.Int("tables", len(tables)),
			slog.String("error", c.Error),
		)
	}
}

// triggerLabel keeps the metrics label cardinality bounded: slo-triggered
// reasons carry the SLO name in the capture record, not the label.
func triggerLabel(reason string) string {
	switch {
	case reason == ReasonScheduled, reason == ReasonManual:
		return reason
	case len(reason) >= 4 && reason[:4] == "slo:":
		return "slo"
	default:
		return "other"
	}
}

func rawSize(c *Capture) int {
	n := 0
	for _, b := range c.raw {
		n += len(b)
	}
	return n
}

// Snapshot lists retained captures newest-first, without table rows.
func (p *Profiler) Snapshot() []CaptureSummary {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]CaptureSummary, 0, len(p.captures))
	for i := len(p.captures) - 1; i >= 0; i-- {
		c := p.captures[i]
		s := CaptureSummary{
			ID:            c.ID,
			Reason:        c.Reason,
			Start:         c.Start,
			WindowSeconds: c.WindowSeconds,
			State:         c.State,
			Error:         c.Error,
		}
		for _, t := range c.Tables {
			s.Profiles = append(s.Profiles, TableSummary{Kind: t.Kind, Unit: t.Unit, Samples: t.Samples, Total: t.Total})
		}
		out = append(out, s)
	}
	return out
}

// Get returns a copy of one capture by ID. Tables are set once when the
// capture finishes, so sharing the slice with the caller is safe.
func (p *Profiler) Get(id string) (Capture, bool) {
	if p == nil {
		return Capture{}, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.captures {
		if c.ID == id {
			cp := *c
			cp.raw = nil
			return cp, true
		}
	}
	return Capture{}, false
}

// Raw returns the retained raw pprof bytes for one capture kind (gzipped
// protobuf, as runtime/pprof wrote them).
func (p *Profiler) Raw(id, kind string) ([]byte, bool) {
	if p == nil {
		return nil, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.captures {
		if c.ID == id {
			b, ok := c.raw[kind]
			return b, ok
		}
	}
	return nil, false
}

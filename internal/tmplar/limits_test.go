package tmplar

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/routeplanning/mamorl/internal/jobs"
	"github.com/routeplanning/mamorl/internal/limits"
)

// budgetJobServer is jobServer with budget ceilings and queue knobs.
func budgetJobServer(t *testing.T, opts Options, qopts jobs.Options) *Server {
	t.Helper()
	s := derivedServer(t, opts)
	if qopts.Metrics == nil {
		qopts.Metrics = s.opts.Metrics
	}
	s.jobs = jobs.New(qopts)
	t.Cleanup(s.Close)
	return s
}

func TestPlanOverBudgetReturns429(t *testing.T) {
	s := derivedServer(t, Options{MaxNodes: 1})
	rec := do(t, s.Handler(), "POST", "/api/plan", opsPlanRequest())
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("code = %d, want 429 (%s)", rec.Code, rec.Body.String())
	}
	var body struct {
		Error    string `json:"error"`
		Resource string `json:"resource"`
		Limit    int64  `json:"limit"`
		Used     int64  `json:"used"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("429 body is not well-formed JSON: %v (%s)", err, rec.Body.String())
	}
	if body.Resource != "nodes" {
		t.Fatalf("exhausted resource = %q, want nodes (%+v)", body.Resource, body)
	}
	if body.Limit != 1 || body.Used <= body.Limit {
		t.Fatalf("limit/used = %d/%d, want limit 1 and used beyond it", body.Limit, body.Used)
	}
	if !strings.Contains(body.Error, "nodes") {
		t.Fatalf("error %q does not name the resource", body.Error)
	}
	m := s.Metrics()
	if got := m.CounterValue("limits_exhausted_total", "resource", "nodes", "tenant", "ops-area"); got != 1 {
		t.Errorf("limits_exhausted_total{nodes,ops-area} = %d, want 1", got)
	}
	if got := m.CounterValue("limits_charged_total", "resource", "nodes", "tenant", "ops-area"); got == 0 {
		t.Error("limits_charged_total{nodes,ops-area} = 0, want the charged expansions")
	}
}

// TestPlanWithinBudgetIsByteIdentical pins the zero-perturbation contract
// at the serving layer: a request that stays within generous ceilings must
// produce the exact bytes an unbudgeted server produces.
func TestPlanWithinBudgetIsByteIdentical(t *testing.T) {
	free := derivedServer(t, Options{})
	capped := derivedServer(t, Options{MaxNodes: 1 << 40, MaxBytes: 1 << 50})

	req := opsPlanRequest()
	recFree := do(t, free.Handler(), "POST", "/api/plan", req)
	recCapped := do(t, capped.Handler(), "POST", "/api/plan", req)
	if recFree.Code != http.StatusOK || recCapped.Code != http.StatusOK {
		t.Fatalf("codes = %d/%d, want 200/200", recFree.Code, recCapped.Code)
	}
	if recFree.Body.String() != recCapped.Body.String() {
		t.Fatalf("budgeted response differs from unbudgeted:\n%s\nvs\n%s",
			recCapped.Body.String(), recFree.Body.String())
	}
	// The capped run still accounted its usage.
	if got := capped.Metrics().CounterValue("limits_charged_total", "resource", "nodes", "tenant", "ops-area"); got == 0 {
		t.Error("within-limit run charged nothing")
	}
}

// TestPlanChargesEveryResource: one approx plan under a generous budget
// charges every resource limits.Resources lists, so the budget carries no
// resource that a served plan never spends.
func TestPlanChargesEveryResource(t *testing.T) {
	s := derivedServer(t, Options{MaxNodes: 1 << 40, MaxBytes: 1 << 50})
	rec := do(t, s.Handler(), "POST", "/api/plan", opsPlanRequest())
	if rec.Code != http.StatusOK {
		t.Fatalf("code = %d, want 200 (%s)", rec.Code, rec.Body.String())
	}
	for _, r := range limits.Resources() {
		if got := s.Metrics().CounterValue("limits_charged_total", "resource", r.String(), "tenant", "ops-area"); got == 0 {
			t.Errorf("limits_charged_total{%s,ops-area} = 0, want the plan's usage", r)
		}
	}
}

func TestJobOverBudgetAnswers429(t *testing.T) {
	s := budgetJobServer(t, Options{MaxNodes: 1}, jobs.Options{Workers: 1, QueueDepth: 8})
	h := s.Handler()

	rec := do(t, h, "POST", "/api/jobs/plan", opsPlanRequest())
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body.String())
	}
	var v jobs.View
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}

	// Poll until terminal; a budget-failed job answers 429 with the job
	// view still in the body.
	deadline := time.Now().Add(10 * time.Second)
	for {
		rec = do(t, h, "GET", "/api/jobs/"+v.ID, nil)
		var cur jobs.View
		if err := json.Unmarshal(rec.Body.Bytes(), &cur); err != nil {
			t.Fatalf("decode job view: %v (%s)", err, rec.Body.String())
		}
		if cur.State.Terminal() {
			v = cur
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never settled: %+v", cur)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("terminal poll code = %d, want 429 (%s)", rec.Code, rec.Body.String())
	}
	if v.State != jobs.StateFailed || !strings.Contains(v.Error, "nodes") {
		t.Fatalf("view = %+v, want failed naming nodes", v)
	}
}

// slowWriter blocks every body write until released — a deterministic
// "slow SSE reader" that keeps the events handler stuck on its first frame
// while the job races through running→terminal behind it.
type slowWriter struct {
	*httptest.ResponseRecorder
	entered chan struct{} // closed when the first body write arrives
	allow   chan struct{} // closed to let all writes through
	once    sync.Once
}

func (w *slowWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.entered) })
	<-w.allow
	return w.ResponseRecorder.Write(p)
}

// TestJobEventsSlowReaderStillSeesTerminalFrame is the regression test for
// the lost-terminal-frame bug: with a one-frame watch buffer and a reader
// stalled on the first frame, the running frame fills the buffer and the
// terminal frame is dropped before the channel closes. The handler must
// re-read the final view on close and write it, so the stream still ends
// with the terminal state.
func TestJobEventsSlowReaderStillSeesTerminalFrame(t *testing.T) {
	s := budgetJobServer(t, Options{},
		jobs.Options{Workers: 1, QueueDepth: 8, WatchBuffer: 1})
	h := s.Handler()

	// Occupy the only worker so the target job sits queued while the
	// events stream attaches.
	gate := make(chan struct{})
	if _, err := s.jobs.Submit(jobs.Request{Fn: func(ctx context.Context) (any, error) {
		<-gate
		return nil, nil
	}}); err != nil {
		t.Fatal(err)
	}
	v, err := s.jobs.Submit(jobs.Request{Fn: func(ctx context.Context) (any, error) {
		return "payload", nil
	}})
	if err != nil {
		t.Fatal(err)
	}

	w := &slowWriter{
		ResponseRecorder: httptest.NewRecorder(),
		entered:          make(chan struct{}),
		allow:            make(chan struct{}),
	}
	req := httptest.NewRequest("GET", "/api/jobs/"+v.ID+"/events", nil)
	served := make(chan struct{})
	go func() {
		defer close(served)
		h.ServeHTTP(w, req)
	}()

	// The handler is now blocked writing the "queued" frame. Let the job
	// run to completion behind it: the terminal notification finds the
	// watch buffer full (the running frame sits in it) and is dropped.
	<-w.entered
	close(gate)
	deadline := time.Now().Add(5 * time.Second)
	for {
		cur, ok := s.jobs.Get(v.ID)
		if !ok {
			t.Fatal("job disappeared")
		}
		if cur.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never settled: %+v", cur)
		}
		time.Sleep(time.Millisecond)
	}
	close(w.allow)
	<-served

	var states []jobs.State
	sc := bufio.NewScanner(strings.NewReader(w.Body.String()))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev jobs.View
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("decode SSE frame: %v (%s)", err, line)
		}
		states = append(states, ev.State)
	}
	if len(states) == 0 {
		t.Fatalf("no SSE frames in %q", w.Body.String())
	}
	if last := states[len(states)-1]; last != jobs.StateDone {
		t.Fatalf("stream ended on %s (saw %v), want done despite the dropped frame", last, states)
	}
}

// TestJobEventsKeepAliveOnIdleStream reads the events stream of a job that
// sits running without transitions and expects keep-alive comment frames
// to arrive in the gap.
func TestJobEventsKeepAliveOnIdleStream(t *testing.T) {
	s := budgetJobServer(t, Options{SSEKeepAlive: 5 * time.Millisecond},
		jobs.Options{Workers: 1, QueueDepth: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	release := make(chan struct{})
	v, err := s.jobs.Submit(jobs.Request{Fn: func(ctx context.Context) (any, error) {
		<-release
		return nil, nil
	}})
	if err != nil {
		t.Fatal(err)
	}

	stream, err := http.Get(ts.URL + "/api/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()

	sawComment := false
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, ":") {
			sawComment = true
			close(release) // got the keep-alive; let the job finish
			break
		}
	}
	if !sawComment {
		t.Fatal("no keep-alive comment arrived on the idle stream")
	}
	// The stream still closes on the terminal frame after the comment.
	for sc.Scan() {
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
}

package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"
)

// sseFrame is one parsed Server-Sent Events frame.
type sseFrame struct {
	event string
	id    string
	data  string
}

// readFrames reads n SSE frames off the stream.
func readFrames(t *testing.T, r *bufio.Reader, n int) []sseFrame {
	t.Helper()
	var frames []sseFrame
	var cur sseFrame
	for len(frames) < n {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("stream read after %d frames: %v", len(frames), err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			frames = append(frames, cur)
			cur = sseFrame{}
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	return frames
}

func TestStreamHandler(t *testing.T) {
	reg := New()
	reg.Counter("req_total").Add(3)
	clk := newFakeClock()
	s := NewSampler(reg, SamplerOptions{Capacity: 16, Now: clk.Now})

	// Two samples of history before any client connects.
	clk.Advance(time.Second)
	s.Tick()
	clk.Advance(time.Second)
	s.Tick()

	srv := httptest.NewServer(StreamHandler(s, 0))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q, want text/event-stream", ct)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-cache" {
		t.Errorf("Cache-Control = %q, want no-cache", cc)
	}

	br := bufio.NewReader(resp.Body)
	frames := readFrames(t, br, 2) // the backlog
	for i, f := range frames {
		if f.event != "sample" {
			t.Errorf("frame %d event = %q, want sample", i, f.event)
		}
		var sm Sample
		if err := json.Unmarshal([]byte(f.data), &sm); err != nil {
			t.Fatalf("frame %d data not JSON: %v", i, err)
		}
		if f.id != "" && sm.Seq != uint64(i+1) {
			t.Errorf("frame %d Seq = %d, want %d", i, sm.Seq, i+1)
		}
		if sm.Series["req_total:total"] != 3 {
			t.Errorf("frame %d counter total = %v, want 3", i, sm.Series["req_total:total"])
		}
	}

	// A live sample taken after connecting must arrive on the same stream.
	reg.Counter("req_total").Inc()
	clk.Advance(time.Second)
	s.Tick()
	live := readFrames(t, br, 1)[0]
	var sm Sample
	if err := json.Unmarshal([]byte(live.data), &sm); err != nil {
		t.Fatal(err)
	}
	if sm.Seq != 3 || sm.Series["req_total:total"] != 4 {
		t.Errorf("live frame = seq %d total %v, want seq 3 total 4", sm.Seq, sm.Series["req_total:total"])
	}
	if sm.Series["req_total:rate"] != 1 {
		t.Errorf("live frame rate = %v, want 1/s", sm.Series["req_total:rate"])
	}

	// Client disconnect releases the handler and its subscription.
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		n := len(s.subs)
		s.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("subscription not released after disconnect (%d live)", n)
		}
		clk.Advance(time.Second)
		s.Tick() // wake the handler so it notices the dead context
		time.Sleep(10 * time.Millisecond)
	}
}

// noFlushWriter is a ResponseWriter without http.Flusher.
type noFlushWriter struct{ http.ResponseWriter }

func TestStreamHandlerRequiresFlusher(t *testing.T) {
	s := NewSampler(New(), SamplerOptions{})
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/debug/metrics/stream", nil)
	StreamHandler(s, 0).ServeHTTP(noFlushWriter{rec}, req)
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("code = %d, want 500 for a non-flushable writer", rec.Code)
	}
}

func TestDashHandler(t *testing.T) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/debug/dash", nil)
	DashHandler("/custom/stream", "", "", "").ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("code = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("Content-Type = %q, want text/html", ct)
	}
	body := rec.Body.String()
	if !strings.Contains(body, `new EventSource("/custom/stream")`) {
		t.Error("stream path not substituted into the page")
	}
	if strings.Contains(body, "__STREAM_PATH__") {
		t.Error("placeholder left in the page")
	}
	// Self-containment: the page must not fetch anything external — no
	// absolute URLs, no resource-loading tags or attributes. Relative <a
	// href> links (the SLO panel's exemplar → /debug/traces jump) are user
	// navigation, not asset fetches, so href is only banned on loading tags
	// (<link> is matched outright).
	if re := regexp.MustCompile(`https?://|<link|<img|<script src|src=|@import|url\(`); re.MatchString(body) {
		t.Errorf("dashboard references external assets: %v", re.FindString(body))
	}
	if strings.Contains(body, "__SLO_PATH__") {
		t.Error("SLO path placeholder left in the page")
	}
}

func TestDashHandlerSLOPanel(t *testing.T) {
	rec := httptest.NewRecorder()
	DashHandler("/s", "/debug/slo", "", "").ServeHTTP(rec, httptest.NewRequest("GET", "/debug/dash", nil))
	body := rec.Body.String()
	if !strings.Contains(body, `SLO_PATH = "/debug/slo"`) {
		t.Error("SLO path not substituted into the page")
	}
	if !strings.Contains(body, "/debug/traces?name=") {
		t.Error("SLO panel lacks the exemplar trace link")
	}
}

package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestObserveExemplarRetainsMostRecent(t *testing.T) {
	r := New()
	h := r.Histogram("lat", []float64{0.1, 1, 10})

	// Plain Observe never creates an exemplar.
	h.Observe(0.05)
	if ex := h.Exemplars(); ex != nil {
		t.Fatalf("plain Observe produced exemplars: %v", ex)
	}

	h.ObserveExemplar(0.5, 0xabc, 100) // bucket le=1
	h.ObserveExemplar(0.7, 0xdef, 200) // same bucket, newer — must win
	h.ObserveExemplar(5, 0x123, 300)   // bucket le=10
	h.ObserveExemplar(99, 0, 400)      // zero trace ID: counted, no exemplar

	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5 (exemplar observes must count like Observe)", got)
	}
	ex := h.Exemplars()
	if len(ex) != 4 { // len(bounds)+1
		t.Fatalf("exemplars len = %d, want 4", len(ex))
	}
	if ex[0] != nil {
		t.Errorf("bucket 0 should have no exemplar, got %+v", ex[0])
	}
	if ex[1] == nil || ex[1].Value != 0.7 || ex[1].TraceID != "0000000000000def" || ex[1].UnixNanos != 200 {
		t.Errorf("bucket le=1 exemplar = %+v, want value 0.7 trace ...def t=200", ex[1])
	}
	if ex[2] == nil || ex[2].TraceID != "0000000000000123" {
		t.Errorf("bucket le=10 exemplar = %+v", ex[2])
	}
	if ex[3] != nil {
		t.Errorf("overflow bucket should have no exemplar (trace ID was zero), got %+v", ex[3])
	}
}

func TestExemplarsInSnapshotJSON(t *testing.T) {
	r := New()
	h := r.Histogram("tmplar_plan_seconds", DefaultLatencyBuckets)
	h.ObserveExemplar(0.3, 0xfeed, 42)
	r.Histogram("quiet_seconds", DefaultLatencyBuckets).Observe(0.2)

	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	if !strings.Contains(s, `"trace_id":"000000000000feed"`) {
		t.Errorf("snapshot JSON lacks the exemplar trace ID: %s", s)
	}
	// The histogram that never saw ObserveExemplar must not grow an
	// exemplars field at all.
	var snap Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
	for _, hs := range snap.Histograms {
		if hs.Name == "quiet_seconds" && hs.Exemplars != nil {
			t.Errorf("quiet histogram exported exemplars: %+v", hs.Exemplars)
		}
		if hs.Name == "tmplar_plan_seconds" && len(hs.Exemplars) != len(hs.Buckets) {
			t.Errorf("exemplars not parallel to buckets: %d vs %d", len(hs.Exemplars), len(hs.Buckets))
		}
	}
}

// TestObserveAllocs pins the plain observe path at zero allocations.
func TestObserveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	r := New()
	h := r.Histogram("lat", DefaultLatencyBuckets)
	i := 0
	avg := testing.AllocsPerRun(512, func() {
		h.Observe(float64(i%100) / 100)
		i++
	})
	if avg != 0 {
		t.Fatalf("Observe allocates %.2f objects/call, want 0", avg)
	}
}

// TestObserveExemplarAllocs pins the exemplar capture at zero extra
// allocations: publishing through the per-bucket seqlock slot touches only
// preallocated atomics.
func TestObserveExemplarAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	r := New()
	h := r.Histogram("lat", DefaultLatencyBuckets)
	i := 0
	avg := testing.AllocsPerRun(512, func() {
		h.ObserveExemplar(float64(i%100)/100, uint64(i+1), int64(i))
		i++
	})
	if avg != 0 {
		t.Fatalf("ObserveExemplar allocates %.2f objects/call, want 0", avg)
	}
}

// TestExemplarConcurrentReadersAndWriters exercises the seqlock under the
// race detector: concurrent stores and loads must stay consistent (a load
// never returns a torn mix of two exemplars).
func TestExemplarConcurrentReadersAndWriters(t *testing.T) {
	r := New()
	h := r.Histogram("lat", []float64{1})
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 1; i <= 2000; i++ {
				// Trace ID and nanos always match, so a torn read of the
				// two fields is detectable below.
				v := uint64(w*10000 + i)
				h.ObserveExemplar(0.5, v, int64(v))
			}
		}(w)
	}
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if e, ok := h.ex[0].load(); ok {
				if e.Value != 0.5 {
					t.Errorf("torn exemplar value %v", e.Value)
					return
				}
				if got := parseHexID(e.TraceID); got != uint64(e.UnixNanos) {
					t.Errorf("torn exemplar: trace %s vs nanos %d", e.TraceID, e.UnixNanos)
					return
				}
			}
			_ = h.Exemplars()
		}
	}()
	writers.Wait()
	close(stop)
	<-readerDone
}

func parseHexID(s string) uint64 {
	var v uint64
	for _, c := range s {
		v <<= 4
		switch {
		case c >= '0' && c <= '9':
			v |= uint64(c - '0')
		case c >= 'a' && c <= 'f':
			v |= uint64(c-'a') + 10
		}
	}
	return v
}

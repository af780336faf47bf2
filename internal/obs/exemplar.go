package obs

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Exemplar is the most recent observation retained for one histogram
// bucket: its value, the trace that produced it, and when it was observed
// (unix nanoseconds). It is the link from an aggregate latency bucket back
// to one concrete request: a dashboard showing a slow p99 can resolve the
// exemplar's trace ID against /debug/traces and show the offending span
// tree instead of a statistic.
type Exemplar struct {
	Value     float64 `json:"value"`
	TraceID   string  `json:"trace_id"`
	UnixNanos int64   `json:"unix_nanos"`
}

// exemplarSlot holds one bucket's exemplar without ever allocating on the
// observe path. Writers publish through a seqlock: the sequence number is
// odd while a write is in flight, and every field is itself atomic so the
// race detector sees no unsynchronized access. A writer that finds the
// slot claimed simply drops its exemplar — "most recent, best effort" is
// the contract, and a diagnostic sample lost under write contention is
// indistinguishable from one overwritten a nanosecond later.
type exemplarSlot struct {
	seq   atomic.Uint64 // 0 = never written; odd = writer active
	val   atomic.Uint64 // float64 bits
	trace atomic.Uint64
	nanos atomic.Int64
}

// store publishes an exemplar, dropping it when another writer owns the
// slot. Zero allocations.
func (s *exemplarSlot) store(v float64, traceID uint64, unixNanos int64) {
	seq := s.seq.Load()
	if seq&1 != 0 || !s.seq.CompareAndSwap(seq, seq+1) {
		return
	}
	s.val.Store(math.Float64bits(v))
	s.trace.Store(traceID)
	s.nanos.Store(unixNanos)
	s.seq.Store(seq + 2)
}

// load reads a consistent exemplar, reporting false when the slot was
// never written or a writer kept it busy for the whole (bounded) retry
// budget.
func (s *exemplarSlot) load() (Exemplar, bool) {
	for attempt := 0; attempt < 16; attempt++ {
		s1 := s.seq.Load()
		if s1 == 0 {
			return Exemplar{}, false
		}
		if s1&1 != 0 {
			continue
		}
		v := s.val.Load()
		tr := s.trace.Load()
		ns := s.nanos.Load()
		if s.seq.Load() == s1 {
			return Exemplar{
				Value:     math.Float64frombits(v),
				TraceID:   fmt.Sprintf("%016x", tr),
				UnixNanos: ns,
			}, true
		}
	}
	return Exemplar{}, false
}

// ObserveExemplar records one sample exactly like Observe and additionally
// retains it as the bucket's exemplar when traceID is non-zero. unixNanos
// stamps the exemplar (callers pass their request start time; tests pass a
// fixed clock). The exemplar store is an atomic seqlock publish — zero
// allocations, pinned by TestObserveExemplarAllocs.
func (h *Histogram) ObserveExemplar(x float64, traceID uint64, unixNanos int64) {
	i := sort.SearchFloat64s(h.bounds, x)
	h.counts[i].Add(1)
	h.count.Add(1)
	if traceID != 0 && i < len(h.ex) {
		h.ex[i].store(x, traceID, unixNanos)
	}
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + x)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Exemplars returns the per-bucket exemplars, parallel to the snapshot's
// Buckets (len(bounds)+1, the last being the +Inf overflow). Buckets that
// never received an exemplar hold nil. Returns nil when no bucket holds
// one, so histograms that never saw ObserveExemplar export no exemplar
// field at all.
func (h *Histogram) Exemplars() []*Exemplar {
	if len(h.ex) == 0 {
		return nil
	}
	var out []*Exemplar
	for i := range h.ex {
		if e, ok := h.ex[i].load(); ok {
			if out == nil {
				out = make([]*Exemplar, len(h.ex))
			}
			e := e
			out[i] = &e
		}
	}
	return out
}

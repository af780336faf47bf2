package trace

import "sync/atomic"

// Ring is a lock-free, fixed-capacity buffer of the most recent completed
// spans. Writers claim a slot with one atomic add and store an immutable
// *Span pointer; there is no lock to contend on and no allocation per emit,
// so a ring can sit on the serving path permanently. tmplard keeps one and
// serves it at GET /debug/traces.
//
// Reads are best-effort snapshots: a snapshot taken while writers are
// active can miss a slot that has been claimed but not yet stored (it reads
// either the previous occupant or nil), which is the right trade for a
// diagnostic buffer.
type Ring struct {
	mask  uint64
	pos   atomic.Uint64
	slots []atomic.Pointer[Span]
}

// NewRing returns a ring holding the last capacity spans (rounded up to a
// power of two, minimum 16).
func NewRing(capacity int) *Ring {
	n := 16
	for n < capacity {
		n <<= 1
	}
	return &Ring{mask: uint64(n - 1), slots: make([]atomic.Pointer[Span], n)}
}

// Emit implements Sink.
func (r *Ring) Emit(s *Span) {
	i := r.pos.Add(1) - 1
	r.slots[i&r.mask].Store(s)
}

// Len returns the number of spans currently held (at most Cap).
func (r *Ring) Len() int {
	n := r.pos.Load()
	if n > uint64(len(r.slots)) {
		return len(r.slots)
	}
	return int(n)
}

// Snapshot returns the buffered spans, oldest first. Spans are immutable;
// the returned slice is freshly allocated.
func (r *Ring) Snapshot() []*Span {
	end := r.pos.Load()
	start := uint64(0)
	if end > uint64(len(r.slots)) {
		start = end - uint64(len(r.slots))
	}
	out := make([]*Span, 0, end-start)
	for i := start; i < end; i++ {
		if s := r.slots[i&r.mask].Load(); s != nil {
			out = append(out, s)
		}
	}
	return out
}

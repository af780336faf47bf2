package grid

import (
	"math"
	"sync"
	"sync/atomic"
	"unsafe"
)

// MaxHopOrder is how many nodes of a source's breadth-first discovery
// order the grid's hop-order memo keeps. Entries are uint16 IDs, so only
// grids of at most 65,536 nodes keep a memo; on larger ones every walk
// runs the search itself.
const (
	MaxHopOrder      = 256
	maxHopOrderNodes = 1 << 16
)

// hopPrefix is a published prefix of one source's discovery order: ids
// holds its first len(ids) nodes, and expanded counts the nodes, the
// source first, whose discoveries all lie in ids; an expansion the cap cut
// short is not counted. A hopPrefix never changes once stored. A source's
// prefixes share one backing array of the memo's cap, and a longer prefix
// writes only entries past the end of every shorter one, so readers take
// no lock.
type hopPrefix struct {
	ids      []uint16
	expanded int
}

// hopMemo holds each source's latest hopPrefix. A breadth-first order
// depends only on the grid and the source, and a grid never changes once
// built, so each order is searched once, lazily, as far as walks ask for
// it.
type hopMemo struct {
	// prefixes[v] is source v's prefix, nil until a walk from v publishes
	// one. Build allocates it on grids of at most maxHopOrderNodes nodes.
	prefixes []atomic.Pointer[hopPrefix]
	// limit is the number of entries a prefix holds at most: MaxHopOrder,
	// lowered by tests so that walks run past a full prefix.
	limit int
	// mu serializes publishing.
	mu sync.Mutex
}

// HopOrderBytes returns the memory the grid's hop-order memo holds: an
// 8-byte pointer per node, and per source a walk has published a 32-byte
// prefix header and an array of MaxHopOrder uint16 IDs. It stays within
// (40 + 2·MaxHopOrder)·NumNodes bytes.
func (g *Grid) HopOrderBytes() int64 {
	prefixes := g.hops.prefixes
	n := int64(len(prefixes)) * int64(unsafe.Sizeof(prefixes[0]))
	for i := range prefixes {
		if p := prefixes[i].Load(); p != nil {
			n += int64(unsafe.Sizeof(*p)) + 2*int64(cap(p.ids))
		}
	}
	return n
}

// HopOrder walks the nodes a breadth-first search over out-arcs discovers
// from a source, in the order a FIFO search discovers them, the source
// excluded. Without nodes to avoid, a walk reads the grid's memo of that
// order and, past what the memo holds, runs the search itself on its own
// scratch: from the first node the memo has not fully expanded, with every
// memoized node already marked. What a walk searched is published to the
// memo, up to its cap and in whole expansions, when the HopOrder starts its
// next walk: one lock per walk that searched past its prefix. So the first
// walks from a source search and later ones scan. A walk that avoids nodes
// runs the search alone.
//
// A HopOrder also answers, for the nodes it has returned, whether a node
// is among them and from which node the search discovered it. The zero
// value is ready; a HopOrder is not safe for concurrent use.
type HopOrder struct {
	g   *Grid
	src NodeID
	// slot holds the source's prefix when the walk may publish to it.
	slot *atomic.Pointer[hopPrefix]
	// memo holds the prefix's entries when the walk started; more holds
	// the nodes the walk discovered itself, in order.
	memo []uint16
	more []NodeID
	// expanded counts the nodes whose out-arcs the search has scanned, the
	// source first, and fit those of them whose discoveries all lie within
	// the memo's cap; memoExpanded is the prefix's count when the walk
	// started. next counts the nodes Next has returned.
	expanded, fit, memoExpanded, next int
	// at[v]-base is v's rank in this walk: 0 for the source, k for the
	// k-th node discovered. Stamps of earlier walks lie below base, so the
	// difference wraps past every rank and a new walk clears nothing. The
	// search stamps the nodes it discovers; memoized nodes are stamped
	// only when a query needs them, marked being how many Next returned
	// by then, so a scan that meets its goal early stamps nothing. Nodes
	// to avoid are stamped with a rank past every node the walk can
	// return, so the search takes them for discovered and never enters
	// them.
	at     []uint32
	base   uint32
	marked int
}

// Start begins a walk from source on g that never enters a node of avoid,
// first publishing what the previous walk searched.
func (w *HopOrder) Start(g *Grid, source NodeID, avoid map[NodeID]bool) {
	if w.slot != nil && (len(w.more) > 0 || w.fit > w.memoExpanded) {
		w.publish()
	}
	n := len(g.pos)
	if len(w.at) < n {
		w.at = make([]uint32, n)
		w.base = 0
	} else if uint64(w.base)+2*uint64(len(w.at)) > math.MaxUint32 {
		clear(w.at) // the stamps would wrap into this walk's ranks
		w.base = 0
	}
	w.base += uint32(len(w.at))
	w.at[source] = w.base
	w.g, w.src = g, source
	w.slot, w.memo, w.more = nil, nil, w.more[:0]
	w.expanded, w.fit, w.memoExpanded, w.next, w.marked = 0, 0, 0, 0, 0
	if len(avoid) > 0 {
		for u, ok := range avoid {
			if ok && u != source {
				w.at[u] = w.base + uint32(len(w.at)) - 1
			}
		}
		return
	}
	if g.hops.prefixes == nil {
		return
	}
	w.slot = &g.hops.prefixes[source]
	if p := w.slot.Load(); p != nil {
		w.memo = p.ids
		w.expanded, w.fit, w.memoExpanded = p.expanded, p.expanded, p.expanded
	}
}

// Next returns the next node the search discovers, or None once it has
// discovered every node it can reach.
func (w *HopOrder) Next() NodeID {
	if w.next < len(w.memo) {
		w.next++
		return NodeID(w.memo[w.next-1])
	}
	k := w.next - len(w.memo)
	if k == len(w.more) && !w.expand() {
		return None
	}
	w.next++
	return w.more[k]
}

// mark stamps the memoized nodes Next has returned since the last mark.
func (w *HopOrder) mark() {
	for k := w.marked; k < min(w.next, len(w.memo)); k++ {
		w.at[w.memo[k]] = w.base + uint32(k+1)
	}
	w.marked = w.next
}

// expand expands nodes in discovery order until one discovers a node, and
// reports false when none is left to expand. An expansion discovers, in
// arc order, every out-neighbour the walk has not discovered and may
// enter. Every memoized node was returned, and is stamped by mark, before
// the first expansion.
func (w *HopOrder) expand() bool {
	w.mark()
	at, base, more := w.at, w.base, w.more
	span, found := uint32(len(at)), len(w.memo)+len(more)
	for w.expanded <= found {
		v := w.src
		if r := w.expanded; r > len(w.memo) {
			v = more[r-1-len(w.memo)]
		} else if r > 0 {
			v = NodeID(w.memo[r-1])
		}
		for _, e := range w.g.adj[v] {
			u := e.To
			if at[u]-base < span {
				continue // discovered, or to avoid
			}
			more = append(more, u)
			found++
			at[u] = base + uint32(found)
		}
		w.expanded++
		if found <= w.g.hops.limit {
			w.fit = w.expanded
		}
		if len(more) > len(w.more) {
			w.more = more
			return true
		}
	}
	return false // the source and every discovered node are expanded
}

// publish extends the source's prefix with what the walk searched past its
// snapshot, up to the memo's cap, unless the stored prefix already holds
// as many entries and expansions: the nodes it discovered and the count of
// nodes it expanded whole. Entries past the cap's last whole expansion are
// published too, and a later walk expands that node again. Two walks that
// expand the same nodes discover the same nodes, so whichever publishes
// first serves both. A source's first publish allocates the array every
// later prefix of it extends.
func (w *HopOrder) publish() {
	m := &w.g.hops
	end := min(len(w.memo)+len(w.more), m.limit)
	if end == len(w.memo) && w.fit == w.memoExpanded {
		return // nothing searched that the prefix could hold
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var ids []uint16
	expanded := w.fit
	if p := w.slot.Load(); p == nil {
		ids = make([]uint16, 0, m.limit)
	} else if len(p.ids) >= end && p.expanded >= w.fit {
		return
	} else {
		ids, expanded = p.ids, max(p.expanded, w.fit)
	}
	for r := len(ids); r < end; r++ {
		ids = append(ids, uint16(w.more[r-len(w.memo)]))
	}
	w.slot.Store(&hopPrefix{ids: ids, expanded: expanded})
}

// Reached reports whether u is the source or a node Next has returned.
func (w *HopOrder) Reached(u NodeID) bool {
	if w.marked < w.next {
		w.mark()
	}
	return w.at[u]-w.base <= uint32(w.next)
}

// Parent returns the node from which the search discovered u, a node Next
// has returned: its in-neighbour of lowest rank, the source ranking
// first. A FIFO search expands nodes in the order it discovers them, so
// the first of u's in-neighbours to be expanded is the one that found it.
func (w *HopOrder) Parent(u NodeID) NodeID {
	if w.marked < w.next {
		w.mark()
	}
	parent, rank := None, uint32(math.MaxUint32)
	for _, e := range w.g.in[u] {
		if r := w.at[e.To] - w.base; r < rank {
			parent, rank = e.To, r
		}
	}
	return parent
}

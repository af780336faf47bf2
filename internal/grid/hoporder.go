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

// hopList is one source's memoized discovery order. state packs how many
// entries are published (high 32 bits) and how many nodes, the source
// first, have had all their discoveries published (low 32 bits); an
// expansion the cap cut short is not counted. ids holds at least the
// published entries: it is allocated on first publish and replaced by a
// copy twice its length when a publish needs more room. Published
// entries never change, so readers take no lock.
type hopList struct {
	ids   atomic.Pointer[[]uint16]
	state atomic.Uint64
}

// hopMemo holds a hopList per node. A breadth-first order depends only on
// the grid and the source, and a grid never changes once built, so each
// order is searched once, lazily, as far as walks ask for it.
type hopMemo struct {
	// lists is allocated on the grid's first walk.
	lists atomic.Pointer[[]hopList]
	// bytes counts the memory the current ids slices hold, headers
	// included; it changes only under mu.
	bytes atomic.Int64
	// limit is the number of entries a list keeps: MaxHopOrder, lowered by
	// tests so that walks run past a full list.
	limit int
	// mu serializes allocation and publishing.
	mu sync.Mutex
}

// hopList returns source v's list.
func (g *Grid) hopList(v NodeID) *hopList {
	p := g.hops.lists.Load()
	if p == nil {
		p = g.allocHopLists()
	}
	return &(*p)[v]
}

// allocHopLists allocates the grid's lists on its first walk.
func (g *Grid) allocHopLists() *[]hopList {
	g.hops.mu.Lock()
	defer g.hops.mu.Unlock()
	if p := g.hops.lists.Load(); p != nil {
		return p
	}
	lists := make([]hopList, len(g.pos))
	g.hops.lists.Store(&lists)
	return &lists
}

// HopOrderBytes returns the memory the grid's hop-order memo holds: a
// 16-byte list per node once any walk has run, and per source a walk has
// published a 24-byte slice header and up to MaxHopOrder uint16 IDs. It
// stays within (40 + 2·MaxHopOrder)·NumNodes bytes.
func (g *Grid) HopOrderBytes() int64 {
	p := g.hops.lists.Load()
	if p == nil {
		return 0
	}
	return int64(len(*p))*int64(unsafe.Sizeof(hopList{})) + g.hops.bytes.Load()
}

// HopOrder walks the nodes a breadth-first search over out-arcs discovers
// from a source, in the order a FIFO search discovers them, the source
// excluded. Without nodes to avoid, a walk reads the grid's memo of that
// order and, past what the memo holds, runs the search itself on its own
// scratch: from the first node the memo has not fully expanded, with every
// memoized node already marked. What a walk searched is published to the
// memo, up to its cap and in whole expansions, when the HopOrder starts its
// next walk: one lock per walk. So the first walks from a source search
// and later ones scan. A walk that avoids nodes runs the search alone.
//
// A HopOrder also answers, for the nodes it has returned, whether a node
// is among them and from which node the search discovered it. The zero
// value is ready; a HopOrder is not safe for concurrent use.
type HopOrder struct {
	g   *Grid
	src NodeID
	// list is the source's memo list when the walk may publish to it.
	list *hopList
	// memo holds the list's entries when the walk started; more holds the
	// nodes the walk discovered itself, in order.
	memo []uint16
	more []NodeID
	// pops counts the nodes whose out-arcs the search has scanned, the
	// source first, and fit those of them whose discoveries all lie within
	// the list's cap; memoPops is the list's count when the walk started.
	// next counts the nodes Next has returned.
	pops, fit, memoPops, next int
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
	if w.list != nil && (len(w.more) > 0 || w.fit > w.memoPops) {
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
	w.memo, w.more, w.list = nil, w.more[:0], nil
	w.pops, w.fit, w.memoPops, w.next, w.marked = 0, 0, 0, 0, 0
	if len(avoid) > 0 {
		for u, ok := range avoid {
			if ok && u != source {
				w.at[u] = w.base + uint32(len(w.at)) - 1
			}
		}
		return
	}
	if n > maxHopOrderNodes {
		return
	}
	w.list = g.hopList(source)
	if st := w.list.state.Load(); st != 0 {
		w.memo = (*w.list.ids.Load())[:st>>32]
		w.pops = int(uint32(st))
		w.fit, w.memoPops = w.pops, w.pops
	}
}

// Next returns the next node the search discovers, or None once it has
// discovered every node it can reach.
func (w *HopOrder) Next() NodeID {
	if w.next < len(w.memo) {
		w.next++
		return NodeID(w.memo[w.next-1])
	}
	return w.search()
}

// mark stamps the memoized nodes Next has returned since the last mark.
func (w *HopOrder) mark() {
	for k := w.marked; k < min(w.next, len(w.memo)); k++ {
		w.at[w.memo[k]] = w.base + uint32(k+1)
	}
	w.marked = w.next
}

// search returns the next node past the memo's, expanding nodes first
// when the walk has returned every node it discovered.
func (w *HopOrder) search() NodeID {
	k := w.next - len(w.memo)
	if k == len(w.more) && !w.expand() {
		return None
	}
	w.next++
	return w.more[k]
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
	for w.pops <= found {
		v := w.src
		if r := w.pops; r > len(w.memo) {
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
		w.pops++
		if found <= w.g.hops.limit {
			w.fit = w.pops
		}
		if len(more) > len(w.more) {
			w.more = more
			return true
		}
	}
	return false // the source and every discovered node are expanded
}

// publish appends what the walk searched past its memo snapshot to the
// source's list, up to the list's cap, unless another walk published as
// far: the nodes it discovered and the count of nodes it expanded whole.
// Entries past the cap's last whole expansion are published too, and a
// later walk expands that node again. Two walks that expand the same
// nodes discover the same nodes, so whichever publishes first serves both.
func (w *HopOrder) publish() {
	m := &w.g.hops
	end := min(len(w.memo)+len(w.more), m.limit)
	if end == len(w.memo) && w.fit == w.memoPops {
		return // nothing searched that the list could hold
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st := w.list.state.Load()
	have, pops := int(st>>32), int(uint32(st))
	if have > end || have == end && pops >= w.fit {
		return
	}
	ids := w.list.ids.Load()
	if ids == nil || len(*ids) < end {
		n := 16
		if ids != nil {
			n = 2 * len(*ids)
			m.bytes.Add(-hopIDsBytes(len(*ids)))
		}
		for n < end {
			n *= 2
		}
		grown := make([]uint16, min(n, m.limit))
		if ids != nil {
			copy(grown, (*ids)[:have])
		}
		ids = &grown
		w.list.ids.Store(ids)
		m.bytes.Add(hopIDsBytes(len(grown)))
	}
	for r := have; r < end; r++ {
		(*ids)[r] = uint16(w.more[r-len(w.memo)])
	}
	w.list.state.Store(uint64(end)<<32 | uint64(w.fit))
}

// hopIDsBytes is the memory an ids slice of n entries holds.
func hopIDsBytes(n int) int64 { return int64(unsafe.Sizeof([]uint16{})) + 2*int64(n) }

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

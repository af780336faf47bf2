package grid

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/routeplanning/mamorl/internal/geo"
)

// plainBFS is a FIFO breadth-first search over Neighbors from s that
// never enters a node of avoid: the nodes it discovers in order, the
// source excluded, and the node each was discovered from.
func plainBFS(g *Grid, s NodeID, avoid map[NodeID]bool) (order []NodeID, parent map[NodeID]NodeID) {
	parent = map[NodeID]NodeID{s: None}
	queue := []NodeID{s}
	for head := 0; head < len(queue); head++ {
		for _, e := range g.Neighbors(queue[head]) {
			if _, seen := parent[e.To]; seen || avoid[e.To] {
				continue
			}
			parent[e.To] = queue[head]
			queue = append(queue, e.To)
		}
	}
	return queue[1:], parent
}

// memoized returns the entries s's prefix holds and how many nodes it
// has fully expanded.
func memoized(g *Grid, s NodeID) ([]NodeID, int) {
	p := g.hops.prefixes[s].Load()
	if p == nil {
		return nil, 0
	}
	return widen(p.ids), p.expanded
}

// widen returns memo entries as node IDs.
func widen(ids []uint16) []NodeID {
	var out []NodeID
	for _, u := range ids {
		out = append(out, NodeID(u))
	}
	return out
}

// walk runs w from s on g for at most k nodes (all of them when k < 0),
// checking each node against want and, at the end, Reached for every node
// and Parent for every returned one against the plain search's answers.
func walk(t *testing.T, w *HopOrder, g *Grid, s NodeID, avoid map[NodeID]bool, k int,
	want []NodeID, parent map[NodeID]NodeID) {
	t.Helper()
	w.Start(g, s, avoid)
	var got []NodeID
	for k < 0 || len(got) < k {
		u := w.Next()
		if u == None {
			break
		}
		got = append(got, u)
	}
	if k < 0 && w.Next() != None {
		t.Fatalf("%s: source %d: the walk goes on after None", g.Name(), s)
	}
	if !slices.Equal(got, want[:len(got)]) || (k < 0 || k > len(want)) && len(got) != len(want) {
		t.Fatalf("%s: source %d: walk of %d nodes\n got %v\nwant %v", g.Name(), s, k, got, want)
	}
	reached := map[NodeID]bool{s: true}
	for _, u := range got {
		reached[u] = true
		if p := w.Parent(u); p != parent[u] {
			t.Fatalf("%s: source %d: Parent(%d) = %d, the search found it from %d", g.Name(), s, u, p, parent[u])
		}
	}
	for v := range g.NumNodes() {
		if w.Reached(NodeID(v)) != reached[NodeID(v)] {
			t.Fatalf("%s: source %d after %d nodes: Reached(%d) = %v", g.Name(), s, len(got), v, !reached[NodeID(v)])
		}
	}
}

// directedGrid is a planar grid of n nodes whose arcs mostly point to
// higher IDs, so a source reaches few of the nodes below it and the last
// nodes reach only each other.
func directedGrid(n int, seed int64) *Grid {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder("directed", geo.Planar)
	for range n {
		b.AddNode(geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100})
	}
	for v := range n - 1 {
		for range 1 + rng.Intn(3) {
			b.AddArc(NodeID(v), NodeID(v+1+rng.Intn(min(n-1-v, 40))))
		}
		if rng.Intn(8) == 0 {
			b.AddArc(NodeID(v), NodeID(rng.Intn(v+1)))
		}
	}
	b.AddArc(NodeID(n-1), NodeID(n-2))
	return b.MustBuild()
}

// TestHopOrderMatchesBFS: from every source of the Caribbean mesh and of a
// directed grid whose sources miss some nodes, a walk returns the plain
// FIFO search's order node for node, and its Reached and Parent answers
// match that search: read cold and cut short at a random node, then read
// warm to the end, past the memo's cap by the walk's own search, and again
// warm, by which time the memo holds the order up to its cap. Each grid
// runs at the memo's cap and at a cap of 5 entries, and once with nodes to
// avoid, which the memo does not serve.
func TestHopOrderMatchesBFS(t *testing.T) {
	caribbean := func() *Grid {
		g, err := CaribbeanGrid(1)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	directed := func() *Grid { return directedGrid(600, 4) }
	for _, mk := range []func() *Grid{caribbean, directed} {
		for _, limit := range []int{MaxHopOrder, 5} {
			g := mk()
			g.hops.limit = limit
			rng := rand.New(rand.NewSource(int64(limit)))
			var w HopOrder
			past, partial := 0, 0
			for v := range g.NumNodes() {
				s := NodeID(v)
				want, parent := plainBFS(g, s, nil)
				if len(want) < g.NumNodes()-1 {
					partial++
				}
				walk(t, &w, g, s, nil, rng.Intn(len(want)+1), want, parent)
				walk(t, &w, g, s, nil, -1, want, parent)
				walk(t, &w, g, s, nil, -1, want, parent)
				if len(want) > limit {
					past++
				}
				// The second walk was published when the third started.
				ids, pops := memoized(g, s)
				if n := min(len(want), limit); !slices.Equal(ids, want[:n]) {
					t.Fatalf("%s: source %d: the memo holds %v, want the first %d of %v", g.Name(), s, ids, n, want)
				}
				if len(want) < limit && pops != len(want)+1 {
					t.Fatalf("%s: source %d: the memo holds the whole order but expanded %d of %d nodes", g.Name(), s, pops, len(want)+1)
				}
			}
			if past == 0 {
				t.Errorf("%s at cap %d: no walk ran past the cap", g.Name(), limit)
			}
			if g.Name() == "directed" && partial == 0 {
				t.Errorf("%s: every source reaches every node", g.Name())
			}

			// A walk that avoids nodes searches alone and publishes nothing.
			avoid := map[NodeID]bool{}
			for v := 3; v < g.NumNodes(); v += 7 {
				avoid[NodeID(v)] = true
			}
			before := g.HopOrderBytes()
			for _, s := range []NodeID{0, 1, 2, NodeID(g.NumNodes() - 1)} {
				want, parent := plainBFS(g, s, avoid)
				walk(t, &w, g, s, avoid, -1, want, parent)
			}
			if after := g.HopOrderBytes(); after != before {
				t.Errorf("%s: walks that avoid nodes grew the memo from %d to %d bytes", g.Name(), before, after)
			}
		}
	}
}

// TestHopOrderBudget pins the memo's per-grid byte budget: a new grid
// holds an 8-byte pointer per node, and once every source of the Caribbean
// mesh has been walked past its cap, per source also a 32-byte prefix
// header and MaxHopOrder uint16 IDs: 552 bytes per node (DESIGN.md §8).
func TestHopOrderBudget(t *testing.T) {
	g, err := CaribbeanGrid(1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := g.HopOrderBytes(), 8*int64(g.NumNodes()); got != want {
		t.Fatalf("a new grid's memo holds %d bytes, want %d", got, want)
	}
	var w HopOrder
	for v := range g.NumNodes() {
		w.Start(g, NodeID(v), nil)
		for w.Next() != None {
		}
	}
	const budget = 552
	// Every walk but the last is published: the memo is close to full.
	if got, max := g.HopOrderBytes(), budget*int64(g.NumNodes()); got > max || got < max*9/10 {
		t.Fatalf("memo holds %d bytes, budget %d·%d = %d", got, budget, g.NumNodes(), max)
	}
}

// TestHopOrderConcurrent: 8 goroutines walk every source of one cold grid
// in different orders and to different depths, filling the memo together;
// every walk returns the plain search's order. Each worker keeps every
// prefix it loaded, and once all are done each kept prefix must still be
// the plain search's prefix of its length: a published prefix's entries
// never change. It is meant for -race.
func TestHopOrderConcurrent(t *testing.T) {
	g := directedGrid(400, 9)
	g.hops.limit = 64
	orders := make([][]NodeID, g.NumNodes())
	for v := range orders {
		orders[v], _ = plainBFS(g, NodeID(v), nil)
	}
	type kept struct {
		src NodeID
		ids []uint16
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	loaded := make([][]kept, 8)
	for worker := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(worker)))
			var w HopOrder
			for _, v := range rng.Perm(g.NumNodes()) {
				want := orders[v]
				k := rng.Intn(len(want) + 1)
				w.Start(g, NodeID(v), nil)
				loaded[worker] = append(loaded[worker], kept{NodeID(v), w.memo})
				for i := range k {
					if u := w.Next(); u != want[i] {
						errs <- "a concurrent walk left the plain search's order"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	nonEmpty := 0
	for _, ks := range loaded {
		for _, k := range ks {
			if got, want := widen(k.ids), orders[k.src][:len(k.ids)]; !slices.Equal(got, want) {
				t.Fatalf("source %d: a prefix loaded during the walks now reads %v, want %v", k.src, got, want)
			}
			if len(k.ids) > 0 {
				nonEmpty++
			}
		}
	}
	if nonEmpty == 0 {
		t.Fatal("no walk loaded a published prefix")
	}
}

// FuzzHopOrder builds a small directed grid from the fuzz bytes, as
// FuzzBeyond builds its grids: a node count, a source, a memo cap of 1 to
// 4 entries and a walk length, then one arc per byte pair, and an arc to
// the next node from every node left without one. A walk cut short, then
// a walk past the cap by the walk's own search, then a warm one must each
// return the plain search's order, and the memo must hold its prefix.
func FuzzHopOrder(f *testing.F) {
	f.Add([]byte{5, 0, 1, 2, 0, 1, 1, 2, 2, 3, 3, 4, 4, 0})
	f.Add([]byte{12, 3, 3, 7, 0, 5, 5, 0, 3, 9, 9, 2, 2, 11, 11, 3})
	f.Add([]byte{2, 1, 0, 0})
	f.Add([]byte{15, 14, 2, 9, 14, 13, 13, 12, 1, 2, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := 2 + int(data[0])%14
		b := NewBuilder("fuzz", geo.Planar)
		for i := range n {
			b.AddNode(geo.Point{X: float64(i), Y: float64(i % 3)})
		}
		for k := 4; k+1 < len(data); k += 2 {
			b.AddArc(NodeID(int(data[k])%n), NodeID(int(data[k+1])%n))
		}
		for v := range n {
			if b.OutDegree(NodeID(v)) == 0 {
				b.AddArc(NodeID(v), NodeID((v+1)%n))
			}
		}
		g := b.MustBuild()
		g.hops.limit = 1 + int(data[2])%4
		s := NodeID(int(data[1]) % n)
		want, parent := plainBFS(g, s, nil)
		var w HopOrder
		walk(t, &w, g, s, nil, int(data[3])%n, want, parent)
		walk(t, &w, g, s, nil, -1, want, parent)
		walk(t, &w, g, s, nil, -1, want, parent)
		if ids, _ := memoized(g, s); !slices.Equal(ids, want[:min(len(want), g.hops.limit)]) {
			t.Fatalf("the memo holds %v of %v at cap %d", ids, want, g.hops.limit)
		}
	})
}

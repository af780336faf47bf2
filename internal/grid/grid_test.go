package grid

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/routeplanning/mamorl/internal/geo"
)

// lineGrid builds 0 - 1 - 2 - ... - (n-1) spaced 1 apart.
func lineGrid(t *testing.T, n int) *Grid {
	t.Helper()
	b := NewBuilder("line", geo.Planar)
	for i := 0; i < n; i++ {
		b.AddNode(geo.Point{X: float64(i), Y: 0})
	}
	for i := 0; i < n-1; i++ {
		b.AddEdge(NodeID(i), NodeID(i+1))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestBuilderBasics(t *testing.T) {
	g := lineGrid(t, 5)
	if g.NumNodes() != 5 {
		t.Errorf("NumNodes = %d", g.NumNodes())
	}
	if g.NumEdges() != 4 {
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
	if g.NumArcs() != 8 {
		t.Errorf("NumArcs = %d", g.NumArcs())
	}
	if g.MaxOutDegree() != 2 {
		t.Errorf("MaxOutDegree = %d", g.MaxOutDegree())
	}
	if g.OutDegree(0) != 1 || g.OutDegree(2) != 2 {
		t.Errorf("OutDegree wrong: %d %d", g.OutDegree(0), g.OutDegree(2))
	}
	w, err := g.EdgeWeight(1, 2)
	if err != nil || math.Abs(w-1) > 1e-12 {
		t.Errorf("EdgeWeight(1,2) = %v, %v", w, err)
	}
	if _, err := g.EdgeWeight(0, 3); err == nil {
		t.Error("EdgeWeight(0,3) should fail")
	}
	if !g.HasEdge(0, 1) || g.HasEdge(0, 2) {
		t.Error("HasEdge wrong")
	}
}

func TestBuilderRejectsIsolatedNode(t *testing.T) {
	b := NewBuilder("bad", geo.Planar)
	b.AddNode(geo.Point{})
	b.AddNode(geo.Point{X: 1})
	b.AddNode(geo.Point{X: 2})
	b.AddEdge(0, 1) // node 2 isolated
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for isolated node")
	}
}

func TestBuilderRejectsEmpty(t *testing.T) {
	if _, err := NewBuilder("empty", geo.Planar).Build(); err == nil {
		t.Fatal("expected error for empty grid")
	}
}

func TestBuilderSelfLoopIgnored(t *testing.T) {
	b := NewBuilder("loop", geo.Planar)
	b.AddNode(geo.Point{})
	b.AddNode(geo.Point{X: 1})
	b.AddEdge(0, 1)
	b.AddArc(0, 0)
	g := b.MustBuild()
	if g.NumArcs() != 2 {
		t.Errorf("self loop should be ignored; arcs = %d", g.NumArcs())
	}
}

func TestBuilderEdgeCountIncremental(t *testing.T) {
	b := NewBuilder("count", geo.Planar)
	for i := 0; i < 4; i++ {
		b.AddNode(geo.Point{X: float64(i)})
	}
	b.AddArc(0, 1)
	if b.UndirectedEdgeCount() != 1 {
		t.Fatalf("one-way arc should count 1, got %d", b.UndirectedEdgeCount())
	}
	b.AddArc(1, 0) // completes pair, still 1
	if b.UndirectedEdgeCount() != 1 {
		t.Fatalf("pair should count 1, got %d", b.UndirectedEdgeCount())
	}
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	if b.UndirectedEdgeCount() != 3 {
		t.Fatalf("want 3 edges, got %d", b.UndirectedEdgeCount())
	}
	b.AddEdge(1, 2) // adding a present edge is a no-op
	if b.UndirectedEdgeCount() != 3 {
		t.Fatalf("re-adding an edge changed the count: %d", b.UndirectedEdgeCount())
	}
	g := b.MustBuild()
	if g.NumEdges() != 3 {
		t.Fatalf("built edges = %d, want 3", g.NumEdges())
	}
}

func TestWithinRadius(t *testing.T) {
	g := lineGrid(t, 10)
	got := g.WithinRadius(5, 2.0)
	want := []NodeID{3, 4, 5, 6, 7}
	if len(got) != len(want) {
		t.Fatalf("WithinRadius = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("WithinRadius = %v, want %v", got, want)
		}
	}
	if r := g.WithinRadius(0, 0); len(r) != 1 || r[0] != 0 {
		t.Errorf("radius 0 should sense self only, got %v", r)
	}
	if r := g.WithinRadius(0, -1); r != nil {
		t.Errorf("negative radius should sense nothing, got %v", r)
	}
	if r := g.WithinRadius(0, 100); len(r) != 10 {
		t.Errorf("large radius should sense all, got %d", len(r))
	}
}

func TestNearestNode(t *testing.T) {
	g := lineGrid(t, 10)
	if v := g.NearestNode(geo.Point{X: 6.4, Y: 0.1}); v != 6 {
		t.Errorf("NearestNode = %d, want 6", v)
	}
	if v := g.NearestNode(geo.Point{X: -100, Y: 0}); v != 0 {
		t.Errorf("NearestNode = %d, want 0", v)
	}
}

func TestNodesInRect(t *testing.T) {
	g := lineGrid(t, 10)
	got := g.NodesInRect(geo.Rect{MinX: 2.5, MinY: -1, MaxX: 5.5, MaxY: 1})
	want := []NodeID{3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("NodesInRect = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NodesInRect = %v, want %v", got, want)
		}
	}
}

func TestDistanceAndBounds(t *testing.T) {
	g := lineGrid(t, 3)
	if d := g.Distance(0, 2); math.Abs(d-2) > 1e-12 {
		t.Errorf("Distance(0,2) = %v", d)
	}
	b := g.Bounds()
	if b.MinX != 0 || b.MaxX != 2 {
		t.Errorf("Bounds = %+v", b)
	}
}

func TestStatsString(t *testing.T) {
	g := lineGrid(t, 4)
	s := g.Stats()
	if s.Nodes != 4 || s.Edges != 3 || s.MaxOutDegree != 2 {
		t.Errorf("Stats = %+v", s)
	}
	if !strings.Contains(s.String(), "|V|=4") {
		t.Errorf("Stats.String = %q", s.String())
	}
	if g.AvgEdgeWeight() != 1 {
		t.Errorf("AvgEdgeWeight = %v", g.AvgEdgeWeight())
	}
}

func TestCodecRoundTrip(t *testing.T) {
	g := lineGrid(t, 6)
	var buf bytes.Buffer
	if err := Encode(&buf, g); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	g2, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() || g2.NumArcs() != g.NumArcs() {
		t.Fatalf("roundtrip mismatch: %v vs %v", g2.Stats(), g.Stats())
	}
	if g2.Metric() != g.Metric() || g2.Name() != g.Name() {
		t.Fatal("metadata lost in roundtrip")
	}
	for v := 0; v < g.NumNodes(); v++ {
		if g.Pos(NodeID(v)) != g2.Pos(NodeID(v)) {
			t.Fatalf("node %d position changed", v)
		}
	}
}

func TestCodecFile(t *testing.T) {
	g := lineGrid(t, 4)
	path := t.TempDir() + "/grid.json"
	if err := SaveFile(path, g); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	g2, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if g2.NumNodes() != 4 {
		t.Errorf("loaded nodes = %d", g2.NumNodes())
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(strings.NewReader("not json")); err == nil {
		t.Error("garbage should fail")
	}
	if _, err := Decode(strings.NewReader(`{"name":"x","metric":"weird","nodes":[{"x":0,"y":0}],"arcs":[]}`)); err == nil {
		t.Error("unknown metric should fail")
	}
	if _, err := Decode(strings.NewReader(`{"name":"x","metric":"planar","nodes":[{"x":0,"y":0}],"arcs":[[0,9]]}`)); err == nil {
		t.Error("out-of-range arc should fail")
	}
}

// TestDecodeWideNode decodes a hub with several thousand spokes, every
// arc listed twice in shuffled order: the duplicates are dropped, whether
// the hub's degree was below or past the Builder's scan limit when they
// came, and the hub's out- and in-lists come out sorted.
func TestDecodeWideNode(t *testing.T) {
	const spokes = 5000
	ff := fileFormat{Name: "hub", Metric: "planar", Nodes: []geo.Point{{}}}
	for k := 1; k <= spokes; k++ {
		ff.Nodes = append(ff.Nodes, geo.Point{X: math.Cos(float64(k)), Y: math.Sin(float64(k))})
		ff.Arcs = append(ff.Arcs, [2]int32{0, int32(k)}, [2]int32{int32(k), 0})
	}
	ff.Arcs = append(ff.Arcs, ff.Arcs...)
	rand.New(rand.NewSource(1)).Shuffle(len(ff.Arcs), func(i, j int) { ff.Arcs[i], ff.Arcs[j] = ff.Arcs[j], ff.Arcs[i] })
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(ff); err != nil {
		t.Fatal(err)
	}
	g, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if g.NumArcs() != 2*spokes || g.NumEdges() != spokes || g.MaxOutDegree() != spokes {
		t.Fatalf("arcs %d, edges %d, max degree %d; want %d, %d, %d",
			g.NumArcs(), g.NumEdges(), g.MaxOutDegree(), 2*spokes, spokes, spokes)
	}
	for _, list := range [][]Edge{g.Neighbors(0), g.InEdges(0)} {
		if len(list) != spokes {
			t.Fatalf("hub list holds %d arcs, want %d", len(list), spokes)
		}
		for k, e := range list {
			if e.To != NodeID(k+1) {
				t.Fatalf("hub list entry %d is node %d, want %d", k, e.To, k+1)
			}
		}
	}
	for k := 1; k <= spokes; k++ {
		if out := g.Neighbors(NodeID(k)); len(out) != 1 || out[0].To != 0 {
			t.Fatalf("spoke %d arcs %v, want one to the hub", k, out)
		}
	}

}

func TestGeodesicGridWeights(t *testing.T) {
	b := NewBuilder("geo", geo.Geodesic)
	b.AddNode(geo.Point{X: 0, Y: 0})
	b.AddNode(geo.Point{X: 0, Y: 1}) // 1 degree latitude = ~60 NM
	b.AddEdge(0, 1)
	g := b.MustBuild()
	w, _ := g.EdgeWeight(0, 1)
	if math.Abs(w-60) > 0.2 {
		t.Errorf("geodesic edge weight = %v, want ~60", w)
	}
}

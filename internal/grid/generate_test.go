package grid

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"sync"
	"testing"

	"github.com/routeplanning/mamorl/internal/geo"
)

// checkConnected verifies that every node is reachable from node 0.
func checkConnected(t *testing.T, g *Grid) {
	t.Helper()
	seen := make([]bool, g.NumNodes())
	queue := []NodeID{0}
	seen[0] = true
	count := 1
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, e := range g.Neighbors(v) {
			if !seen[e.To] {
				seen[e.To] = true
				count++
				queue = append(queue, e.To)
			}
		}
	}
	if count != g.NumNodes() {
		t.Fatalf("grid %s disconnected: reached %d of %d nodes", g.Name(), count, g.NumNodes())
	}
}

func TestGenerateSyntheticDefaults(t *testing.T) {
	// Table 4 defaults: |V|=400, |E|=846, D_max=9.
	g, err := GenerateSynthetic(SyntheticConfig{Nodes: 400, Edges: 846, MaxOutDegree: 9, Seed: 1})
	if err != nil {
		t.Fatalf("GenerateSynthetic: %v", err)
	}
	if g.NumNodes() != 400 {
		t.Errorf("nodes = %d, want 400", g.NumNodes())
	}
	if g.NumEdges() != 846 {
		t.Errorf("edges = %d, want 846", g.NumEdges())
	}
	if g.MaxOutDegree() > 9 {
		t.Errorf("max out-degree = %d, cap 9", g.MaxOutDegree())
	}
	checkConnected(t, g)
}

func TestGenerateSyntheticDeterministic(t *testing.T) {
	cfg := SyntheticConfig{Nodes: 100, Edges: 220, MaxOutDegree: 7, Seed: 42}
	g1, err1 := GenerateSynthetic(cfg)
	g2, err2 := GenerateSynthetic(cfg)
	if err1 != nil || err2 != nil {
		t.Fatalf("errors: %v %v", err1, err2)
	}
	if g1.NumArcs() != g2.NumArcs() {
		t.Fatalf("not deterministic: %d vs %d arcs", g1.NumArcs(), g2.NumArcs())
	}
	for v := 0; v < g1.NumNodes(); v++ {
		if g1.Pos(NodeID(v)) != g2.Pos(NodeID(v)) {
			t.Fatalf("node %d differs between runs", v)
		}
		e1, e2 := g1.Neighbors(NodeID(v)), g2.Neighbors(NodeID(v))
		if len(e1) != len(e2) {
			t.Fatalf("node %d degree differs", v)
		}
		for i := range e1 {
			if e1[i].To != e2[i].To {
				t.Fatalf("node %d edges differ", v)
			}
		}
	}
}

func TestGenerateSyntheticSweepSizes(t *testing.T) {
	// The Figure 5 sweeps need many sizes; spot-check a representative set.
	for _, n := range []int{50, 200, 800} {
		edges := n * 2
		g, err := GenerateSynthetic(SyntheticConfig{Nodes: n, Edges: edges, MaxOutDegree: 9, Seed: int64(n)})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if g.NumNodes() != n || g.NumEdges() != edges {
			t.Errorf("n=%d: got |V|=%d |E|=%d", n, g.NumNodes(), g.NumEdges())
		}
		checkConnected(t, g)
	}
}

func TestGenerateSyntheticValidation(t *testing.T) {
	cases := []SyntheticConfig{
		{Nodes: 1, Edges: 0, MaxOutDegree: 4},    // too few nodes
		{Nodes: 10, Edges: 5, MaxOutDegree: 4},   // under tree edges
		{Nodes: 10, Edges: 100, MaxOutDegree: 4}, // over degree-cap max
		{Nodes: 10, Edges: 9, MaxOutDegree: 1},   // degree cap too small
	}
	for i, cfg := range cases {
		if _, err := GenerateSynthetic(cfg); err == nil {
			t.Errorf("case %d (%+v): expected error", i, cfg)
		}
	}
}

func TestGenerateSyntheticDegreeCapRespected(t *testing.T) {
	g, err := GenerateSynthetic(SyntheticConfig{Nodes: 150, Edges: 440, MaxOutDegree: 6, Seed: 3})
	if err != nil {
		t.Fatalf("GenerateSynthetic: %v", err)
	}
	// Dense relative to the cap (avg degree 5.87 of max 6); every node must
	// still respect it unless a connectivity bridge was forced.
	over := 0
	for v := 0; v < g.NumNodes(); v++ {
		if g.OutDegree(NodeID(v)) > 6 {
			over++
		}
	}
	if over > g.NumNodes()/50 {
		t.Errorf("%d nodes exceed the degree cap", over)
	}
	checkConnected(t, g)
}

func TestGenerateOceanMeshCaribbean(t *testing.T) {
	g, err := CaribbeanGrid(7)
	if err != nil {
		t.Fatalf("CaribbeanGrid: %v", err)
	}
	if g.NumNodes() != 710 {
		t.Errorf("nodes = %d, want 710 (Table 3)", g.NumNodes())
	}
	if g.NumEdges() != 1684 {
		t.Errorf("edges = %d, want 1684 (Table 3)", g.NumEdges())
	}
	if g.MaxOutDegree() > 6 {
		t.Errorf("out-degree %d exceeds the paper's mesh cap of 6", g.MaxOutDegree())
	}
	if g.Metric() != geo.Geodesic {
		t.Error("ocean mesh must be geodesic")
	}
	checkConnected(t, g)
	// All nodes inside the declared region.
	for v := 0; v < g.NumNodes(); v++ {
		if !caribbeanRegion.Contains(g.Pos(NodeID(v))) {
			t.Fatalf("node %d outside region", v)
		}
	}
}

func TestGenerateOceanMeshCoastalDensity(t *testing.T) {
	// The mesh must be denser near coastlines: compare nearest-neighbor
	// spacing of the closest-to-coast decile against the open-ocean decile.
	cfg := OceanMeshConfig{
		Name: "density-check", Region: caribbeanRegion,
		Nodes: 600, Edges: 1400, MaxOutDegree: 6, Seed: 11,
	}
	g, err := GenerateOceanMesh(cfg)
	if err != nil {
		t.Fatalf("GenerateOceanMesh: %v", err)
	}
	lf := newLandField(rand.New(rand.NewSource(cfg.Seed)), cfg.Region, 5)
	type nd struct {
		close   float64
		spacing float64
	}
	var nds []nd
	for v := 0; v < g.NumNodes(); v++ {
		min := -1.0
		for _, e := range g.Neighbors(NodeID(v)) {
			if min < 0 || e.Weight < min {
				min = e.Weight
			}
		}
		nds = append(nds, nd{lf.coastCloseness(g.Pos(NodeID(v))), min})
	}
	coastal, open := 0.0, 0.0
	nc, no := 0, 0
	for _, x := range nds {
		if x.close > 0.8 {
			coastal += x.spacing
			nc++
		} else if x.close < 0.2 {
			open += x.spacing
			no++
		}
	}
	if nc < 10 || no < 10 {
		t.Skipf("too few nodes in density buckets (%d coastal, %d open)", nc, no)
	}
	if coastal/float64(nc) >= open/float64(no) {
		t.Errorf("coastal spacing %.3f not tighter than open-ocean %.3f",
			coastal/float64(nc), open/float64(no))
	}
}

func TestGenerateOceanMeshValidation(t *testing.T) {
	base := OceanMeshConfig{Name: "x", Region: caribbeanRegion, Nodes: 100, Edges: 220, MaxOutDegree: 6}
	bad := base
	bad.Nodes = 1
	if _, err := GenerateOceanMesh(bad); err == nil {
		t.Error("1 node should fail")
	}
	bad = base
	bad.Edges = 10
	if _, err := GenerateOceanMesh(bad); err == nil {
		t.Error("too few edges should fail")
	}
	bad = base
	bad.Edges = 10000
	if _, err := GenerateOceanMesh(bad); err == nil {
		t.Error("too many edges should fail")
	}
	bad = base
	bad.Region = geo.Rect{}
	if _, err := GenerateOceanMesh(bad); err == nil {
		t.Error("empty region should fail")
	}
}

func TestTable3AllDatasets(t *testing.T) {
	if testing.Short() {
		t.Skip("large meshes; skipped with -short")
	}
	g, err := NorthAmericaShoreGrid(1)
	if err != nil {
		t.Fatalf("NorthAmericaShoreGrid: %v", err)
	}
	if g.NumNodes() != 3291 || g.NumEdges() != 7811 {
		t.Errorf("NA shore: |V|=%d |E|=%d, want 3291/7811", g.NumNodes(), g.NumEdges())
	}
	checkConnected(t, g)
}

// TestGeneratedGridsGolden pins the exact grids the generators produce:
// Table 6's four synthetic shapes at seeds 1-3 and the seed-5 Caribbean
// mesh, by Fingerprint (a SHA-256 over name, metric, node positions and
// arcs). The experiments' seeded instances, the served benchmark grids and
// every digest over their plans depend on these bytes, so a change to the
// generators — even one that only reorders equal-distance candidates in a
// sort — must show up here before it silently changes every result.
func TestGeneratedGridsGolden(t *testing.T) {
	synthetic := []struct {
		nodes, edges, maxDeg int
		seed                 int64
		want                 string
	}{
		{704, 1550, 7, 1, "22932da21235a1db89333fb93120e0dcd5e6ccea7e8617c9d439ee3532dabc3a"},
		{704, 1550, 7, 2, "663ecd780f593aa8c9eeaa43998295fdcc960381e602e8117bc645b5970c961b"},
		{704, 1550, 7, 3, "32590543118dbd581a60ddb42b9d6f7cee5dbfc9bfe4374b14f73d7d200adab7"},
		{400, 846, 9, 1, "54e0e22ff806e94dea4c516fdbe6517b9cf277cdae376314098c5ed430d40845"},
		{400, 846, 9, 2, "6605f2cd0c23fe6ebee18e9220c89f8ed1afc7cf0e1c5e0c42d4eb1d99916b77"},
		{400, 846, 9, 3, "2620ffe5cf59949cc2aa8d3880ddcde104a006c134383f1f9f70951e2a7c6e0f"},
		{400, 846, 6, 1, "302fbd2391cdd1ce5b7e2aef902a3b1fb4a042c88000a939418164eb700889c9"},
		{400, 846, 6, 2, "65f377f0da978a7179442b204e44db1ec3af31dbaac00a5ae582f8f00af52ca3"},
		{400, 846, 6, 3, "326f764660f781cf8a9f4ae9b4db870ee9b23d16a48194e1def4ae8a8b5cc6fe"},
		{200, 430, 9, 1, "95d8bbc334bc08a6154cebcd6d5c45b5dcabdaf188fbbb8eda461ef5d91346b2"},
		{200, 430, 9, 2, "11c0ec9d5d81c61b7b14cf0935c2c81161971355a259c07f5834925991737340"},
		{200, 430, 9, 3, "d5ad5978439ef762004f70b4c3c5d1dfc9337bdb9a2cc2ba509a48a962be86e6"},
	}
	for _, c := range synthetic {
		g, err := GenerateSynthetic(SyntheticConfig{Nodes: c.nodes, Edges: c.edges, MaxOutDegree: c.maxDeg, Seed: c.seed})
		if err != nil {
			t.Fatal(err)
		}
		if got := g.Fingerprint(); got != c.want {
			t.Errorf("synthetic %d/%d/%d seed %d: fingerprint %s, want %s", c.nodes, c.edges, c.maxDeg, c.seed, got, c.want)
		}
	}
	carib, err := CaribbeanGrid(5)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := carib.Fingerprint(), "991741cdfe5fb25c4c2b11d8f0438efc57814a4e82c57d5f98537957e8254121"; got != want {
		t.Errorf("caribbean seed 5: fingerprint %s, want %s", got, want)
	}
}

// TestFingerprintEncodesOnce: Fingerprint encodes the grid on its first
// call only (every served plan's trace names its grid's fingerprint), the
// first calls may race, and the memoized digest is the one a fresh encode
// gives.
func TestFingerprintEncodesOnce(t *testing.T) {
	g, err := GenerateSynthetic(SyntheticConfig{Nodes: 200, Edges: 430, MaxOutDegree: 9, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = g.Fingerprint()
		}()
	}
	wg.Wait()
	first := got[0]
	for i, fp := range got {
		if fp != first {
			t.Fatalf("concurrent call %d read %s, call 0 %s", i, fp, first)
		}
	}
	if avg := testing.AllocsPerRun(100, func() { _ = g.Fingerprint() }); avg != 0 {
		t.Fatalf("a repeat Fingerprint call allocates %.1f objects, want 0", avg)
	}
	h := sha256.New()
	if err := Encode(h, g); err != nil {
		t.Fatal(err)
	}
	if want := hex.EncodeToString(h.Sum(nil)); first != want || g.Fingerprint() != want {
		t.Fatalf("memoized fingerprint %s, fresh encode %s", g.Fingerprint(), want)
	}
}

package grid

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/routeplanning/mamorl/internal/geo"
)

// stronglyConnectedOracle runs one BFS along arcs from every node and
// reports whether each one reaches all nodes.
func stronglyConnectedOracle(g *Grid) bool {
	n := g.NumNodes()
	for s := 0; s < n; s++ {
		seen := make([]bool, n)
		seen[s] = true
		queue := []NodeID{NodeID(s)}
		for head := 0; head < len(queue); head++ {
			for _, e := range g.Neighbors(queue[head]) {
				if !seen[e.To] {
					seen[e.To] = true
					queue = append(queue, e.To)
				}
			}
		}
		if len(queue) != n {
			return false
		}
	}
	return true
}

// oneWayRings builds rings of the given sizes whose arcs all run one way
// (i -> i+1), the first node of each ring at index offset; join adds the
// single arc from ring 0's first node to ring 1's first node.
func oneWayRings(sizes []int, join bool) *Grid {
	b := NewBuilder("rings", geo.Planar)
	var firsts []NodeID
	for r, size := range sizes {
		first := NodeID(b.NumNodes())
		firsts = append(firsts, first)
		for k := 0; k < size; k++ {
			b.AddNode(geo.Point{X: float64(k), Y: float64(3 * r)})
		}
		for k := 0; k < size; k++ {
			b.AddArc(first+NodeID(k), first+NodeID((k+1)%size))
		}
	}
	if join {
		b.AddArc(firsts[0], firsts[1])
	}
	return b.MustBuild()
}

// randomOneWayGrid builds an n-node planar grid whose nodes each get one to
// maxOut (below n) one-way arcs to random nodes.
func randomOneWayGrid(rng *rand.Rand, n, maxOut int) *Grid {
	b := NewBuilder("arcs", geo.Planar)
	for i := 0; i < n; i++ {
		b.AddNode(geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10})
	}
	for v := 0; v < n; v++ {
		for k := 1 + rng.Intn(maxOut); b.OutDegree(NodeID(v)) < k; {
			b.AddArc(NodeID(v), NodeID(rng.Intn(n)))
		}
	}
	return b.MustBuild()
}

// TestStronglyConnectedMatchesBruteForce checks Build's two-BFS answer
// against a BFS from every node: on one-way rings (strongly connected),
// two one-way rings joined by one arc (not), random one-way-arc grids of
// both outcomes, generated grids and the Caribbean mesh.
func TestStronglyConnectedMatchesBruteForce(t *testing.T) {
	check := func(name string, g *Grid) bool {
		t.Helper()
		got, want := g.StronglyConnected(), stronglyConnectedOracle(g)
		if got != want {
			t.Fatalf("%s: StronglyConnected = %v, brute force = %v", name, got, want)
		}
		return got
	}
	if !check("one-way ring", oneWayRings([]int{7}, false)) {
		t.Error("a one-way ring is strongly connected")
	}
	for _, join := range []bool{false, true} {
		if check(fmt.Sprintf("two rings, join=%v", join), oneWayRings([]int{5, 6}, join)) {
			t.Errorf("two one-way rings (join=%v) are not strongly connected", join)
		}
	}

	rng := rand.New(rand.NewSource(5))
	outcomes := map[bool]int{}
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(30)
		g := randomOneWayGrid(rng, n, 1+rng.Intn(min(5, n-1)))
		outcomes[check(fmt.Sprintf("random trial %d", trial), g)]++
	}
	t.Logf("random one-way grids: %d strongly connected, %d not", outcomes[true], outcomes[false])
	if outcomes[true] < 30 || outcomes[false] < 30 {
		t.Errorf("random grids no longer cover both outcomes: %v", outcomes)
	}

	for seed := int64(1); seed <= 10; seed++ {
		g, err := GenerateSynthetic(SyntheticConfig{Nodes: 60 + 20*int(seed), Edges: 150 + 45*int(seed), MaxOutDegree: 7, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("synthetic seed %d", seed), g)
	}
	check("lattice", Lattice("lattice", 6, 5))
	check("path", Path("path", 9, 1))
	g, err := CaribbeanGrid(5)
	if err != nil {
		t.Fatal(err)
	}
	if !check("caribbean", g) {
		t.Error("the Caribbean mesh is not strongly connected; Validate takes its BFS on every request there")
	}
}

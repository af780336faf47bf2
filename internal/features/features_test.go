package features

import (
	"math"
	"testing"

	"github.com/routeplanning/mamorl/internal/geo"
	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/sim"
	"github.com/routeplanning/mamorl/internal/vessel"
)

// lineGrid builds 0 - 1 - ... - (n-1) spaced 1 apart.
func lineGrid(t *testing.T, n int) *grid.Grid {
	t.Helper()
	b := grid.NewBuilder("line", geo.Planar)
	for i := 0; i < n; i++ {
		b.AddNode(geo.Point{X: float64(i), Y: 0})
	}
	for i := 0; i < n-1; i++ {
		b.AddEdge(grid.NodeID(i), grid.NodeID(i+1))
	}
	return b.MustBuild()
}

func mission(t *testing.T) *sim.Mission {
	t.Helper()
	g := lineGrid(t, 12)
	sc := sim.Scenario{
		Grid:      g,
		Team:      vessel.NewTeam([]grid.NodeID{2, 3}, 1.5, 2),
		Dest:      10,
		CommEvery: 3,
	}
	m, err := sim.NewMission(sc, sim.RunOptions{})
	if err != nil {
		t.Fatalf("NewMission: %v", err)
	}
	return m
}

func TestDims(t *testing.T) {
	m := mission(t)
	e := New()
	acts := m.LegalActionsFor(0)
	if got := e.TMM(m, 0, 1, acts[0], NoDest); len(got) != TMMDim {
		t.Errorf("TMM dim = %d, want %d", len(got), TMMDim)
	}
	if got := e.LM(m, 0, acts[0], NoDest); len(got) != LMDim {
		t.Errorf("LM dim = %d, want %d", len(got), LMDim)
	}
}

func TestDegreeFeature(t *testing.T) {
	m := mission(t)
	e := New()
	// Asset 0 at node 2 (degree 2, D_max 2): degree feature = 1.
	f := e.LM(m, 0, sim.Wait, NoDest)
	if f[0] != 1 {
		t.Errorf("degree feature = %v, want 1", f[0])
	}
}

func TestThetaFeature(t *testing.T) {
	m := mission(t)
	e := New() // m = 2 hops
	// Assets at 2 and 3 are adjacent: θ = 1 for both views.
	f := e.LM(m, 0, sim.Wait, NoDest)
	if f[1] != 1 {
		t.Errorf("θ = %v, want 1 (teammate 1 hop away)", f[1])
	}
	// With m = 0, nothing is within hops.
	e0 := Extractor{HopsM: 0}
	f = e0.LM(m, 0, sim.Wait, NoDest)
	if f[1] != 0 {
		t.Errorf("θ with m=0 = %v, want 0", f[1])
	}
}

func TestAlphaFeatureFavorsUnexplored(t *testing.T) {
	m := mission(t)
	e := New()
	// Asset 0 at 2 sensed {1..4} roughly (radius 1.5 covers 1,2,3) plus
	// asset 1's broadcastless own sensing is irrelevant here. Moving left
	// (toward 1, mostly sensed) must have lower α than moving right is not
	// guaranteed on this line; instead compare a move against wait (α=0).
	acts := m.LegalActionsFor(0)
	var moveAlpha float64
	for _, a := range acts {
		if a.IsWait() {
			continue
		}
		f := e.LM(m, 0, a, NoDest)
		if f[2] > moveAlpha {
			moveAlpha = f[2]
		}
	}
	waitF := e.LM(m, 0, sim.Wait, NoDest)
	if waitF[2] != 0 {
		t.Errorf("wait α = %v, want 0", waitF[2])
	}
	if moveAlpha <= 0 {
		t.Errorf("some move must sense new nodes, best α = %v", moveAlpha)
	}
}

func TestBetaFeatureProgress(t *testing.T) {
	m := mission(t)
	e := New()
	acts := m.LegalActionsFor(0) // at node 2; neighbors sorted: 1 then 3
	towardDest := acts[2]        // neighbor 1 (node 3), speed 1
	awayDest := acts[0]          // neighbor 0 (node 1), speed 1
	if to, _ := m.Apply(2, towardDest); to != 3 {
		t.Fatalf("fixture: expected neighbor 1 to be node 3, got %d", to)
	}
	// Destination unknown and no hint: β = 0.
	if f := e.LM(m, 0, towardDest, NoDest); f[3] != 0 {
		t.Errorf("β with unknown dest = %v, want 0", f[3])
	}
	// With dest hint at node 10, moving right is progress +1, left is -1.
	if f := e.LM(m, 0, towardDest, 10); math.Abs(f[3]-1) > 1e-9 {
		t.Errorf("β toward dest = %v, want 1", f[3])
	}
	if f := e.LM(m, 0, awayDest, 10); math.Abs(f[3]+1) > 1e-9 {
		t.Errorf("β away from dest = %v, want -1", f[3])
	}
}

func TestSpeedFeature(t *testing.T) {
	m := mission(t)
	e := New()
	slow := sim.Action{Neighbor: 0, Speed: 1}
	fast := sim.Action{Neighbor: 0, Speed: 2}
	fs := e.LM(m, 0, slow, NoDest)
	ff := e.LM(m, 0, fast, NoDest)
	if fs[4] != 0.5 || ff[4] != 1 {
		t.Errorf("speed features = %v / %v, want 0.5 / 1", fs[4], ff[4])
	}
	if fw := e.LM(m, 0, sim.Wait, NoDest); fw[4] != 0 {
		t.Errorf("wait speed = %v", fw[4])
	}
}

func TestCollisionSpeedFeature(t *testing.T) {
	m := mission(t)
	e := New()
	// Asset 0 at 2; teammate believed at 3. Moving into 3 carries risk
	// proportional to speed; moving to 1 carries none.
	into := sim.Action{Neighbor: 1, Speed: 2} // to node 3
	awayA := sim.Action{Neighbor: 0, Speed: 2}
	fi := e.LM(m, 0, into, NoDest)
	fa := e.LM(m, 0, awayA, NoDest)
	if fi[5] != 1 {
		t.Errorf("collision-speed into occupied at max speed = %v, want 1", fi[5])
	}
	if fa[5] != 0 {
		t.Errorf("collision-speed away = %v, want 0", fa[5])
	}
	if fw := e.LM(m, 0, sim.Wait, NoDest); fw[5] != 0 {
		t.Errorf("wait collision-speed = %v, want 0", fw[5])
	}
}

func TestTMMUsesLastKnownLocation(t *testing.T) {
	m := mission(t)
	e := New()
	// TMM features for teammate 1 are computed at its last-known node (3).
	a := sim.Action{Neighbor: 0, Speed: 1}
	f := e.TMM(m, 0, 1, a, NoDest)
	if len(f) != TMMDim {
		t.Fatalf("dim = %d", len(f))
	}
	if f[0] != 1 { // node 3 has degree 2 = D_max
		t.Errorf("teammate degree feature = %v", f[0])
	}
}

// TestTMMUsesTeammateSpec: a TMM context scores the teammate's actions
// with the teammate's own spec. sp divides by its maximum speed, and α
// counts the nodes its sensing radius would cover that the deciding asset
// has not sensed, not the nodes the deciding asset's radius would.
func TestTMMUsesTeammateSpec(t *testing.T) {
	g := lineGrid(t, 14)
	sc := sim.Scenario{Grid: g, Dest: 13, CommEvery: 3, Team: vessel.Team{
		{ID: 0, Source: 2, SensingRadius: 1.5, MaxSpeed: 2},
		{ID: 1, Source: 6, SensingRadius: 2.5, MaxSpeed: 4},
	}}
	m, err := sim.NewMission(sc, sim.RunOptions{})
	if err != nil {
		t.Fatalf("NewMission: %v", err)
	}
	f := New().TMM(m, 0, 1, sim.Action{Neighbor: 1, Speed: 2}, NoDest) // 6 -> 7
	if f[4] != 0.5 {
		t.Errorf("teammate speed feature = %v, want 2/4", f[4])
	}
	sensed := m.Knowledge(0).Sensed
	newly := 0
	for u := range sensed {
		if math.Abs(float64(u-7)) <= 2.5 && !sensed[u] {
			newly++
		}
	}
	if want := float64(newly) / float64(g.MaxOutDegree()); f[2] != want {
		t.Errorf("teammate α = %v, want %v (%d nodes within its radius of node 7)", f[2], want, newly)
	}
}

func TestResolveDest(t *testing.T) {
	m := mission(t)
	if got := ResolveDest(m, 0); got != NoDest {
		t.Errorf("ResolveDest = %v, want NoDest", got)
	}
	// After discovery the true destination resolves. Drive the mission
	// until found: asset 1 walks right from 3 to 9 (senses 10).
	for !m.Done() {
		acts := []sim.Action{sim.Wait, {Neighbor: 1, Speed: 1}}
		if _, err := m.ExecuteStep(acts); err != nil {
			t.Fatalf("ExecuteStep: %v", err)
		}
	}
	if got := ResolveDest(m, 0); got != 10 {
		t.Errorf("ResolveDest after discovery = %v, want 10", got)
	}
}

func TestFeatureRangesProperty(t *testing.T) {
	m := mission(t)
	e := New()
	for i := 0; i < m.NumAssets(); i++ {
		for _, a := range m.LegalActionsFor(i) {
			for _, dest := range []DestArg{NoDest, 10, 0} {
				f := e.LM(m, i, a, dest)
				for k, v := range f {
					if math.IsNaN(v) || v < -1-1e-9 || v > 6+1e-9 {
						t.Errorf("asset %d action %v dest %v: feature %d out of range: %v", i, a, dest, k, v)
					}
				}
			}
		}
	}
}

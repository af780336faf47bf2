package features

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/routeplanning/mamorl/internal/graphalg"
	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/sim"
	"github.com/routeplanning/mamorl/internal/vessel"
)

// referenceFeatures is per-action extraction with nothing shared between
// actions, kept as the oracle of the two-step path: subject j's action a
// from asset i's view, at i's own node for an LM vector (j == i) and at
// j's last-known node for a TMM one. θ asks package-level WithinHops of
// each other asset, α scans the sensing radius through a closure, and β
// takes both distances for every action.
func referenceFeatures(e Extractor, m *sim.Mission, i, j int, lm bool, a sim.Action, dest DestArg) []float64 {
	g := m.Grid()
	v := m.Knowledge(i).LastKnown[j]
	if lm {
		v = m.Cur(i)
	}
	subject := m.Asset(j)
	out := []float64{float64(g.OutDegree(v)) / float64(g.MaxOutDegree())}

	theta := 0.0
	for k := range m.NumAssets() {
		if k == j {
			continue
		}
		other := m.Knowledge(i).LastKnown[k]
		if k == i {
			other = m.Cur(i)
		}
		if graphalg.WithinHops(g, v, other, e.HopsM) {
			theta = 1
		}
	}
	out = append(out, theta)

	to := v
	var weight float64
	if !a.IsWait() {
		edge := g.Neighbors(v)[a.Neighbor]
		to, weight = edge.To, edge.Weight
	}
	alpha := 0.0
	if !a.IsWait() {
		newly := 0
		sensed := m.Knowledge(i).Sensed
		g.ForEachWithinRadius(to, subject.SensingRadius, func(u grid.NodeID) {
			if !sensed[u] && (e.Mask == nil || e.Mask(u)) {
				newly++
			}
		})
		alpha = float64(newly) / float64(g.MaxOutDegree())
	}
	out = append(out, alpha)

	beta := 0.0
	if dest != NoDest && !a.IsWait() && weight > 0 {
		beta = (g.Distance(v, dest) - g.Distance(to, dest)) / weight
		if beta > 1 {
			beta = 1
		} else if beta < -1 {
			beta = -1
		}
	}
	out = append(out, beta)

	sp := 0.0
	if !a.IsWait() {
		sp = float64(a.Speed) / float64(subject.MaxSpeed)
	}
	out = append(out, sp)
	if !lm {
		return out
	}
	risk := 0.0
	if !a.IsWait() && m.BelievedOccupied(i, to) {
		risk = sp
	}
	return append(out, risk)
}

// oracleCoverage counts the rows whose features exercise each branch, so
// the test can insist every branch was compared.
type oracleCoverage struct {
	rows, theta, alpha, maskedOut, beta, risk int
}

// TestTwoStepMatchesReference: the Target/AppendSpeed path and Features
// give every legal action's vector with the bits of referenceFeatures, for
// LM and TMM contexts with the destination unknown and known, over seeded
// random-play missions on the Caribbean mesh and a planar synthetic grid,
// with and without a region mask and obstacles. The six-asset teams start
// packed around one node with mixed radii and speeds, so teammates sit
// within θ's hops and on believed-occupied targets.
func TestTwoStepMatchesReference(t *testing.T) {
	caribbean, err := grid.CaribbeanGrid(1)
	if err != nil {
		t.Fatal(err)
	}
	planar, err := grid.GenerateSynthetic(grid.SyntheticConfig{Nodes: 300, Edges: 640, MaxOutDegree: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*grid.Grid{caribbean, planar} {
		var cov oracleCoverage
		for seed := int64(1); seed <= 4; seed++ {
			masked, blocked := seed%2 == 0, seed > 2
			compareMission(t, g, seed, masked, blocked, &cov)
		}
		if cov.theta == 0 || cov.alpha == 0 || cov.maskedOut == 0 || cov.beta == 0 || cov.risk == 0 {
			t.Fatalf("%s: a feature branch went unexercised: %+v", g.Name(), cov)
		}
		t.Logf("%s: %+v", g.Name(), cov)
	}
}

// compareMission plays one seeded random mission and compares every
// context's vectors at every epoch.
func compareMission(t *testing.T, g *grid.Grid, seed int64, masked, blocked bool, cov *oracleCoverage) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	hub := grid.NodeID(rng.Intn(g.NumNodes()))
	sources := []grid.NodeID{hub}
	for _, e := range g.Neighbors(hub) {
		if len(sources) < 6 {
			sources = append(sources, e.To)
		}
	}
	avg := g.AvgEdgeWeight()
	team := make(vessel.Team, len(sources))
	for k, src := range sources {
		team[k] = vessel.Asset{ID: k, Source: src, SensingRadius: avg * (0.8 + 0.3*float64(k%3)), MaxSpeed: 2 + k%3}
	}
	sc := sim.Scenario{Grid: g, Team: team, Dest: grid.NodeID(rng.Intn(g.NumNodes())), CommEvery: 4, MaxSteps: 25}
	if blocked {
		for len(sc.Obstacles) < g.NumNodes()/20 {
			if v := grid.NodeID(rng.Intn(g.NumNodes())); v != sc.Dest && !slices.Contains(sources, v) {
				sc.Obstacles = append(sc.Obstacles, v)
			}
		}
	}
	m, err := sim.NewMission(sc, sim.RunOptions{})
	if err != nil {
		t.Fatalf("%s seed %d: %v", g.Name(), seed, err)
	}
	e := New()
	if masked {
		// A region: the nodes west of the hub.
		west := g.Pos(hub).X
		e.Mask = func(u grid.NodeID) bool { return g.Pos(u).X <= west }
	}
	var c NodeContext
	var buf []float64
	check := func(i, j int, lm bool, dest DestArg, a sim.Action, got []float64) {
		t.Helper()
		want := referenceFeatures(e, m, i, j, lm, a, dest)
		if len(got) != len(want) {
			t.Fatalf("%s seed %d epoch %d: asset %d subject %d lm=%v %v: got %v, want %v", g.Name(), seed, m.Step(), i, j, lm, a, got, want)
		}
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("%s seed %d epoch %d: asset %d subject %d lm=%v dest %d %v: feature %d = %v, want %v (got %v, want %v)",
					g.Name(), seed, m.Step(), i, j, lm, dest, a, k, got[k], want[k], got, want)
			}
		}
		cov.rows++
		if want[1] == 1 {
			cov.theta++
		}
		if want[2] > 0 {
			cov.alpha++
		}
		if want[3] != 0 {
			cov.beta++
		}
		if lm && want[5] > 0 {
			cov.risk++
		}
	}
	// walk scores a primed context the way the planners do and checks each
	// row, then checks Features of every action on its own.
	walk := func(i, j int, lm bool, dest DestArg, v grid.NodeID, maxSpeed int) {
		for n, edge := range g.Neighbors(v) {
			if lm && m.Obstacle(edge.To) {
				continue
			}
			alpha := c.Target(n)
			for s := 1; s <= maxSpeed; s++ {
				buf = c.AppendSpeed(buf[:0], s)
				if alpha != buf[2] {
					t.Fatalf("Target returned α %v, the vector holds %v", alpha, buf[2])
				}
				check(i, j, lm, dest, sim.Action{Neighbor: n, Speed: s}, buf)
			}
			if masked {
				unmasked := m.CountUnsensed(i, edge.To, m.Asset(j).SensingRadius, nil)
				if float64(unmasked)/float64(g.MaxOutDegree()) != alpha {
					cov.maskedOut++ // the mask dropped a node α would count
				}
			}
		}
		c.Target(sim.Wait.Neighbor)
		check(i, j, lm, dest, sim.Wait, c.AppendSpeed(buf[:0], 0))
		for _, a := range sim.LegalActions(g, v, maxSpeed) {
			check(i, j, lm, dest, a, c.Features(a))
		}
	}
	for !m.Done() {
		for i := range m.NumAssets() {
			for _, dest := range []DestArg{NoDest, sc.Dest} {
				e.LMContextInto(&c, m, i, dest)
				walk(i, i, true, dest, m.Cur(i), m.Asset(i).MaxSpeed)
				for j := range m.NumAssets() {
					if j != i {
						e.TMMContextInto(&c, m, i, j, dest)
						walk(i, j, false, dest, m.Knowledge(i).LastKnown[j], m.Asset(j).MaxSpeed)
					}
				}
			}
		}
		acts := make([]sim.Action, m.NumAssets())
		for i := range acts {
			legal := m.LegalActionsFor(i)
			acts[i] = legal[rng.Intn(len(legal))]
		}
		if _, err := m.ExecuteStep(acts); err != nil {
			t.Fatal(err)
		}
	}
}

package sim

import (
	"testing"

	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/vessel"
)

func TestRendezvousExtendsMissionPastDiscovery(t *testing.T) {
	// Line of 12: asset 1 discovers quickly; asset 0 must still sail the
	// whole line before the mission completes.
	g := grid.Path("line", 12, 1)
	sc := Scenario{
		Grid:       g,
		Team:       vessel.NewTeam([]grid.NodeID{0, 8}, 1.5, 2),
		Dest:       10,
		CommEvery:  3,
		Rendezvous: true,
	}
	// Drive both assets rightward with scripted moves; after discovery the
	// script keeps moving asset 0 right and parks asset 1.
	m, err := NewMission(sc, RunOptions{})
	if err != nil {
		t.Fatalf("NewMission: %v", err)
	}
	steps := 0
	for !m.Done() && steps < 100 {
		acts := make([]Action, 2)
		for i := 0; i < 2; i++ {
			cur := m.Cur(i)
			if g.Distance(cur, sc.Dest) <= sc.Team[i].SensingRadius {
				acts[i] = Wait
				continue
			}
			acts[i] = toward(g, cur, cur+1)
		}
		if _, err := m.ExecuteStep(acts); err != nil {
			t.Fatalf("ExecuteStep: %v", err)
		}
		steps++
	}
	res := m.Result()
	if !res.Found {
		t.Fatalf("mission unfound: %+v", res)
	}
	// Asset 1 senses node 10 from node 9: one move after start... source 8
	// -> 9 at step 1. Discovery at step 1; rendezvous continues until asset
	// 0 (from 0) reaches within 1.5 of node 10 (node 9), ~9 steps.
	if res.DiscoverySteps >= res.Steps {
		t.Fatalf("rendezvous should extend past discovery: disc %d, steps %d",
			res.DiscoverySteps, res.Steps)
	}
	if res.DiscoverySteps != 1 {
		t.Errorf("discovery at step %d, want 1", res.DiscoverySteps)
	}
	// Everyone is within sensing range of the destination at the end.
	for i := 0; i < m.NumAssets(); i++ {
		if g.Distance(m.Cur(i), sc.Dest) > sc.Team[i].SensingRadius {
			t.Errorf("asset %d ended %v away from the destination", i, g.Distance(m.Cur(i), sc.Dest))
		}
	}
}

func TestNonRendezvousEndsAtDiscovery(t *testing.T) {
	g := grid.Path("line", 12, 1)
	sc := Scenario{
		Grid:      g,
		Team:      vessel.NewTeam([]grid.NodeID{0, 8}, 1.5, 2),
		Dest:      10,
		CommEvery: 3,
	}
	p := &scripted{seqs: [][]Action{
		nil,
		{toward(g, 8, 9)},
	}}
	res, err := Run(sc, p, RunOptions{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Found || res.DiscoverySteps != res.Steps {
		t.Fatalf("non-rendezvous mission must end at discovery: %+v", res)
	}
}

func TestNavigatorStepsTowardTarget(t *testing.T) {
	g := grid.Lattice("map", 6, 6)
	sc := Scenario{
		Grid:      g,
		Team:      vessel.NewTeam([]grid.NodeID{0, 35}, 1.2, 2),
		Dest:      grid.NodeID(30), // (0,5)
		CommEvery: 3,
	}
	m, err := NewMission(sc, RunOptions{})
	if err != nil {
		t.Fatalf("NewMission: %v", err)
	}
	var nv Navigator
	target := grid.NodeID(5) // (5,0): far corner from asset 0
	steps := 0
	for g.Distance(m.Cur(0), target) > sc.Team[0].SensingRadius && steps < 20 {
		a, ok := nv.Step(m, 0, target)
		if !ok {
			t.Fatal("navigator found no route on a lattice")
		}
		if a.IsWait() {
			t.Fatalf("navigator waited with a clear corridor at step %d", steps)
		}
		if _, err := m.ExecuteStep([]Action{a, Wait}); err != nil {
			t.Fatalf("ExecuteStep: %v", err)
		}
		steps++
	}
	// Shortest hop distance from (0,0) to within 1.2 of (5,0) is 4 moves.
	if steps > 6 {
		t.Errorf("navigator took %d steps, want <= 6", steps)
	}
	// Arrived: Step either parks or drifts deeper into the arrival zone,
	// but never back out of it.
	a, ok := nv.Step(m, 0, target)
	if !ok {
		t.Fatalf("arrived navigator errored: %v %v", a, ok)
	}
	if !a.IsWait() {
		to, _ := m.Apply(m.Cur(0), a)
		if g.Distance(to, target) > g.Distance(m.Cur(0), target) {
			t.Errorf("arrived drift moved away from the target: %v", a)
		}
	}
}

func TestNavigatorYieldsToOccupiedCorridor(t *testing.T) {
	g := grid.Path("line", 6, 1)
	sc := Scenario{
		Grid:      g,
		Team:      vessel.NewTeam([]grid.NodeID{0, 1}, 0.5, 1),
		Dest:      5,
		CommEvery: 1,
	}
	m, err := NewMission(sc, RunOptions{})
	if err != nil {
		t.Fatalf("NewMission: %v", err)
	}
	var nv Navigator
	// Asset 0's only route to node 5 runs through node 1, occupied by a
	// teammate: the navigator must yield.
	a, ok := nv.Step(m, 0, 5)
	if !ok || !a.IsWait() {
		t.Fatalf("expected yield, got %v %v", a, ok)
	}
}

func TestNavigatorRoutesAroundObstacles(t *testing.T) {
	g := grid.Lattice("walled", 7, 5)
	id := func(x, y int) grid.NodeID { return grid.NodeID(y*7 + x) }
	var wall []grid.NodeID
	for y := 0; y < 4; y++ {
		wall = append(wall, id(3, y))
	}
	sc := Scenario{
		Grid:      g,
		Team:      vessel.NewTeam([]grid.NodeID{id(0, 0)}, 0.9, 2),
		Dest:      id(6, 0),
		CommEvery: 3,
		Obstacles: wall,
	}
	m, err := NewMission(sc, RunOptions{})
	if err != nil {
		t.Fatalf("NewMission: %v", err)
	}
	var nv Navigator
	steps := 0
	for g.Distance(m.Cur(0), sc.Dest) > 0.9 && steps < 40 {
		a, ok := nv.Step(m, 0, sc.Dest)
		if !ok {
			t.Fatal("no route around the wall")
		}
		if !a.IsWait() {
			to, _ := m.Apply(m.Cur(0), a)
			if m.Obstacle(to) {
				t.Fatal("navigator stepped into an obstacle")
			}
		}
		if _, err := m.ExecuteStep([]Action{a}); err != nil {
			t.Fatalf("ExecuteStep: %v", err)
		}
		steps++
	}
	if g.Distance(m.Cur(0), sc.Dest) > 0.9 {
		t.Fatalf("navigator never rounded the wall (%d steps)", steps)
	}
	// The detour through the gap costs more than the straight line of 6.
	if steps <= 6 {
		t.Errorf("steps = %d; the wall should force a longer route", steps)
	}
}

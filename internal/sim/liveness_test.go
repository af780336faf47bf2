package sim

import (
	"math/rand"
	"testing"

	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/vessel"
)

// TestLivenessWatchdog checks the zero value's stall watchdog: per asset,
// it fires on the call after stallPatience calls without sensing progress,
// and sensing progress resets it.
func TestLivenessWatchdog(t *testing.T) {
	sc := toyScenario(t)
	m, err := NewMission(sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var l Liveness
	for k := 0; k <= stallPatience; k++ {
		if got, want := l.Stalled(m, 0), k == stallPatience; got != want {
			t.Fatalf("call %d: stalled = %v, want %v", k+1, got, want)
		}
	}
	if l.Stalled(m, 1) {
		t.Error("asset 1 inherited asset 0's stall")
	}
	// Asset 0 steps 0 -> 1 and senses node 2.
	if _, err := m.ExecuteStep([]Action{toward(sc.Grid, 0, 1), Wait}); err != nil {
		t.Fatal(err)
	}
	if l.Stalled(m, 0) {
		t.Error("sensing progress did not reset the watchdog")
	}
}

// TestLivenessTransit checks that Transit waits for the broadcast and then
// is the navigator's step toward the destination.
func TestLivenessTransit(t *testing.T) {
	sc := toyScenario(t)
	sc.Rendezvous = true
	m, err := NewMission(sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var l Liveness
	if a, ok := l.Transit(m, 0); ok || a != Wait {
		t.Fatalf("transit before the broadcast = %v, %v", a, ok)
	}
	// Asset 1 walks 9 -> 8 -> 7 and senses the destination, node 6.
	for _, a := range []Action{toward(sc.Grid, 9, 8), toward(sc.Grid, 8, 7)} {
		if _, err := m.ExecuteStep([]Action{Wait, a}); err != nil {
			t.Fatal(err)
		}
	}
	var nv Navigator
	want, wantOK := nv.Step(m, 0, sc.Dest)
	if got, ok := l.Transit(m, 0); got != want || ok != wantOK || !ok {
		t.Errorf("transit after the broadcast = %v, %v; navigator gives %v, %v", got, ok, want, wantOK)
	}
}

// TestLivenessFrontier checks that Frontier is FrontierStep detouring away
// from the node Left last recorded (node 0 before any), over a mission
// whose every third node is blocked so detours happen.
func TestLivenessFrontier(t *testing.T) {
	g, err := grid.GenerateSynthetic(grid.SyntheticConfig{Nodes: 300, Edges: 640, MaxOutDegree: 8, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	sources := []grid.NodeID{1, 150, 299}
	sc := Scenario{Grid: g, Team: vessel.NewTeam(sources, 2*g.AvgEdgeWeight(), 3), Dest: 200, CommEvery: 4}
	m, err := NewMission(sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	blocked := func(v grid.NodeID) bool { return v%3 == 0 }
	var l Liveness
	prev := make([]grid.NodeID, len(sources))
	acts := make([]Action, len(sources))
	steps := 0
	for ; steps < 60 && !m.Done(); steps++ {
		for i := range acts {
			want, wantOK := FrontierStep(m, i, blocked, nil, prev[i], rand.New(rand.NewSource(int64(steps))), true)
			got, gotOK := l.Frontier(m, i, blocked, nil, rand.New(rand.NewSource(int64(steps))), true)
			if got != want || gotOK != wantOK {
				t.Fatalf("step %d asset %d: Frontier %v/%v, FrontierStep %v/%v", steps, i, got, gotOK, want, wantOK)
			}
			acts[i] = want
			l.Left(m, i)
			prev[i] = m.Cur(i)
		}
		if _, err := m.ExecuteStep(acts); err != nil {
			t.Fatal(err)
		}
	}
	if steps < 10 {
		t.Fatalf("mission ended after %d steps; the fixture exercises too little", steps)
	}
}

package baselines

import (
	"testing"

	"github.com/routeplanning/mamorl/internal/approx"
	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/sim"
	"github.com/routeplanning/mamorl/internal/vessel"
)

func scenario(t *testing.T, seed int64, assets int) sim.Scenario {
	t.Helper()
	g, err := grid.GenerateSynthetic(grid.SyntheticConfig{Nodes: 150, Edges: 330, MaxOutDegree: 8, Seed: seed})
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	sc, err := approx.TrainingScenario(g, assets, 3, 1.2, 3)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	return sc
}

func TestRoundRobinFindsDestination(t *testing.T) {
	sc := scenario(t, 5, 2)
	res, err := sim.Run(sc, NewRoundRobin(1), sim.RunOptions{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Found {
		t.Fatalf("Baseline-1 failed: %+v", res)
	}
	if res.Collisions != 0 {
		t.Errorf("Baseline-1 collided %d times", res.Collisions)
	}
}

func TestRoundRobinOnlyOneMoverPerEpoch(t *testing.T) {
	sc := scenario(t, 7, 3)
	p := NewRoundRobin(2)
	m, err := sim.NewMission(sc, sim.RunOptions{})
	if err != nil {
		t.Fatalf("NewMission: %v", err)
	}
	for step := 0; !m.Done() && step < 50; step++ {
		movers := 0
		acts := make([]sim.Action, m.NumAssets())
		for i := range acts {
			acts[i] = p.Decide(m, i)
			if !acts[i].IsWait() {
				movers++
			}
		}
		if movers > 1 {
			t.Fatalf("step %d: %d assets moved; round robin allows 1", step, movers)
		}
		if _, err := m.ExecuteStep(acts); err != nil {
			t.Fatalf("ExecuteStep: %v", err)
		}
	}
}

func TestRoundRobinSlowerThanParallelSearch(t *testing.T) {
	// The paper's prediction: Baseline-1 trades time for fuel. Its T_total
	// should exceed a parallel explorer's on the same instance.
	sc := scenario(t, 9, 3)
	rr, err := sim.Run(sc, NewRoundRobin(3), sim.RunOptions{})
	if err != nil {
		t.Fatalf("Run RR: %v", err)
	}
	ind, err := sim.Run(sc, NewIndependent(3), sim.RunOptions{})
	if err != nil {
		t.Fatalf("Run Ind: %v", err)
	}
	if !rr.Found || !ind.Found {
		t.Fatalf("both should find: rr=%+v ind=%+v", rr, ind)
	}
	if rr.TTotal <= ind.TTotal {
		t.Errorf("round robin T_total %v should exceed parallel %v", rr.TTotal, ind.TTotal)
	}
}

func TestIndependentCollidesOften(t *testing.T) {
	// Baseline-2's defining property (Table 6): collision-prone. Over
	// several seeds with several assets, most runs must record collisions.
	collided := 0
	const runs = 10
	for s := int64(0); s < runs; s++ {
		sc := scenario(t, 100+s, 4)
		res, err := sim.Run(sc, NewIndependent(s), sim.RunOptions{})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if res.Collisions > 0 {
			collided++
		}
	}
	if collided < runs/2 {
		t.Errorf("Baseline-2 collided in only %d/%d runs; the paper reports >97%%", collided, runs)
	}
}

func TestIndependentAbortsUnderTable6Policy(t *testing.T) {
	// Under AbortOnCollision (how Table 6 evaluates it), a colliding run
	// terminates as aborted.
	aborted := false
	for s := int64(0); s < 10 && !aborted; s++ {
		sc := scenario(t, 200+s, 4)
		res, err := sim.Run(sc, NewIndependent(s), sim.RunOptions{Collision: sim.AbortOnCollision})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		aborted = aborted || res.Aborted
	}
	if !aborted {
		t.Error("no run aborted; expected collision aborts for Baseline-2")
	}
}

func TestRandomWalkEventuallyFindsOnSmallGrid(t *testing.T) {
	sc := scenario(t, 11, 2)
	sc.MaxSteps = 100000
	res, err := sim.Run(sc, NewRandomWalk(4), sim.RunOptions{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Found {
		t.Fatalf("random walk never found the destination in %d steps", res.Steps)
	}
}

func TestRandomWalkWorseThanGreedy(t *testing.T) {
	// Random walk must burn far more fuel than directed search, mirroring
	// Table 6's orders-of-magnitude gap.
	sc := scenario(t, 13, 2)
	sc.MaxSteps = 100000
	rw, err := sim.Run(sc, NewRandomWalk(8), sim.RunOptions{})
	if err != nil {
		t.Fatalf("Run RW: %v", err)
	}
	ind, err := sim.Run(sc, NewIndependent(8), sim.RunOptions{})
	if err != nil {
		t.Fatalf("Run Ind: %v", err)
	}
	if !rw.Found || !ind.Found {
		t.Skipf("run did not finish: rw=%v ind=%v", rw.Found, ind.Found)
	}
	if rw.FTotal <= ind.FTotal {
		t.Errorf("random walk fuel %v should exceed greedy %v", rw.FTotal, ind.FTotal)
	}
}

func TestNames(t *testing.T) {
	if NewRoundRobin(0).Name() != "Baseline-1" {
		t.Error("RoundRobin name")
	}
	if NewIndependent(0).Name() != "Baseline-2" {
		t.Error("Independent name")
	}
	if NewRandomWalk(0).Name() != "Random Walk" {
		t.Error("RandomWalk name")
	}
}

func TestBaselinesRespectObstacles(t *testing.T) {
	g := grid.Lattice("walled", 9, 7)
	id := func(x, y int) grid.NodeID { return grid.NodeID(y*9 + x) }
	var wall []grid.NodeID
	for y := 0; y < 6; y++ {
		wall = append(wall, id(4, y))
	}
	obst := map[grid.NodeID]bool{}
	for _, v := range wall {
		obst[v] = true
	}
	sc := sim.Scenario{
		Grid:      g,
		Team:      vessel.NewTeam([]grid.NodeID{id(0, 0), id(0, 6)}, 1.2, 2),
		Dest:      id(8, 0),
		CommEvery: 3,
		Obstacles: wall,
		MaxSteps:  5000,
	}
	if err := sc.Validate(); err != nil {
		t.Fatalf("scenario: %v", err)
	}
	planners := []sim.Planner{
		NewRoundRobin(1),
		NewIndependent(1),
		NewRandomWalk(1),
	}
	for _, p := range planners {
		entered := false
		res, err := sim.Run(sc, p, sim.RunOptions{OnStep: func(m *sim.Mission, _ []sim.Action) {
			for i := 0; i < m.NumAssets(); i++ {
				if obst[m.Cur(i)] {
					entered = true
				}
			}
		}})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if entered {
			t.Errorf("%s entered an obstacle", p.Name())
		}
		if !res.Found {
			t.Errorf("%s did not finish: %+v", p.Name(), res)
		}
	}
}

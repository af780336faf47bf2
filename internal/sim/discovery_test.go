package sim

import (
	"math/rand"
	"testing"

	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/vessel"
)

// TestDiscoveryFlagsMatchDistance: the discovery flag sensing leaves for
// each asset reads exactly Distance(cur, Dest) <= its sensing radius after
// every epoch of seeded random-play rendezvous missions on the Caribbean
// mesh and a planar synthetic grid. The team's five distinct radii leave
// one past the sensing-ball memo's table limit, so senseFrom's scan path
// runs too; and the mission is done exactly when the distance test says
// every asset has gathered.
func TestDiscoveryFlagsMatchDistance(t *testing.T) {
	caribbean, err := grid.CaribbeanGrid(1)
	if err != nil {
		t.Fatal(err)
	}
	planar, err := grid.GenerateSynthetic(grid.SyntheticConfig{Nodes: 300, Edges: 640, MaxOutDegree: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*grid.Grid{caribbean, planar} {
		avg := g.AvgEdgeWeight()
		rng := rand.New(rand.NewSource(int64(g.NumNodes())))
		seen, scanned := 0, 0
		for run := 0; run < 6; run++ {
			team := make(vessel.Team, 5)
			for k := range team {
				team[k] = vessel.Asset{ID: k, Source: grid.NodeID(rng.Intn(g.NumNodes())),
					SensingRadius: avg * (1 + 0.4*float64(k)), MaxSpeed: 2}
			}
			sc := Scenario{Grid: g, Team: team, Dest: grid.NodeID(rng.Intn(g.NumNodes())),
				CommEvery: 3, MaxSteps: 150, Rendezvous: true}
			m, err := NewMission(sc, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for {
				all := true
				for i, a := range team {
					want := g.Distance(m.Cur(i), sc.Dest) <= a.SensingRadius
					if m.know[i].sensesDest != want {
						t.Fatalf("%s run %d epoch %d: asset %d at %d flags dest %d seen = %v, Distance %v <= %v is %v",
							g.Name(), run, m.Step(), i, m.Cur(i), sc.Dest, m.know[i].sensesDest, g.Distance(m.Cur(i), sc.Dest), a.SensingRadius, want)
					}
					if want {
						seen++
					}
					if _, ok := g.Ball(m.Cur(i), a.SensingRadius); !ok {
						scanned++
					}
					all = all && want
				}
				if found := m.Result().Found; found && all != m.Done() && m.Step() < sc.MaxSteps {
					t.Fatalf("%s run %d epoch %d: every asset gathered = %v, Done = %v", g.Name(), run, m.Step(), all, m.Done())
				}
				if m.Done() {
					break
				}
				acts := make([]Action, len(team))
				for i := range acts {
					legal := m.LegalActionsFor(i)
					acts[i] = legal[rng.Intn(len(legal))]
				}
				if _, err := m.ExecuteStep(acts); err != nil {
					t.Fatal(err)
				}
			}
		}
		if seen == 0 || scanned == 0 {
			t.Fatalf("%s: %d in-range flags, %d scanned balls; the test must see both", g.Name(), seen, scanned)
		}
	}
}

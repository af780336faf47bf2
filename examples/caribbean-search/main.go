// Caribbean search and rescue: every implemented planner on the paper's
// Caribbean dataset.
//
// A drifting vessel (the destination) is lost somewhere in the Caribbean.
// A mixed team of three search assets sails from known ports and must find
// it, minimizing fuel and the time to discovery. The example compares
// Approx-MaMoRL, its partial-knowledge variant (the search region is known
// from the vessel's last radio contact), and the baselines — the Table 6
// comparison on real-world-shaped data.
//
//	go run ./examples/caribbean-search
package main

import (
	"fmt"
	"log"

	mamorl "github.com/routeplanning/mamorl"
)

// exclusionZone closes a patch of ocean around a point far from both the
// team and the destination, keeping the scenario valid.
func exclusionZone(g *mamorl.Grid, sc mamorl.Scenario) []mamorl.NodeID {
	keep := map[mamorl.NodeID]bool{sc.Dest: true}
	for _, a := range sc.Team {
		keep[a.Source] = true
	}
	// Center the zone between the first source and the destination.
	mid := mamorl.Point{
		X: (g.Pos(sc.Team[0].Source).X + g.Pos(sc.Dest).X) / 2,
		Y: (g.Pos(sc.Team[0].Source).Y + g.Pos(sc.Dest).Y) / 2,
	}
	center := g.NearestNode(mid)
	radius := 1.5 * g.AvgEdgeWeight()
	var zone []mamorl.NodeID
	for _, v := range g.WithinRadius(center, radius) {
		if !keep[v] {
			zone = append(zone, v)
		}
	}
	// The zone must not disconnect anything; the caller validates via the
	// scenario. Shrink it if validation would fail.
	test := sc
	test.Obstacles = zone
	if err := test.Validate(); err != nil {
		return nil // fall back to open ocean rather than crash the demo
	}
	return zone
}

func main() {
	fmt.Println("building the Caribbean grid (710 nodes, 1684 edges — Table 3)...")
	g, err := mamorl.CaribbeanGrid(7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("grid: %v\n", g.Stats())

	fmt.Println("training Approx-MaMoRL...")
	model, err := mamorl.Train(mamorl.TrainConfig{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}

	// Three assets from spread-out ports; sensing radius of 1.5 average
	// edge lengths (tens of nautical miles); location exchange every 3
	// decision epochs.
	sc, err := mamorl.NewScenario(g, 3, 1.5, 3, 3)
	if err != nil {
		log.Fatal(err)
	}

	// An exclusion zone (reef / restricted waters): no asset may enter.
	// Pick a patch of nodes away from the sources and destination.
	sc.Obstacles = exclusionZone(g, sc)
	fmt.Printf("exclusion zone: %d nodes closed to navigation\n", len(sc.Obstacles))
	fmt.Printf("lost vessel at node %d %v (unknown to the searchers)\n\n", sc.Dest, g.Pos(sc.Dest))

	// The partial-knowledge variant knows the vessel is inside a box around
	// its last reported position.
	d := g.Pos(sc.Dest)
	region := mamorl.NewRect(
		mamorl.Point{X: d.X - 3, Y: d.Y - 3},
		mamorl.Point{X: d.X + 3, Y: d.Y + 3},
	)
	pk, err := model.NewPartialKnowledgePlanner(sc, region, 7)
	if err != nil {
		log.Fatal(err)
	}
	b2, b2opts, err := mamorl.PlannerFor("baseline2", sc, 7, nil)
	if err != nil {
		log.Fatal(err)
	}

	planners := []struct {
		name string
		p    mamorl.Planner
		opts mamorl.RunOptions
	}{
		{"Approx-MaMoRL", model.NewPlanner(7), mamorl.RunOptions{}},
		{"Approx-MaMoRL + partial knowledge", pk, mamorl.RunOptions{}},
		{"Baseline-1 (round robin)", mamorl.NewBaseline1(7), mamorl.RunOptions{}},
		{"Baseline-2 (independent)", b2, b2opts},
		{"Random walk", mamorl.NewRandomWalk(7), mamorl.RunOptions{}},
	}

	fmt.Printf("%-36s %10s %12s %8s %s\n", "planner", "T_total", "F_total", "steps", "outcome")
	for _, entry := range planners {
		sc2 := sc
		if entry.name == "Random walk" {
			sc2.MaxSteps = g.NumNodes() * 150 // random walks need room
		}
		res, err := mamorl.Run(sc2, entry.p, entry.opts)
		if err != nil {
			log.Fatalf("%s: %v", entry.name, err)
		}
		outcome := "found"
		if res.Aborted {
			outcome = "ABORTED (collision)"
		} else if !res.Found {
			outcome = "not found"
		}
		fmt.Printf("%-36s %10.1f %12.1f %8d %s\n", entry.name, res.TTotal, res.FTotal, res.Steps, outcome)
	}
}

package algo_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sync"
	"testing"

	"github.com/routeplanning/mamorl/internal/algo"
	"github.com/routeplanning/mamorl/internal/approx"
	"github.com/routeplanning/mamorl/internal/core"
	"github.com/routeplanning/mamorl/internal/features"
	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/partial"
	"github.com/routeplanning/mamorl/internal/rewardfn"
	"github.com/routeplanning/mamorl/internal/sim"
)

// goldenPlans pins every planner's plans across commits: each digest is the
// SHA-256 of every epoch's joint action plus the Result, for the five table
// planners, the five approx ablation variants, and exact MaMoRL trained for
// four episodes (alone, then wrapped by partial.NewPlanner, which calls
// MaskedTo), all on one instance. A refactor that claims to keep behaviour
// must keep these bytes; a deliberate behaviour change re-records them and
// says why.
var goldenPlans = map[string]string{
	"v200n3/seed1/plain":      "8a858642d7d7b1a4a793b9dad530b69988aaecaceac4818b80118e30dbcea8e6",
	"v200n3/seed1/rendezvous": "ac0b41fd9018c744ea6dd25e6878d9436ef0dcedf46f1aec7906544f0e02f59b",
	"v200n3/seed1/obstacles":  "24a4249743cf0639e2b7a68b6a30c9179bdf33af01e971d7e55fdd4941f043a1",
	"v200n3/seed2/plain":      "fc8e0401aa02397b88a8746278b28d3475926e0883d4246d8f5f62d0a8943cd3",
	"v200n3/seed2/rendezvous": "1fbfde07bafa839bc326f131c2538cc93973a6a6911a92de8dc847dd99102645",
	"v200n3/seed2/obstacles":  "23cc12f052934a99fdde3751786587b13d7f7439be0c5e7b8ad4bedae6993b37",
	"v200n3/seed3/plain":      "abb7b79c188d6ddbc007feb39a24fe73653c097469592c691a2f4adcf5e8c2e9",
	"v200n3/seed3/rendezvous": "08ae1929fb21c36c8a0adf9df661b052944e9fb531a972bf04d12a45ed0bde6f",
	"v200n3/seed3/obstacles":  "3836ca13465b5e1143de52260a45486046e745b73565fadf8759d71b7918fd60",
	"v200n3/seed4/plain":      "1153e74f7372e6a60b4e6c439f3db64f1ed5619bef8543a22d60460457842f64",
	"v200n3/seed4/rendezvous": "2d972ee41b299b5bb0efe946958c222c3b821af690a96e6c12472c8ffa201146",
	"v200n3/seed4/obstacles":  "2cd2d7520dd174b44ebb58f9116711aab9336e306a82bda6e4f2941a87c0a72d",
	"v50n2/seed1/plain":       "547e38a07fe0bbb65594e184bcce3661e87d4c8d3ebcad334e9654e3f70eb98e",
	"v50n2/seed1/rendezvous":  "1d3ef41ed11e64b977d92d3e0b317042c908ca614c1c79c3535509b288df62b0",
	"v50n2/seed1/obstacles":   "cd244ed2d993eecac02d6976cc3175148116b660720bf563c993c0b61542b6df",
	"v50n2/seed2/plain":       "f4d0ec8fc0d9a9348d264d6f5d64cd4c4a45a4895b74ba4e8a27292fd9b8a689",
	"v50n2/seed2/rendezvous":  "aee541a39620b178c3dff7b52dcf2617758cd4eb3be558c3da1e5217ab737aca",
	"v50n2/seed2/obstacles":   "f88a113bd5ac816cfc81137ef25a2ce31b53bc7ca4235605fc100deecb9d868d",
	"v50n2/seed3/plain":       "3bf6a3290af949e8db046c4ec55303f80dafc496b384f4de19cd6474527f41b2",
	"v50n2/seed3/rendezvous":  "e5842be320dc9b5d65b01cd40af9e070da084163208c337912d7b820423a328c",
	"v50n2/seed3/obstacles":   "e5078d470742dbae09dc48f0013a56117e91ecf96745bd0fb26e31125cd95258",
	"v50n2/seed4/plain":       "3688365a83c843203a5365064bc96a3dd2830849a8a821875f4e7e1ea690cfbc",
	"v50n2/seed4/rendezvous":  "91c5255f8d177dc9a9a0bbe62d62802049776d14f365e72b7d1998bd49a9369f",
	"v50n2/seed4/obstacles":   "cd2d71ab8531041c9a2e1038c6f1e7d4030e3df92ba88d57f9cb47c379bd49f5",
}

// goldenShapes are a Table 6-shaped grid with a three-asset team and the
// Section 4.2 training shape with two assets.
var goldenShapes = []struct {
	name                 string
	nodes, edges, maxDeg int
	assets               int
}{
	{"v200n3", 200, 430, 9, 3},
	{"v50n2", 50, 93, 5, 2},
}

var goldenModel = sync.OnceValues(func() (approx.Model, error) {
	p, err := approx.NewPipeline(approx.TrainConfig{Seed: 1, SampleEpisodes: 3})
	if err != nil {
		return nil, err
	}
	m, _, err := approx.FitLinear(p.Data)
	return m, err
})

// goldenObstacles picks every seventh node as an obstacle, skipping any
// that would make the scenario invalid (a source, the destination, or a cut
// that strands an asset).
func goldenObstacles(sc sim.Scenario) []grid.NodeID {
	var obs []grid.NodeID
	for v := grid.NodeID(3); int(v) < sc.Grid.NumNodes(); v += 7 {
		try := sc
		try.Obstacles = append(append([]grid.NodeID(nil), obs...), v)
		if try.Validate() == nil {
			obs = try.Obstacles
		}
	}
	return obs
}

func TestGoldenPlans(t *testing.T) {
	model, err := goldenModel()
	if err != nil {
		t.Fatalf("model: %v", err)
	}
	got := map[string]string{}
	for _, shape := range goldenShapes {
		for seed := int64(1); seed <= 4; seed++ {
			g, err := grid.GenerateSynthetic(grid.SyntheticConfig{
				Nodes: shape.nodes, Edges: shape.edges, MaxOutDegree: shape.maxDeg, Seed: seed})
			if err != nil {
				t.Fatalf("grid: %v", err)
			}
			base, err := approx.TrainingScenario(g, shape.assets, 3, 1.2, 3)
			if err != nil {
				t.Fatalf("scenario: %v", err)
			}
			for _, variant := range []string{"plain", "rendezvous", "obstacles"} {
				sc := base
				if variant != "plain" {
					sc.Rendezvous = true
				}
				if variant == "obstacles" {
					sc.Obstacles = goldenObstacles(sc)
				}
				key := fmt.Sprintf("%s/seed%d/%s", shape.name, seed, variant)
				h := sha256.New()
				goldenInstance(t, h, sc, model, seed)
				got[key] = hex.EncodeToString(h.Sum(nil))
			}
		}
	}
	if len(got) != 24 {
		t.Fatalf("%d digests, want 24", len(got))
	}
	for key, sum := range got {
		if want := goldenPlans[key]; sum != want {
			t.Errorf("%s: digest %s, want %s", key, sum, want)
		}
	}
	if t.Failed() {
		for _, shape := range goldenShapes {
			for seed := 1; seed <= 4; seed++ {
				for _, variant := range []string{"plain", "rendezvous", "obstacles"} {
					key := fmt.Sprintf("%s/seed%d/%s", shape.name, seed, variant)
					t.Logf("%q: %q,", key, got[key])
				}
			}
		}
	}
}

// hashPlan runs pl on sc and feeds every epoch's joint action and the
// Result into h.
func hashPlan(h hash.Hash, sc sim.Scenario, pl sim.Planner, opts sim.RunOptions) {
	opts.OnStep = func(_ *sim.Mission, acts []sim.Action) {
		for _, a := range acts {
			fmt.Fprintf(h, "%s ", a)
		}
		h.Write([]byte{'\n'})
	}
	r, err := sim.Run(sc, pl, opts)
	fmt.Fprintf(h, "found=%v by=%d steps=%d discovery=%d t=%v f=%v collisions=%d aborted=%v err=%v\n",
		r.Found, r.FoundBy, r.Steps, r.DiscoverySteps, r.TTotal, r.FTotal, r.Collisions, r.Aborted, err)
}

// goldenInstance runs every pinned planner on sc and feeds each plan into h.
func goldenInstance(t *testing.T, h hash.Hash, sc sim.Scenario, model approx.Model, seed int64) {
	t.Helper()
	run := func(name string, pl sim.Planner, opts sim.RunOptions, err error) {
		fmt.Fprintf(h, "%s\n", name)
		if err != nil {
			fmt.Fprintf(h, "error %v\n", err)
			return
		}
		hashPlan(h, sc, pl, opts)
	}
	in := algo.Inputs{Scenario: sc, Model: model, Ext: features.New(),
		Region: partial.DestRegion(sc), Seed: seed}
	for _, name := range wireNames {
		e, err := algo.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := e.New(in)
		run(name, pl, sim.RunOptions{Collision: e.Collision}, err)
	}
	for _, opts := range []approx.Options{
		{NoFrontier: true}, {NoVoronoi: true}, {NoRightOfWay: true}, {NoWatchdog: true}, {NoTMMBlocking: true},
	} {
		run(fmt.Sprintf("ablation %+v", opts), approx.NewPlannerOpts(model, in.Ext, seed, opts), sim.RunOptions{}, nil)
	}
	exact, err := core.NewPlanner(sc, core.Config{Episodes: 4, Seed: seed, MemoryBudgetBytes: math.MaxFloat64},
		rewardfn.DefaultWeights())
	if err == nil {
		err = exact.Train()
	}
	if err != nil {
		run("exact", nil, sim.RunOptions{}, err)
		return
	}
	run("exact", exact, sim.RunOptions{}, nil)
	pk, err := partial.NewPlanner(sc, in.Region, exact)
	run("exact-pk", pk, sim.RunOptions{}, err)
}

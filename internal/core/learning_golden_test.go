package core_test

import (
	"math"
	"testing"

	"github.com/routeplanning/mamorl/internal/approx"
	"github.com/routeplanning/mamorl/internal/core"
	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/rewardfn"
)

// goldenEpisode is one training episode's learning arithmetic: the bits of
// the scalarized reward and of the total and maximum |ΔQ|, and the steps.
type goldenEpisode struct {
	reward, qDelta, maxQDelta uint64
	steps                     int
}

// goldenLearning pins exact MaMoRL's learning arithmetic bit for bit, where
// the algo package's golden pin sees only the actions it leads to. Each case
// trains four episodes on one seeded instance; every episode's EpisodeStats
// and the final sparse table sizes must match. Reordering how the Q
// components are stored, read or summed would move a low bit here first.
var goldenLearning = []struct {
	name                 string
	nodes, edges, maxDeg int
	assets, speed        int
	episodes             []goldenEpisode
	pEntries, qEntries   int
}{
	{
		// Table 6's |V|=200 |N|=2 Dmax=9 block at Table 4's speed.
		name: "v200n2", nodes: 200, edges: 430, maxDeg: 9, assets: 2, speed: 5,
		episodes: []goldenEpisode{
			{reward: 0x4061e7c6c0235992, qDelta: 0x409585765d086014, maxQDelta: 0x400ae2fafc8177e9, steps: 1600},
			{reward: 0x402ded7248e9a58b, qDelta: 0x405ca6acf88b2a96, maxQDelta: 0x4007127b5ff9564e, steps: 133},
			{reward: 0x402742642cd5bc3b, qDelta: 0x405563afcf3a8317, maxQDelta: 0x3ff4de87e37e112a, steps: 115},
			{reward: 0x40616b9b7b35800d, qDelta: 0x409651e057fc4b87, maxQDelta: 0x4010028723dc4131, steps: 1542},
		},
		pEntries: 3684, qEntries: 17058,
	},
	{
		// Three assets: conditionalValue's t <= T sum runs over two
		// teammates, each with the other pinned to its argmax.
		name: "v50n3", nodes: 50, edges: 93, maxDeg: 5, assets: 3, speed: 3,
		episodes: []goldenEpisode{
			{reward: 0x3ff8f375ce420a9f, qDelta: 0x4026e03459c5b73c, maxQDelta: 0x3fe51d47ae147ae1, steps: 11},
			{reward: 0x3ffe7df5b536e6e4, qDelta: 0x402d33dcc68d9744, maxQDelta: 0x3fe38ceaf71d98f5, steps: 17},
			{reward: 0x3ff89b745360881c, qDelta: 0x4023ae937a85bba3, maxQDelta: 0x3fd334843e066fc4, steps: 11},
			{reward: 0x3ffc3730965030f8, qDelta: 0x402619b03a77328d, maxQDelta: 0x3fd7458ea0419b0f, steps: 14},
		},
		pEntries: 132, qEntries: 450,
	},
}

func TestLearningGolden(t *testing.T) {
	for _, c := range goldenLearning {
		t.Run(c.name, func(t *testing.T) {
			g, err := grid.GenerateSynthetic(grid.SyntheticConfig{
				Nodes: c.nodes, Edges: c.edges, MaxOutDegree: c.maxDeg, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			sc, err := approx.TrainingScenario(g, c.assets, c.speed, 1.2, 3)
			if err != nil {
				t.Fatal(err)
			}
			var got []goldenEpisode
			pl, err := core.NewPlanner(sc, core.Config{
				Episodes: 4, Seed: 1, MemoryBudgetBytes: math.MaxFloat64,
				OnEpisode: func(st core.EpisodeStats) {
					got = append(got, goldenEpisode{
						reward:    math.Float64bits(st.Reward),
						qDelta:    math.Float64bits(st.QDelta),
						maxQDelta: math.Float64bits(st.MaxQDelta),
						steps:     st.Steps,
					})
				},
			}, rewardfn.DefaultWeights())
			if err != nil {
				t.Fatal(err)
			}
			if err := pl.Train(); err != nil {
				t.Fatal(err)
			}
			st := pl.TableStats()
			same := len(got) == len(c.episodes) && st.PEntries == c.pEntries && st.QEntries == c.qEntries
			for ep := 0; same && ep < len(got); ep++ {
				same = got[ep] == c.episodes[ep]
			}
			if !same {
				for _, e := range got {
					t.Logf("{reward: %#x, qDelta: %#x, maxQDelta: %#x, steps: %d},", e.reward, e.qDelta, e.maxQDelta, e.steps)
				}
				t.Logf("pEntries: %d, qEntries: %d", st.PEntries, st.QEntries)
				t.Error("training diverged from the pinned arithmetic; the values above are this run's")
			}
		})
	}
}

package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/limits"
	"github.com/routeplanning/mamorl/internal/vessel"
)

// exchangeOracle recomputes every asset's sensed set the slow way beside a
// mission: after each move an asset adds its whole sensing ball; a
// communication epoch gives each radio group (the whole team when the
// range is unlimited) the union of its members' sets; the discovery
// broadcast gives every asset the team's union. It counts the exchanges it
// performed, so a case can check that it reached the path it was written
// for.
type exchangeOracle struct {
	sensed [][]bool
	// whole counts periodic exchanges in one group of every asset, partial
	// those in a radio group that leaves someone out, and broadcasts the
	// discovery broadcasts.
	whole, partial, broadcasts int
}

func newExchangeOracle(m *Mission) *exchangeOracle {
	o := &exchangeOracle{sensed: make([][]bool, m.NumAssets())}
	for i := range o.sensed {
		o.sensed[i] = make([]bool, m.Grid().NumNodes())
	}
	o.sense(m)
	o.discovery(m)
	return o
}

// sense adds every asset's sensing ball at its current node.
func (o *exchangeOracle) sense(m *Mission) {
	for i := range o.sensed {
		for _, u := range m.Grid().WithinRadius(m.Cur(i), m.Scenario().Team[i].SensingRadius) {
			o.sensed[i][u] = true
		}
	}
}

// union gives every member of group the union of the group's sets.
func (o *exchangeOracle) union(group []int) {
	for _, i := range group {
		for _, j := range group {
			for v, s := range o.sensed[j] {
				if s {
					o.sensed[i][v] = true
				}
			}
		}
	}
}

// discovery runs the broadcast if the destination was found in the epoch
// the mission has just reached.
func (o *exchangeOracle) discovery(m *Mission) {
	if r := m.Result(); r.Found && r.DiscoverySteps == m.Step() {
		o.broadcasts++
		o.union(everyAsset(m.NumAssets()))
	}
}

// step mirrors one ExecuteStep: sensing, the periodic exchange, discovery.
func (o *exchangeOracle) step(m *Mission) {
	o.sense(m)
	sc := m.Scenario()
	if sc.CommEvery > 0 && m.Step()%sc.CommEvery == 0 {
		for _, g := range linkedGroups(m) {
			switch {
			case len(g) < 2:
			case len(g) == m.NumAssets():
				o.whole++
			default:
				o.partial++
			}
			o.union(g)
		}
	}
	o.discovery(m)
}

// check fails the test unless every asset's Sensed and SensedCount equal
// the oracle's set.
func (o *exchangeOracle) check(t *testing.T, m *Mission, where string) {
	t.Helper()
	for i, want := range o.sensed {
		k := m.Knowledge(i)
		count := 0
		for v, s := range want {
			if s {
				count++
			}
			if k.Sensed[v] != s {
				t.Fatalf("%s: asset %d Sensed[%d] = %v, want %v", where, i, v, k.Sensed[v], s)
			}
		}
		if k.SensedCount != count {
			t.Fatalf("%s: asset %d SensedCount = %d, want %d", where, i, k.SensedCount, count)
		}
	}
}

func everyAsset(n int) []int {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return all
}

// linkedGroups partitions the team into radio groups by flooding links of
// at most CommRange; an unlimited range (0) links everyone.
func linkedGroups(m *Mission) [][]int {
	sc := m.Scenario()
	n := m.NumAssets()
	if sc.CommRange <= 0 {
		return [][]int{everyAsset(n)}
	}
	label := make([]int, n)
	for i := range label {
		label[i] = -1
	}
	var groups [][]int
	for r := 0; r < n; r++ {
		if label[r] >= 0 {
			continue
		}
		label[r] = len(groups)
		g := []int{r}
		for head := 0; head < len(g); head++ {
			for j := 0; j < n; j++ {
				if label[j] < 0 && sc.Grid.Distance(m.Cur(g[head]), m.Cur(j)) <= sc.CommRange {
					label[j] = label[r]
					g = append(g, j)
				}
			}
		}
		groups = append(groups, g)
	}
	return groups
}

// playExchanges runs up to steps epochs of seeded random legal actions and
// compares the mission's sensed sets with the oracle's after NewMission and
// after every ExecuteStep. After each whole-team exchange of two or more
// assets it also checks that every fresh list starts over, so the next
// one costs only what the team senses in between.
func playExchanges(t *testing.T, sc Scenario, steps int, seed int64) *exchangeOracle {
	t.Helper()
	m, err := NewMission(sc, RunOptions{})
	if err != nil {
		t.Fatalf("NewMission: %v", err)
	}
	o := newExchangeOracle(m)
	o.check(t, m, "after NewMission")
	rng := rand.New(rand.NewSource(seed))
	acts := make([]Action, len(sc.Team))
	for s := 0; s < steps && !m.Done(); s++ {
		for i := range acts {
			legal := m.LegalActionsFor(i)
			acts[i] = legal[rng.Intn(len(legal))]
		}
		if _, err := m.ExecuteStep(acts); err != nil {
			t.Fatalf("ExecuteStep: %v", err)
		}
		wholeTeam := o.whole + o.broadcasts
		o.step(m)
		where := fmt.Sprintf("after epoch %d", m.Step())
		o.check(t, m, where)
		if m.NumAssets() > 1 && o.whole+o.broadcasts > wholeTeam {
			for i, fresh := range m.fresh {
				if len(fresh) != 0 {
					t.Fatalf("%s: asset %d keeps %d fresh nodes past a whole-team exchange", where, i, len(fresh))
				}
			}
		}
	}
	return o
}

// TestExchangeMatchesOracle: the fresh-list whole-team exchange and the
// ranged union scan leave every asset exactly the sensed set a brute-force
// union gives, through every kind of exchange and their mixes.
func TestExchangeMatchesOracle(t *testing.T) {
	g, err := grid.GenerateSynthetic(grid.SyntheticConfig{Nodes: 120, Edges: 260, MaxOutDegree: 7, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	w := g.AvgEdgeWeight()
	spread := func(n int) []grid.NodeID {
		src := make([]grid.NodeID, n)
		for i := range src {
			src[i] = grid.NodeID(i * (g.NumNodes() / n))
		}
		return src
	}
	last := grid.NodeID(g.NumNodes() - 1)
	cases := []struct {
		name string
		sc   Scenario
		seed int64
		// want reports whether the oracle saw the exchanges the case is for.
		want func(o *exchangeOracle) bool
	}{
		{
			name: "whole-team periodic",
			sc:   Scenario{Grid: g, Team: vessel.NewTeam(spread(5), 1.2*w, 3), Dest: last, CommEvery: 3, MaxSteps: 400, Rendezvous: true},
			seed: 1,
			want: func(o *exchangeOracle) bool { return o.whole > 10 },
		},
		{
			name: "discovery at step 0",
			sc:   Scenario{Grid: g, Team: vessel.NewTeam(append(spread(3), last), 1.2*w, 3), Dest: last, CommEvery: 2, MaxSteps: 200, Rendezvous: true},
			seed: 2,
			want: func(o *exchangeOracle) bool { return o.broadcasts == 1 && o.whole > 10 },
		},
		{
			name: "ranged groups then discovery",
			sc:   Scenario{Grid: g, Team: vessel.NewTeam(spread(4), 1.2*w, 3), Dest: last, CommEvery: 1, CommRange: 3 * w, MaxSteps: 2000},
			seed: 3,
			want: func(o *exchangeOracle) bool { return o.partial > 0 && o.broadcasts == 1 },
		},
		{
			name: "ranged group of the whole team",
			sc:   Scenario{Grid: g, Team: vessel.NewTeam(spread(3), 1.2*w, 3), Dest: last, CommEvery: 2, CommRange: 4 * w, MaxSteps: 600, Rendezvous: true},
			seed: 4,
			want: func(o *exchangeOracle) bool { return o.partial > 0 && o.whole > 0 },
		},
		{
			name: "one-asset team",
			sc:   Scenario{Grid: g, Team: vessel.NewTeam([]grid.NodeID{0}, 1.2*w, 3), Dest: last, CommEvery: 1, MaxSteps: 300},
			seed: 5,
			want: func(o *exchangeOracle) bool { return true },
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := playExchanges(t, c.sc, c.sc.MaxSteps, c.seed)
			if !c.want(o) {
				t.Fatalf("case missed its exchanges: %d whole-team, %d partial, %d broadcasts", o.whole, o.partial, o.broadcasts)
			}
		})
	}
}

// TestMissionBudgetCoversFreshLists: NewMission charges each asset's fresh
// list, up to 4 bytes per node, with the rest of the mission state, so a
// byte budget that holds only the sensed bitmaps and location vectors
// fails before the mission starts.
func TestMissionBudgetCoversFreshLists(t *testing.T) {
	sc := rangedScenario(t)
	n, v := int64(len(sc.Team)), int64(sc.Grid.NumNodes())
	bitmaps := v*(n+1) + 16*n*n
	_, err := NewMission(sc, RunOptions{Budget: limits.New(limits.Limits{Bytes: bitmaps})})
	if err == nil || !strings.Contains(err.Error(), "mission state over budget") {
		t.Fatalf("NewMission under a %d-byte budget: %v, want mission state over budget", bitmaps, err)
	}
	if _, err := NewMission(sc, RunOptions{Budget: limits.New(limits.Limits{Bytes: bitmaps + 4*v*n})}); err != nil {
		t.Fatalf("NewMission under a budget that holds the fresh lists: %v", err)
	}
}

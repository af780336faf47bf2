// Package baselines implements the three comparison planners of Section
// 4.1.2:
//
//   - Baseline-1 (RoundRobin): assets plan one-by-one in a non-simultaneous
//     round-robin fashion, scoring actions with the same reward design as
//     MaMoRL. Long waits at nodes buy lower fuel at the cost of a much
//     larger makespan — exactly the trade-off the paper predicts.
//   - Baseline-2 (Independent): ALOHA-style fully distributed planning —
//     each asset greedily optimizes its own rewards with no teammate model
//     and no collision avoidance. It collides in the overwhelming majority
//     of runs (the paper reports > 97%), making it infeasible in practice.
//   - Random Walk: actions and speeds drawn uniformly.
//
// Both greedy baselines apply the paper's Section 3.1.1 decision rule
// directly: move in the direction that senses the most not-yet-sensed
// nodes (the exploration reward), at the speed that optimizes the average
// of the time and fuel rewards (the Table 2 speed rule); when nothing
// nearby is unsensed, head for the frontier.
package baselines

import (
	"math/rand"

	"github.com/routeplanning/mamorl/internal/approx"
	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/sim"
)

// greedyExplore is the shared Section 3.1.1 rule. blocked is a predicate
// for nodes never to enter (nil blocks nothing); voronoi controls whether
// the frontier search coordinates with believed teammate positions.
func greedyExplore(m *sim.Mission, i int, blocked func(grid.NodeID) bool,
	prev grid.NodeID, rng *rand.Rand, voronoi bool) sim.Action {

	g := m.Grid()
	cur := m.Cur(i)
	maxSpeed := m.Scenario().Team[i].MaxSpeed

	bestN := -1
	bestScore := 0.0
	for n, e := range g.Neighbors(cur) {
		if (blocked != nil && blocked(e.To)) || m.Obstacle(e.To) {
			continue
		}
		newly := m.PredictNewlySensed(i, e.To)
		if newly == 0 {
			continue
		}
		score := float64(newly) + 1e-6*rng.Float64() // jitter breaks ties
		if score > bestScore {
			bestScore = score
			bestN = n
		}
	}
	if bestN >= 0 {
		e := g.Neighbors(cur)[bestN]
		return sim.Action{Neighbor: bestN, Speed: approx.CruiseSpeed(e.Weight, maxSpeed)}
	}
	if a, ok := approx.FrontierStep(m, i, blocked, nil, prev, rng, voronoi); ok {
		return a
	}
	return sim.Wait
}

// RoundRobin is Baseline-1. A RoundRobin serves one mission at a time (it
// keeps a per-asset previous-position memory for frontier detours).
type RoundRobin struct {
	rng     *rand.Rand
	prevPos map[int]grid.NodeID
	nav     *sim.Navigator
	// blocked is per-decision scratch (teammate positions); blockedFn is
	// its cached Has method value, so Decide allocates no set and no
	// closure per call.
	blocked   grid.NodeSet
	blockedFn func(grid.NodeID) bool
}

// NewRoundRobin builds Baseline-1.
func NewRoundRobin(seed int64) *RoundRobin {
	b := &RoundRobin{
		rng:     rand.New(rand.NewSource(seed)),
		prevPos: make(map[int]grid.NodeID),
		nav:     sim.NewNavigator(),
	}
	b.blockedFn = b.blocked.Has
	return b
}

// Name implements sim.Planner.
func (b *RoundRobin) Name() string { return "Baseline-1" }

// Decide implements sim.Planner: only the asset whose turn it is moves;
// everyone else waits at their node.
func (b *RoundRobin) Decide(m *sim.Mission, i int) sim.Action {
	if m.Step()%m.NumAssets() != i {
		return sim.Wait
	}
	defer func() { b.prevPos[i] = m.Cur(i) }()
	if k := m.Knowledge(i); k.DestKnown {
		if a, ok := b.nav.Step(m, i, k.Dest); ok {
			return a
		}
	}

	// Teammate locations are off limits. Baseline-1's one-at-a-time
	// schedule implies a coordination token passed between assets, so the
	// mover knows true current positions (everyone else is parked at
	// theirs) — this is what makes the baseline collision-free at the cost
	// of serializing all movement.
	b.blocked.Reset(m.Grid().NumNodes())
	for j := 0; j < m.NumAssets(); j++ {
		if j != i {
			b.blocked.Add(m.Cur(j))
		}
	}
	return greedyExplore(m, i, b.blockedFn, b.prevPos[i], b.rng, true)
}

// Independent is Baseline-2: per-asset greedy reward maximization with no
// teammate awareness whatsoever.
type Independent struct {
	rng     *rand.Rand
	prevPos map[int]grid.NodeID
	nav     *sim.Navigator
}

// NewIndependent builds Baseline-2.
func NewIndependent(seed int64) *Independent {
	return &Independent{
		rng:     rand.New(rand.NewSource(seed)),
		prevPos: make(map[int]grid.NodeID),
		nav:     sim.NewNavigator(),
	}
}

// Name implements sim.Planner.
func (b *Independent) Name() string { return "Baseline-2" }

// Decide implements sim.Planner. No node is ever treated as blocked and the
// frontier search ignores teammates (no Voronoi partitioning): assets
// freely herd onto the same nodes, which is the point of this baseline.
func (b *Independent) Decide(m *sim.Mission, i int) sim.Action {
	defer func() { b.prevPos[i] = m.Cur(i) }()
	if k := m.Knowledge(i); k.DestKnown {
		if a, ok := b.nav.Step(m, i, k.Dest); ok {
			return a
		}
	}
	return greedyExplore(m, i, nil, b.prevPos[i], b.rng, false)
}

// RandomWalk draws the action and speed uniformly at random (Section
// 4.1.2-4).
type RandomWalk struct {
	rng *rand.Rand
}

// NewRandomWalk builds the random-walk baseline.
func NewRandomWalk(seed int64) *RandomWalk {
	return &RandomWalk{rng: rand.New(rand.NewSource(seed))}
}

// Name implements sim.Planner.
func (b *RandomWalk) Name() string { return "Random Walk" }

// Decide implements sim.Planner.
func (b *RandomWalk) Decide(m *sim.Mission, i int) sim.Action {
	acts := m.LegalActionsFor(i)
	return acts[b.rng.Intn(len(acts))]
}

package sim

import (
	"math/rand"

	"github.com/routeplanning/mamorl/internal/grid"
)

// stallPatience is how many consecutive decisions without sensing progress
// an asset tolerates before Liveness.Stalled reports it stalled.
const stallPatience = 6

// Liveness is the kit that keeps a search planner from parking or cycling
// (DESIGN.md §2): the post-discovery transit (a Navigator), the frontier
// fallback (a FrontierSearch, detouring away from the node each asset last
// left) and the stall watchdog. Exact MaMoRL, Approx-MaMoRL and both greedy
// baselines each hold one, so the paper's comparison runs them under the
// same mechanics; they differ only in when they call it — which decisions
// record the node left, whether the watchdog's verdict is used.
//
// The zero value is ready. A Liveness belongs to one planner and is not
// safe for concurrent use; a planner copy gets a fresh one by assigning
// the zero value.
type Liveness struct {
	nav      Navigator
	frontier FrontierSearch
	assets   []assetLiveness
}

// assetLiveness is one asset's liveness state. It survives mission
// boundaries: a planner trained over several episodes carries it into
// evaluation.
type assetLiveness struct {
	// prev is the node the asset last left (node 0 until Left is first
	// called); frontier detours avoid stepping straight back to it.
	prev grid.NodeID
	// sensed is the asset's sensed count at the last Stalled call; stall
	// counts the consecutive calls since it last grew.
	sensed, stall int
}

// asset returns asset i's state, growing the table to the team size.
func (l *Liveness) asset(m *Mission, i int) *assetLiveness {
	if n := m.NumAssets(); len(l.assets) < n {
		l.assets = append(l.assets, make([]assetLiveness, n-len(l.assets))...)
	}
	return &l.assets[i]
}

// Stalled advances asset i's watchdog and reports whether the asset has
// sensed nothing new for stallPatience calls. Only sensing progress resets
// it, so a stalled asset stays stalled until it reaches unsensed water.
func (l *Liveness) Stalled(m *Mission, i int) bool {
	a := l.asset(m, i)
	if sensed := m.Knowledge(i).SensedCount; sensed != a.sensed {
		a.sensed, a.stall = sensed, 0
	} else {
		a.stall++
	}
	return a.stall >= stallPatience
}

// Transit steers asset i toward the destination once it has been
// broadcast; ok is false before the broadcast and when no route exists.
// Search behavior is pointless after discovery, and shortest-path transit
// is optimal.
func (l *Liveness) Transit(m *Mission, i int) (Action, bool) {
	k := m.Knowledge(i)
	if !k.DestKnown {
		return Wait, false
	}
	return l.nav.Step(m, i, k.Dest)
}

// Frontier is FrontierStep on the kit's scratch, detouring away from the
// node asset i last left.
func (l *Liveness) Frontier(m *Mission, i int, blocked, mask func(grid.NodeID) bool,
	rng *rand.Rand, voronoi bool) (Action, bool) {
	return l.frontier.Step(m, i, blocked, mask, l.asset(m, i).prev, rng, voronoi)
}

// Left records asset i's current node as the one its next frontier detour
// should not step straight back to.
func (l *Liveness) Left(m *Mission, i int) { l.asset(m, i).prev = m.Cur(i) }

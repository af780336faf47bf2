package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/limits"
	"github.com/routeplanning/mamorl/internal/rewardfn"
	"github.com/routeplanning/mamorl/internal/sim"
	"github.com/routeplanning/mamorl/internal/trace"
)

// ErrMemoryBudget is returned when an instance's theoretical table footprint
// (Lemma 2) exceeds Config.MemoryBudgetBytes. This is the programmatic form
// of Table 6's N/A rows: the machine cannot hold the exact tables.
var ErrMemoryBudget = errors.New("core: exact MaMoRL tables exceed the memory budget")

// Planner is the exact MaMoRL solver. It implements sim.Planner (the ASM)
// and sim.Learner (TMM + LM updates), with the per-asset, per-reward Q
// tables Lemma 2 prescribes (each asset's three stored side by side, one
// entry per (s, a) pair) and a per-teammate P table for the TMM, all in
// one joint-state table.
//
// Planner is not safe for concurrent use; run one mission at a time.
type Planner struct {
	cfg     Config
	sc      sim.Scenario
	keyer   stateKeyer
	weights perReward
	rng     *rand.Rand

	// tab holds every teammate's anticipated action distributions and
	// every asset's Q table, one slot per learned joint state.
	tab *stateTable

	training bool
	// mask, when non-nil, confines exploration value to accepted nodes:
	// the tie-break and the frontier fallback ignore everything else. Set
	// by MaskedTo for the partial-knowledge composition.
	mask func(grid.NodeID) bool
	// live is the shared liveness kit (DESIGN.md §2): post-discovery
	// transit, the frontier fallback, and the stall watchdog — sparse Q
	// tables alias believed states, and greedy V-following can cycle. Its
	// state carries from the training episodes into evaluation.
	live sim.Liveness
	// scratch is Decide's and Observe's per-call working storage, reused
	// across calls.
	scratch stepScratch

	// epReward/epQDelta/epMaxQDelta accumulate the scalarized joint reward
	// and the total and maximum per-update |ΔQ| applied since the last
	// episode boundary; Train resets them per episode and stamps them on
	// the episode span and the OnEpisode record. Observation only — they
	// never feed back into learning.
	epReward    float64
	epQDelta    float64
	epMaxQDelta float64

	// chargedEntries is how many sparse table entries have been billed to
	// cfg.Budget so far; Train charges the per-episode growth delta.
	chargedEntries int
}

// stepScratch is the working storage of Decide and Observe. locs is a joint
// state (Decide's believed one, Observe's post-step one); counts, dists and
// best are the per-asset action counts, teammate action distributions and
// their argmaxes there; idx is a joint-action index. Observe adds the
// pre-step action counts and the observed joint action. Decide adds the
// legal and safe actions, the believed-occupied nodes, and own, its Q
// row's entries per own action with the teammates at best.
type stepScratch struct {
	locs               []grid.NodeID
	counts             []int
	dists              [][]float64
	best, idx          []int
	own                ownIndex
	prevCounts, actIdx []int
	actions, safe      []sim.Action
	blocked            grid.NodeSet
}

// size gives every per-asset slice length n.
func (s *stepScratch) size(n int) {
	if len(s.counts) != n {
		s.counts, s.dists = make([]int, n), make([][]float64, n)
		s.best, s.idx = make([]int, n), make([]int, n)
		s.prevCounts, s.actIdx = make([]int, n), make([]int, n)
	}
}

// NewPlanner builds an exact MaMoRL planner for the scenario, or fails with
// ErrMemoryBudget when the instance is too large to solve exactly.
func NewPlanner(sc sim.Scenario, cfg Config, weights rewardfn.Weights) (*Planner, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	numActions := InstanceActions(sc.Grid, sc.Team)
	if qb := QTableBytes(sc.Grid.NumNodes(), len(sc.Team), numActions, sc.Team.MaxSpeedOver()); qb > cfg.MemoryBudgetBytes {
		return nil, fmt.Errorf("%w: need %s for Q tables (budget %s)",
			ErrMemoryBudget, FormatBytes(qb), FormatBytes(cfg.MemoryBudgetBytes))
	}
	keyer, err := newStateKeyer(sc.Grid.NumNodes(), len(sc.Team))
	if err != nil {
		return nil, err
	}
	w := weights.Normalized()
	pl := &Planner{
		cfg:     cfg,
		sc:      sc,
		keyer:   keyer,
		weights: perReward{w.Explore, w.Time, w.Fuel},
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		tab:     newStateTable(len(sc.Team)),
	}
	return pl, nil
}

// Name implements sim.Planner.
func (pl *Planner) Name() string { return "MaMoRL" }

// MaskedTo implements partial.Maskable: the returned planner shares the
// learned tables but only values sensing nodes accepted by mask, so the
// paper's "MaMoRL with partial knowledge" (Section 4.1.2-1) composes the
// exact solver with a Dijkstra transit leg exactly as it composes the
// approximate one.
//
// The learned table is intentionally shared (it is the point of the
// composition); everything per-mission — liveness kit, rng and
// scratch — is fresh, so the masked copy and the original can each run a
// mission without corrupting the other's state.
func (pl *Planner) MaskedTo(mask func(grid.NodeID) bool) sim.Planner {
	cp := *pl
	cp.mask = mask
	cp.live = sim.Liveness{}
	cp.scratch = stepScratch{}
	cp.rng = rand.New(rand.NewSource(pl.cfg.Seed + 1))
	return &cp
}

// maskedNewly counts the unsensed nodes within asset i's radius of v that
// the mask accepts.
func (pl *Planner) maskedNewly(m *sim.Mission, i int, v grid.NodeID) int {
	if pl.mask == nil {
		return m.PredictNewlySensed(i, v)
	}
	count := 0
	sensed := m.Knowledge(i).Sensed
	pl.sc.Grid.ForEachWithinRadius(v, pl.sc.Team[i].SensingRadius, func(u grid.NodeID) {
		if !sensed[u] && pl.mask(u) {
			count++
		}
	})
	return count
}

// SetTraining toggles ε-greedy exploration in Decide.
func (pl *Planner) SetTraining(on bool) { pl.training = on }

// actionCountAt returns |A_j| for asset j standing at node v.
func (pl *Planner) actionCountAt(j int, v grid.NodeID) int {
	return sim.ActionCount(pl.sc.Grid.OutDegree(v), pl.sc.Team[j].MaxSpeed)
}

// believedState appends asset i's belief of the joint state to buf[:0]:
// its own true location plus last-known teammate locations.
func believedState(buf []grid.NodeID, m *sim.Mission, i int) []grid.NodeID {
	buf = append(buf[:0], m.Knowledge(i).LastKnown...)
	buf[i] = m.Cur(i)
	return buf
}

// qDefault is the uniform initial Q value 1/Π_j |A_j(s)| from the worked
// example of Section 3.2.2.
func qDefault(counts []int) float64 {
	prod := 1.0
	for _, c := range counts {
		prod *= float64(c)
	}
	return 1 / prod
}

// tmmFactor is β^(T-t+1) with the exponent clamped to at least 1 so that
// late epochs (t > T) keep a valid, small update step instead of a
// probability-breaking β^negative.
func (pl *Planner) tmmFactor(t int) float64 {
	exp := pl.cfg.IterT - t + 1
	if exp < 1 {
		exp = 1
	}
	return math.Pow(pl.cfg.Beta, float64(exp))
}

// Decide implements the ASM (Equations 7-8) from asset i's local view.
func (pl *Planner) Decide(m *sim.Mission, i int) sim.Action {
	stalled := pl.live.Stalled(m, i)
	if !pl.training {
		if a, ok := pl.live.Transit(m, i); ok {
			return a
		}
	}
	s := &pl.scratch
	n := len(pl.sc.Team)
	s.size(n)
	s.actions = m.AppendLegalActionsFor(s.actions[:0], i)
	actions := s.actions
	_ = pl.cfg.Budget.Charge(limits.Nodes, int64(len(actions)))
	if pl.training && pl.rng.Float64() < pl.cfg.Epsilon {
		return pl.exploreAction(m, i, actions)
	}

	s.locs = believedState(s.locs, m, i)
	locs, counts, dists, best := s.locs, s.counts, s.dists, s.best
	st := pl.tab.at(pl.keyer.key(locs))
	for j := range counts {
		counts[j] = pl.actionCountAt(j, locs[j])
	}
	def := qDefault(counts)

	// Teammate action distributions and their argmax A*.
	for j := 0; j < n; j++ {
		if j != i {
			dists[j] = pl.tab.dist(st, j, counts[j])
			best[j] = st.best(j)
		}
	}

	t := m.Step() + 1 // epochs are 1-based in the paper's formulas
	bestAct := sim.Wait
	bestV := math.Inf(-1)
	s.blocked.Reset(pl.sc.Grid.NumNodes())
	for j := 0; j < n; j++ {
		if j != i {
			s.blocked.Add(m.Knowledge(i).LastKnown[j])
		}
	}
	row := st.row(i)
	// Alone, or past the threshold T, Equation 8 reads one entry per own
	// action (teammates at their argmax, scaled by the strongest teammate
	// belief): index the row's entries for them at once, and scale the
	// default once. Otherwise, without a row every entry reads def, so no
	// candidate action changes the value: take it once.
	argmaxOnly := n == 1 || t > pl.cfg.IterT
	var rowless, ownDef perReward
	maxP := 1.0
	switch {
	case argmaxOnly:
		s.own.load(row, i, best, counts)
		if n > 1 {
			maxP = strongestBelief(i, dists, best)
		}
		ownDef = uniform(maxP * def)
	case row == nil:
		rowless = pl.conditionalValue(nil, i, 0, counts, dists, best, def, s.idx)
	}
	degree := pl.sc.Grid.OutDegree(locs[i])
	anySensed := false
	// A neighbour's speed variants share one destination, and what a
	// destination would sense cannot change during the call, so a run of
	// actions with one destination counts its newly sensed nodes once.
	lastTo, newly := grid.NodeID(-1), 0
	for _, a := range actions {
		to := m.Cur(i)
		if !a.IsWait() {
			to, _ = m.Apply(m.Cur(i), a)
			if s.blocked.Has(to) {
				continue // collision avoidance: never enter a believed-occupied node
			}
		}
		if to != lastTo {
			lastTo, newly = to, pl.maskedNewly(m, i, to)
		}
		if !a.IsWait() && newly > 0 {
			anySensed = true
		}
		vals := rowless
		switch aIdx := sim.EncodeActionAt(a, degree, pl.sc.Team[i].MaxSpeed); {
		case argmaxOnly:
			vals = s.own.value(row, aIdx, maxP, ownDef)
		case row != nil:
			vals = pl.conditionalValue(row, i, aIdx, counts, dists, best, def, s.idx)
		}
		v := 0.0
		for c, w := range pl.weights {
			if w != 0 {
				v += w * vals[c]
			}
		}
		// Ties dominate wherever the tables still hold defaults (unvisited
		// believed states). Break them with the paper's own Section 2.3
		// intuition — prefer moves sensing more unexplored nodes — plus a
		// vanishing jitter so residual ties do not lock into oscillation.
		// Both terms are orders of magnitude below any learned Q signal.
		v += tieBreakScale * float64(newly)
		v += tieBreakScale * 1e-3 * pl.rng.Float64()
		if v > bestV {
			bestV = v
			bestAct = a
		}
	}
	// When nothing in reach is unsensed — or greedy V-following has made no
	// sensing progress for a while — head for the frontier like every other
	// planner (DESIGN.md §2) instead of wandering on jitter.
	if !pl.training && (!anySensed || stalled) {
		if a, ok := pl.live.Frontier(m, i, s.blocked.Has, pl.mask, pl.rng, true); ok {
			pl.live.Left(m, i)
			return a
		}
	}
	pl.live.Left(m, i)
	return bestAct
}

// tieBreakScale keeps the exploration tie-break far below learned Q values
// (which live at reward scale, >= ~1e-3) while still ordering default-value
// actions.
const tieBreakScale = 1e-7

// conditionalValue computes V(a_i | A*) per Equation 8 for every reward
// component at t <= T, from asset i's Q row at the believed state: for each
// teammate j, the expectation of Q over j's anticipated action distribution
// with every other teammate pinned to its argmax action. Past T the value
// collapses to the argmax profile scaled by the strongest teammate belief
// (strongestBelief), which Decide reads through its ownIndex. With
// |N| = 2 both forms reduce exactly to the paper's worked example. Each
// component is summed on its own, in the same order as a single-component
// table would be.
func (pl *Planner) conditionalValue(row qRow, i, aIdx int, counts []int,
	dists [][]float64, best []int, def float64, idx []int) perReward {

	n := len(counts)
	// Base profile: own action + teammates at argmax.
	copy(idx, best)
	idx[i] = aIdx

	var v perReward
	for j := 0; j < n; j++ {
		if j == i {
			continue
		}
		save := idx[j]
		for aj, pj := range dists[j] {
			idx[j] = aj
			q := row.get(jointActionKey(idx, counts), def)
			for c := range v {
				v[c] += pj * q[c]
			}
		}
		idx[j] = save
	}
	return v
}

// strongestBelief returns max_j P(a*_j) over asset i's teammates: the
// largest probability any teammate's anticipated distribution puts on its
// argmax action. It scales Equation 8's value past the threshold T.
func strongestBelief(i int, dists [][]float64, best []int) float64 {
	maxP := 0.0
	for j := range dists {
		if j == i {
			continue
		}
		if p := dists[j][best[j]]; p > maxP {
			maxP = p
		}
	}
	return maxP
}

// exploreAction picks a random non-colliding action for ε-greedy training.
func (pl *Planner) exploreAction(m *sim.Mission, i int, actions []sim.Action) sim.Action {
	// Reservoir-style pick over safe actions.
	safe := pl.scratch.safe[:0]
	for _, a := range actions {
		if a.IsWait() {
			safe = append(safe, a)
			continue
		}
		to, _ := m.Apply(m.Cur(i), a)
		if !m.BelievedOccupied(i, to) {
			safe = append(safe, a)
		}
	}
	pl.scratch.safe = safe
	if len(safe) == 0 {
		return sim.Wait
	}
	return safe[pl.rng.Intn(len(safe))]
}

// Observe implements sim.Learner: the TMM update (Equation 5) followed by
// the LM update (Equation 6), using the ground-truth pre-step state
// (centralized training, decentralized execution).
func (pl *Planner) Observe(m *sim.Mission, prev []grid.NodeID, acts []sim.Action, r rewardfn.Vector) {
	s := &pl.scratch
	n := len(pl.sc.Team)
	s.size(n)
	cur := pl.tab.add(pl.keyer.key(prev))
	prevCounts, actIdx := s.prevCounts, s.actIdx
	for j := 0; j < n; j++ {
		prevCounts[j] = pl.actionCountAt(j, prev[j])
		actIdx[j] = sim.EncodeActionAt(acts[j], pl.sc.Grid.OutDegree(prev[j]), pl.sc.Team[j].MaxSpeed)
	}

	// TMM: Equation 5 at step t (m.Step() has already advanced past this
	// transition, so the transition's epoch is m.Step()).
	factor := pl.tmmFactor(m.Step())
	for j := 0; j < n; j++ {
		pl.tab.update(cur, j, prevCounts[j], actIdx[j], factor)
	}

	// LM: Equation 6, per asset and reward component.
	s.locs = s.locs[:0]
	for j := 0; j < n; j++ {
		s.locs = append(s.locs, m.Cur(j))
	}
	counts, nextBest := s.counts, s.best
	next := pl.tab.at(pl.keyer.key(s.locs))
	for j := 0; j < n; j++ {
		counts[j] = pl.actionCountAt(j, s.locs[j])
	}
	defPrev := qDefault(prevCounts)
	defNext := qDefault(counts)
	aKey := jointActionKey(actIdx, prevCounts)

	// Teammates' anticipated next actions a'_j = argmax_b P(s', b).
	for j := 0; j < n; j++ {
		nextBest[j] = next.best(j)
	}

	rv := perReward{r.Explore, r.Time, r.Fuel}
	for i := 0; i < n; i++ {
		// max over own next action with teammates at their argmax, per
		// component; every read precedes the write below, as with one
		// table per component.
		maxQ := maxOwn(next.row(i), i, nextBest, counts, defNext)
		old := cur.row(i).get(aKey, defPrev)
		var upd perReward
		for c := range upd {
			upd[c] = (1-pl.cfg.Alpha)*old[c] + pl.cfg.Alpha*(rv[c]+pl.cfg.Gamma*maxQ[c])
			d := math.Abs(upd[c] - old[c])
			pl.epQDelta += d
			if d > pl.epMaxQDelta {
				pl.epMaxQDelta = d
			}
		}
		pl.tab.set(cur, i, aKey, upd)
	}
	for c, w := range pl.weights {
		pl.epReward += w * rv[c]
	}
}

// Train runs the configured number of training episodes on the scenario and
// leaves the planner greedy. Collisions are recorded but do not abort
// training (early ε-greedy steps collide; the learned policy must not).
func (pl *Planner) Train() error {
	pl.SetTraining(true)
	defer pl.SetTraining(false)
	for ep := 0; ep < pl.cfg.Episodes; ep++ {
		sp := pl.cfg.Tracer.Start("train.episode",
			trace.Int("episode", int64(ep)),
			trace.Float("epsilon", pl.cfg.Epsilon))
		pl.epReward, pl.epQDelta, pl.epMaxQDelta = 0, 0, 0
		res, err := sim.Run(pl.sc, pl, sim.RunOptions{
			Collision: sim.RecordCollisions, TraceParent: sp, Budget: pl.cfg.Budget})
		if chargeErr := pl.chargeTableGrowth(); err == nil {
			err = chargeErr
		}
		if err != nil {
			sp.End()
			return fmt.Errorf("core: training episode %d: %w", ep, err)
		}
		if sp.Enabled() {
			sp.SetAttrs(
				trace.Float("reward", pl.epReward),
				trace.Float("q_delta", pl.epQDelta),
				trace.Int("steps", int64(res.Steps)))
			sp.End()
		}
		if pl.cfg.OnEpisode != nil {
			pl.cfg.OnEpisode(EpisodeStats{
				Episode:   ep,
				Epsilon:   pl.cfg.Epsilon,
				Reward:    pl.epReward,
				QDelta:    pl.epQDelta,
				MaxQDelta: pl.epMaxQDelta,
				Steps:     res.Steps,
			})
		}
	}
	return nil
}

// chargeTableGrowth bills cfg.Budget for sparse P/Q entries created since
// the last call (bytesPerEntry each), at episode boundaries.
func (pl *Planner) chargeTableGrowth() error {
	if pl.cfg.Budget == nil {
		return nil
	}
	st := pl.TableStats()
	grown := st.PEntries + st.QEntries - pl.chargedEntries
	if grown <= 0 {
		return nil
	}
	pl.chargedEntries += grown
	return pl.cfg.Budget.Charge(limits.Bytes, int64(grown)*bytesPerEntry)
}

// TableStats reports the sparse storage actually used, next to the dense
// Lemma 1-2 sizes; the bottleneck experiment (Table 6) prints both.
type TableStats struct {
	PEntries      int
	QEntries      int
	DensePBytes   float64
	DenseQBytes   float64
	SparseBytesLB int
}

// TableStats summarizes table occupancy.
func (pl *Planner) TableStats() TableStats {
	// QEntries counts NumRewardComponents values per stored (s, a) pair:
	// what Lemma 2's separate per-reward tables would hold.
	st := TableStats{PEntries: pl.tab.pEntries, QEntries: pl.tab.qPairs * NumRewardComponents}
	numActions := InstanceActions(pl.sc.Grid, pl.sc.Team)
	st.DensePBytes = PTableBytes(pl.sc.Grid.NumNodes(), len(pl.sc.Team), numActions, pl.sc.Team.MaxSpeedOver())
	st.DenseQBytes = QTableBytes(pl.sc.Grid.NumNodes(), len(pl.sc.Team), numActions, pl.sc.Team.MaxSpeedOver())
	st.SparseBytesLB = (st.PEntries + st.QEntries) * bytesPerEntry
	return st
}

// PDistribution exposes asset i's anticipated action distribution for
// teammate j at i's believed state. The function-approximation trainer
// samples these as regression targets (Section 3.3.1).
func (pl *Planner) PDistribution(m *sim.Mission, i, j int) []float64 {
	locs := believedState(nil, m, i)
	d := pl.tab.dist(pl.tab.at(pl.keyer.key(locs)), j, pl.actionCountAt(j, locs[j]))
	return append([]float64(nil), d...)
}

// Scenario returns the scenario the planner was built for.
func (pl *Planner) Scenario() sim.Scenario { return pl.sc }

// Config returns the resolved configuration.
func (pl *Planner) Config() Config { return pl.cfg }

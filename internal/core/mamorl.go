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
// and sim.Learner (TMM + LM updates), with per-asset, per-reward Q tables
// exactly as Lemma 2 prescribes, and a per-teammate P table for the TMM.
//
// Planner is not safe for concurrent use; run one mission at a time.
type Planner struct {
	cfg     Config
	sc      sim.Scenario
	keyer   stateKeyer
	weights rewardfn.Weights
	rng     *rand.Rand

	// p[j] anticipates teammate j's actions. Observers share it: every
	// asset sees the same observations during training, so the per-observer
	// tables of Equation 5 coincide (DESIGN.md §2).
	p []*pTable
	// q[i][c] is asset i's Q table for reward component c.
	q [][]*qTable

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
	// scratch is Decide's per-call working storage, reused across calls.
	scratch decideScratch

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

// decideScratch is Decide's working storage: the believed joint state,
// per-asset action counts, teammate distributions and their argmaxes, a
// joint-action index, the legal and safe actions, and the believed-occupied
// nodes.
type decideScratch struct {
	locs          []grid.NodeID
	counts        []int
	dists         [][]float64
	best, idx     []int
	actions, safe []sim.Action
	blocked       grid.NodeSet
}

// rewardComponent extracts component c of a reward vector.
func rewardComponent(r rewardfn.Vector, c int) float64 {
	switch c {
	case 0:
		return r.Explore
	case 1:
		return r.Time
	default:
		return r.Fuel
	}
}

// weightComponent extracts component c of the scalarization weights.
func weightComponent(w rewardfn.Weights, c int) float64 {
	switch c {
	case 0:
		return w.Explore
	case 1:
		return w.Time
	default:
		return w.Fuel
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
	pl := &Planner{
		cfg:     cfg,
		sc:      sc,
		keyer:   keyer,
		weights: weights.Normalized(),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		p:       make([]*pTable, len(sc.Team)),
		q:       make([][]*qTable, len(sc.Team)),
	}
	for j := range pl.p {
		pl.p[j] = newPTable()
		pl.q[j] = make([]*qTable, NumRewardComponents)
		for c := range pl.q[j] {
			pl.q[j][c] = newQTable()
		}
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
// The learned p/q tables are intentionally shared (they are the point of
// the composition); everything per-mission — liveness kit, rng and
// scratch — is fresh, so the masked copy and the original can each run a
// mission without corrupting the other's state.
func (pl *Planner) MaskedTo(mask func(grid.NodeID) bool) sim.Planner {
	cp := *pl
	cp.mask = mask
	cp.live = sim.Liveness{}
	cp.scratch = decideScratch{}
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
	if len(s.counts) != n {
		s.counts, s.dists = make([]int, n), make([][]float64, n)
		s.best, s.idx = make([]int, n), make([]int, n)
	}
	s.locs = believedState(s.locs, m, i)
	locs, counts, dists, best := s.locs, s.counts, s.dists, s.best
	sKey := pl.keyer.key(locs)
	for j := range counts {
		counts[j] = pl.actionCountAt(j, locs[j])
	}
	def := qDefault(counts)

	// Teammate action distributions and their argmax A*.
	for j := 0; j < n; j++ {
		if j != i {
			dists[j] = pl.p[j].dist(sKey, counts[j])
			best[j] = argmax(dists[j])
		}
	}

	s.actions = m.AppendLegalActionsFor(s.actions[:0], i)
	actions := s.actions
	_ = pl.cfg.Budget.Charge(limits.Nodes, int64(len(actions)))
	if pl.training && pl.rng.Float64() < pl.cfg.Epsilon {
		return pl.exploreAction(m, i, actions)
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
	anySensed := false
	for _, a := range actions {
		to := m.Cur(i)
		if !a.IsWait() {
			to, _ = m.Apply(m.Cur(i), a)
			if s.blocked.Has(to) {
				continue // collision avoidance: never enter a believed-occupied node
			}
			if pl.maskedNewly(m, i, to) > 0 {
				anySensed = true
			}
		}
		aIdx := sim.EncodeActionAt(a, pl.sc.Grid.OutDegree(locs[i]), pl.sc.Team[i].MaxSpeed)
		v := 0.0
		for c := 0; c < NumRewardComponents; c++ {
			w := weightComponent(pl.weights, c)
			if w == 0 {
				continue
			}
			v += w * pl.conditionalValue(sKey, i, c, aIdx, counts, dists, best, def, t, s.idx)
		}
		// Ties dominate wherever the tables still hold defaults (unvisited
		// believed states). Break them with the paper's own Section 2.3
		// intuition — prefer moves sensing more unexplored nodes — plus a
		// vanishing jitter so residual ties do not lock into oscillation.
		// Both terms are orders of magnitude below any learned Q signal.
		v += tieBreakScale * float64(pl.maskedNewly(m, i, to))
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

// conditionalValue computes V(a_i | A*) per Equation 8 for one reward
// component. For t <= T it takes, for each teammate j, the expectation of Q
// over j's anticipated action distribution with every other teammate pinned
// to its argmax action; for t > T it collapses to the argmax profile scaled
// by the strongest teammate belief. With |N| = 2 both forms reduce exactly
// to the paper's worked example.
func (pl *Planner) conditionalValue(sKey uint64, i, c, aIdx int, counts []int,
	dists [][]float64, best []int, def float64, t int, idx []int) float64 {

	n := len(counts)
	q := pl.q[i][c]
	// Base profile: own action + teammates at argmax.
	for j := 0; j < n; j++ {
		idx[j] = best[j]
	}
	idx[i] = aIdx

	if n == 1 {
		return q.get(sKey, jointActionKey(idx, counts), def)
	}

	if t > pl.cfg.IterT {
		maxP := 0.0
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			if p := dists[j][best[j]]; p > maxP {
				maxP = p
			}
		}
		return maxP * q.get(sKey, jointActionKey(idx, counts), def)
	}

	v := 0.0
	for j := 0; j < n; j++ {
		if j == i {
			continue
		}
		save := idx[j]
		for aj, pj := range dists[j] {
			idx[j] = aj
			v += pj * q.get(sKey, jointActionKey(idx, counts), def)
		}
		idx[j] = save
	}
	return v
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
	n := len(pl.sc.Team)
	sKey := pl.keyer.key(prev)
	counts := make([]int, n)
	actIdx := make([]int, n)
	for j := 0; j < n; j++ {
		counts[j] = pl.actionCountAt(j, prev[j])
		actIdx[j] = sim.EncodeActionAt(acts[j], pl.sc.Grid.OutDegree(prev[j]), pl.sc.Team[j].MaxSpeed)
	}

	// TMM: Equation 5 at step t (m.Step() has already advanced past this
	// transition, so the transition's epoch is m.Step()).
	factor := pl.tmmFactor(m.Step())
	for j := 0; j < n; j++ {
		pl.p[j].update(sKey, counts[j], actIdx[j], factor)
	}

	// LM: Equation 6, per asset and reward component.
	cur := m.CurAll()
	sNext := pl.keyer.key(cur)
	countsNext := make([]int, n)
	for j := 0; j < n; j++ {
		countsNext[j] = pl.actionCountAt(j, cur[j])
	}
	defPrev := qDefault(counts)
	defNext := qDefault(countsNext)
	aKey := jointActionKey(actIdx, counts)

	// Teammates' anticipated next actions a'_j = argmax_b P(s', b).
	nextBest := make([]int, n)
	for j := 0; j < n; j++ {
		nextBest[j] = argmax(pl.p[j].dist(sNext, countsNext[j]))
	}

	idx := make([]int, n)
	for i := 0; i < n; i++ {
		for c := 0; c < NumRewardComponents; c++ {
			q := pl.q[i][c]
			// max over own next action with teammates at their argmax.
			copy(idx, nextBest)
			maxQ := math.Inf(-1)
			for ai := 0; ai < countsNext[i]; ai++ {
				idx[i] = ai
				if v := q.get(sNext, jointActionKey(idx, countsNext), defNext); v > maxQ {
					maxQ = v
				}
			}
			old := q.get(sKey, aKey, defPrev)
			rc := rewardComponent(r, c)
			next := (1-pl.cfg.Alpha)*old + pl.cfg.Alpha*(rc+pl.cfg.Gamma*maxQ)
			q.set(sKey, aKey, next)
			d := math.Abs(next - old)
			pl.epQDelta += d
			if d > pl.epMaxQDelta {
				pl.epMaxQDelta = d
			}
		}
	}
	for c := 0; c < NumRewardComponents; c++ {
		pl.epReward += weightComponent(pl.weights, c) * rewardComponent(r, c)
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
// the last call (bytesPerEntry each). Called at episode boundaries — per
// update would put map iteration in the learning hot loop.
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
	var st TableStats
	for _, p := range pl.p {
		st.PEntries += p.entries()
	}
	for _, qs := range pl.q {
		for _, q := range qs {
			st.QEntries += q.entries()
		}
	}
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
	sKey := pl.keyer.key(locs)
	d := pl.p[j].dist(sKey, pl.actionCountAt(j, locs[j]))
	return append([]float64(nil), d...)
}

// Scenario returns the scenario the planner was built for.
func (pl *Planner) Scenario() sim.Scenario { return pl.sc }

// Config returns the resolved configuration.
func (pl *Planner) Config() Config { return pl.cfg }

// argmax returns the index of the maximum element (first on ties).
func argmax(xs []float64) int {
	best, bestV := 0, math.Inf(-1)
	for i, x := range xs {
		if x > bestV {
			best, bestV = i, x
		}
	}
	return best
}

package approx

import (
	"math"
	"math/rand"

	"github.com/routeplanning/mamorl/internal/features"
	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/limits"
	"github.com/routeplanning/mamorl/internal/sim"
)

// Planner plans routes with an approximated TMM and LM (Section 3.3's
// "Route Planning" procedure): at each epoch, each asset anticipates its
// teammates' moves with the TMM model, treats their believed and predicted
// nodes as blocked, and takes the legal action with the highest predicted
// reward r̂.
//
// Two deployment details beyond the paper's sketch (see DESIGN.md §2):
//
//   - Frontier fallback: when every candidate move has α = 0 (the local
//     neighborhood is fully sensed) and no destination signal exists, the
//     asset heads along a shortest hop path toward the nearest unsensed
//     node. Without this, a greedy r̂ maximizer oscillates between two
//     sensed nodes forever.
//   - A vanishing seeded jitter breaks exact prediction ties
//     deterministically per seed.
type Planner struct {
	model Model
	ext   features.Extractor
	rng   *rand.Rand
	name  string
	// live is the shared liveness kit (DESIGN.md §2): post-discovery
	// transit, the frontier fallback, and the stall watchdog — a model
	// (especially an under-trained neural one) can prefer a non-exploring
	// move forever while exploring moves exist.
	live sim.Liveness
	opts Options
	seed int64
	// budget, when non-nil, is charged one Nodes unit per candidate action
	// evaluated (own moves and TMM teammate rollouts). The nil fast path
	// keeps Decide at its pinned allocation count; exhaustion is observed
	// by the mission loop polling the same budget, not here.
	budget *limits.Budget

	// Per-decision scratch, reused across Decide calls so the steady-state
	// planning path allocates nothing. A planner serves one mission at a
	// time from one goroutine (experiments give every run its own planner;
	// the service builds one per request), and a MaskedTo copy starts
	// with empty scratch, so reuse is safe.
	blocked  grid.NodeSet
	ballSeen grid.NodeSet
	ballCur  []grid.NodeID
	ballNext []grid.NodeID
	lmCtx    features.NodeContext
	tmmCtx   features.NodeContext
	featBuf  []float64
}

// Options disables individual planner mechanisms for ablation studies
// (BenchmarkAblation and `cmd/experiments -only ablation` measure what each
// one contributes). The zero value is the full planner.
type Options struct {
	// NoFrontier disables the frontier fallback: the model's argmax is
	// always followed, even when no move senses anything new.
	NoFrontier bool
	// NoVoronoi disables the frontier's Voronoi partitioning against
	// believed teammate positions.
	NoVoronoi bool
	// NoRightOfWay disables the hop-ball blocking around lower-ID
	// teammates.
	NoRightOfWay bool
	// NoWatchdog disables the stall watchdog.
	NoWatchdog bool
	// NoTMMBlocking disables blocking of TMM-predicted teammate targets
	// (believed current locations are still avoided).
	NoTMMBlocking bool
}

// NewPlanner builds a planner around a fitted model.
func NewPlanner(model Model, ext features.Extractor, seed int64) *Planner {
	return NewPlannerOpts(model, ext, seed, Options{})
}

// NewPlannerOpts builds a planner with mechanisms selectively disabled;
// see Options. Used by the ablation study.
func NewPlannerOpts(model Model, ext features.Extractor, seed int64, opts Options) *Planner {
	return &Planner{
		opts:  opts,
		model: model,
		ext:   ext,
		rng:   rand.New(rand.NewSource(seed)),
		name:  model.Name(),
		seed:  seed,
	}
}

// MaskedTo implements partial.Maskable: the returned copy only values
// nodes accepted by mask — the α feature and the frontier fallback ignore
// everything else. The partial-knowledge planner masks to the region known
// to contain the destination.
//
// The copy shares the model, extractor settings and budget but owns fresh
// per-mission state: liveness kit, scratch buffers, and a derived rng. A
// naive struct copy would share those (slice-backed state aliases), so
// running the original and a copy would corrupt each other's watchdog,
// jitter sequence, and blocked sets.
func (p *Planner) MaskedTo(mask func(grid.NodeID) bool) sim.Planner {
	cp := NewPlannerOpts(p.model, p.ext, p.seed+1, p.opts)
	cp.ext.Mask = mask
	cp.budget = p.budget
	return cp
}

// SetBudget attaches a resource budget charged for every candidate node
// the planner expands; the same budget should be passed to the mission via
// sim.RunOptions.Budget so exhaustion aborts the run. Copies made by
// MaskedTo share the budget — it is request-scoped, not planner-scoped. A
// nil budget (the default) costs nothing.
func (p *Planner) SetBudget(b *limits.Budget) { p.budget = b }

// Name implements sim.Planner.
func (p *Planner) Name() string { return p.name }

// Model returns the underlying model (for memory accounting).
func (p *Planner) Model() Model { return p.model }

// MemoryBytes reports the planner state deployed across n assets: each
// asset carries its own copy of the model parameters, so the footprint
// scales linearly with the team as in Table 6 (1056 B at |N|=2 vs 2304 B
// at |N|=3).
func (p *Planner) MemoryBytes(nAssets int) int { return nAssets * p.model.Bytes() }

// Decide implements sim.Planner.
func (p *Planner) Decide(m *sim.Mission, i int) sim.Action {
	defer p.live.Left(m, i)
	stalled := p.live.Stalled(m, i) && !p.opts.NoWatchdog
	if a, ok := p.live.Transit(m, i); ok {
		return a
	}
	dest := features.ResolveDest(m, i)
	p.predictTeammateNodes(m, i, dest)

	// Score the legal actions in sim.AppendLegalActionsFor order: each
	// out-neighbour that is no obstacle at speeds 1..MaxSpeed, then wait.
	// A blocked neighbour is skipped before any feature or jitter draw,
	// but its actions are charged. The features of one neighbour's speeds
	// differ only in sp and sp', so its α, β and occupancy are taken once.
	maxSpeed := m.Asset(i).MaxSpeed
	obstacles := m.HasObstacles()
	legal := 1 // wait
	bestAct := sim.Wait
	bestV := math.Inf(-1)
	anyAlpha := false
	ctx := p.ext.LMContextInto(&p.lmCtx, m, i, dest)
	for n, e := range m.Grid().Neighbors(m.Cur(i)) {
		if obstacles && m.Obstacle(e.To) {
			continue
		}
		legal += maxSpeed
		if p.blocked.Has(e.To) {
			continue
		}
		if ctx.Target(n) > 0 {
			anyAlpha = true
		}
		for s := 1; s <= maxSpeed; s++ {
			p.featBuf = ctx.AppendSpeed(p.featBuf[:0], s)
			v := p.model.PredictLM(p.featBuf) + 1e-9*p.rng.Float64()
			if v > bestV {
				bestV = v
				bestAct = sim.Action{Neighbor: n, Speed: s}
			}
		}
	}
	ctx.Target(sim.Wait.Neighbor)
	p.featBuf = ctx.AppendSpeed(p.featBuf[:0], 0)
	if v := p.model.PredictLM(p.featBuf) + 1e-9*p.rng.Float64(); v > bestV {
		bestAct = sim.Wait
	}
	_ = p.budget.Charge(limits.Nodes, int64(legal))

	// Two overrides keep a mistrained or saturated model from parking:
	// when no candidate move senses anything new, head for the frontier;
	// and when the model ranks wait above unblocked moves, also prefer the
	// frontier — in this mission model waiting is only ever productive for
	// yielding, and blocked moves were already excluded above. Once the
	// watchdog fires, the asset stays in frontier mode until it actually
	// senses something new, rather than being yanked back by the model
	// after a single frontier hop.
	if !p.opts.NoFrontier && (!anyAlpha || bestAct.IsWait() || stalled) {
		if a, ok := p.live.Frontier(m, i, p.blocked.Has, p.ext.Mask, p.rng, !p.opts.NoVoronoi); ok {
			return a
		}
	}
	return bestAct
}

// predictTeammateNodes fills p.blocked with the set of nodes asset i must
// avoid: each teammate's believed location plus the target of its
// TMM-predicted action ("the action a_j with the highest P̂", Section
// 3.3.1). Additionally, lower-ID teammates have right of way: asset i
// avoids every node such a teammate could occupy after this epoch. An asset
// traverses one edge per epoch, so a teammate last seen s epochs ago is
// within s hops of its believed node and within s+1 after the upcoming
// simultaneous move; the whole hop-ball is blocked. This breaks the
// symmetric-policy herding that otherwise drives identically-modeled assets
// onto one node between communications. (Absolute collision freedom is
// unattainable under intermittent communication — a lower-ID asset can
// still step onto a silent waiter — but residual collisions are rare; the
// experiment suite tracks the rate against Baseline-2's near-100%.)
func (p *Planner) predictTeammateNodes(m *sim.Mission, i int, dest features.DestArg) {
	g := m.Grid()
	p.blocked.Reset(g.NumNodes())
	// The reachability gate's bound for teammates last seen gateStale
	// epochs ago; teammates mostly share one staleness, so its key is taken
	// once per staleness value, not once per teammate.
	gateStale, gate := -1, grid.Range{}
	for j := range m.NumAssets() {
		if j == i {
			continue
		}
		vj := m.Knowledge(i).LastKnown[j]
		p.blocked.Add(vj)
		stale := m.Step() - m.Knowledge(i).LastKnownStep[j]
		if stale < 0 {
			stale = 0
		}
		// Reachability gate: after our one-edge move we sit within
		// MaxEdgeWeight of our node; teammate j sits within (stale+1) edges
		// of vj. If those balls cannot intersect, j is irrelevant this
		// epoch — skip the hop-ball and the TMM model entirely. This keeps
		// per-decision cost flat as teams spread out. Distance keys decide
		// the test without trig wherever they can (grid.Beyond).
		if stale != gateStale {
			gateStale, gate = stale, g.RangeOf(float64(stale+2)*g.MaxEdgeWeight())
		}
		if g.Beyond(m.Cur(i), vj, gate) {
			continue
		}
		if j < i && !p.opts.NoRightOfWay {
			p.blockHopBall(g, vj, stale+1)
			continue
		}
		if p.opts.NoTMMBlocking {
			continue
		}
		// Teammate j's actions in sim.AppendLegalActions order, one
		// target step per out-neighbour; the argmax keeps the first best.
		bestP := math.Inf(-1)
		bestTo := vj
		ctx := p.ext.TMMContextInto(&p.tmmCtx, m, i, j, dest)
		edges := g.Neighbors(vj)
		maxSpeed := m.Asset(j).MaxSpeed
		_ = p.budget.Charge(limits.Nodes, int64(sim.ActionCount(len(edges), maxSpeed)))
		for n, e := range edges {
			ctx.Target(n)
			for s := 1; s <= maxSpeed; s++ {
				p.featBuf = ctx.AppendSpeed(p.featBuf[:0], s)
				if pv := p.model.PredictTMM(p.featBuf); pv > bestP {
					bestP, bestTo = pv, e.To
				}
			}
		}
		ctx.Target(sim.Wait.Neighbor)
		p.featBuf = ctx.AppendSpeed(p.featBuf[:0], 0)
		if p.model.PredictTMM(p.featBuf) > bestP {
			bestTo = vj
		}
		p.blocked.Add(bestTo)
	}
}

// blockHopBall adds every node within radius hops of v to p.blocked, using
// the planner's BFS scratch.
func (p *Planner) blockHopBall(g *grid.Grid, v grid.NodeID, radius int) {
	p.ballSeen.Reset(g.NumNodes())
	p.ballSeen.Add(v)
	p.ballCur = append(p.ballCur[:0], v)
	for hop := 0; hop < radius; hop++ {
		p.ballNext = p.ballNext[:0]
		for _, u := range p.ballCur {
			for _, e := range g.Neighbors(u) {
				if !p.ballSeen.Has(e.To) {
					p.ballSeen.Add(e.To)
					p.blocked.Add(e.To)
					p.ballNext = append(p.ballNext, e.To)
				}
			}
		}
		p.ballCur, p.ballNext = p.ballNext, p.ballCur
		if len(p.ballCur) == 0 {
			break
		}
	}
}

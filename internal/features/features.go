// Package features implements the hand-crafted feature engineering behind
// Approx-MaMoRL (Section 3.3, Equations 9 and 11). A feature vector
// describes one candidate action — a teammate's anticipated action for the
// TMM approximation, or the asset's own action for the LM approximation —
// from the deciding asset's local knowledge only.
//
// Two of the paper's features are generalized from indicators to fractions,
// keeping their sign semantics while letting the regression rank actions
// instead of merely classifying them (the "extensive feature engineering
// efforts" of Section 3.3):
//
//   - α ("leads to unsensed nodes") is the fraction of newly sensed nodes
//     the action would yield, normalized by D_max; the paper's indicator is
//     α > 0.
//   - β ("leads to d") is the normalized progress toward the destination,
//     (dist(from, d) − dist(to, d)) / edge weight ∈ [−1, 1]; the paper's
//     indicator is β > 0. It is zero while the destination is unknown.
package features

import (
	"github.com/routeplanning/mamorl/internal/graphalg"
	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/sim"
)

// Feature vector dimensions.
const (
	// TMMDim is the width of Equation 9's vector: degree, θ, α, β, speed.
	TMMDim = 5
	// LMDim is the width of Equation 11's vector: the five TMM features
	// plus the collision-speed feature sp'_i.
	LMDim = 6
)

// DefaultHopsM is the default m of the θ feature ("another asset within m
// hops"); the paper does not publish its value.
const DefaultHopsM = 2

// Extractor computes feature vectors. The zero value is not ready; use New.
type Extractor struct {
	// HopsM is the θ feature's hop threshold m.
	HopsM int
	// Mask, when non-nil, restricts which nodes count as worth sensing for
	// the α feature. The partial-knowledge planner masks to its region:
	// nodes outside it cannot contain the destination, so sensing them has
	// no value.
	Mask func(grid.NodeID) bool
}

// New returns an Extractor with the default m.
func New() Extractor { return Extractor{HopsM: DefaultHopsM} }

// DestArg carries the destination knowledge available to the deciding
// asset: NoDest until the destination is broadcast, the destination node
// afterwards.
type DestArg = grid.NodeID

// NoDest marks an unknown destination.
const NoDest = grid.None

// TMM computes Equation 9's features: asset i's view of teammate j taking
// action a from j's last-known node.
func (e Extractor) TMM(m *sim.Mission, i, j int, a sim.Action, dest DestArg) []float64 {
	return e.TMMContext(m, i, j, dest).Features(a)
}

// LM computes Equation 11's features: asset i's own action a from its
// current node, with the trailing collision-speed feature.
func (e Extractor) LM(m *sim.Mission, i int, a sim.Action, dest DestArg) []float64 {
	return e.LMContext(m, i, dest).Features(a)
}

// NodeContext caches the expensive per-node feature components so that
// scoring every action at a node (planners do this every epoch for every
// asset and anticipated teammate) costs one hop search per context,
// covering every other asset at once, and one sensing count per target
// node instead of per (target, speed) pair.
//
// Extraction takes two steps. Target primes one out-neighbour of the
// context node, or wait: it computes what depends on the target alone (α,
// β, and for LM contexts whether asset i believes the target occupied).
// AppendSpeed then appends the vector of one speed toward the primed
// target, which differs between speeds only in sp and sp'. Priming a
// context targets wait. Scoring loops walk out-neighbours in index order,
// speeds 1..MaxSpeed within each, then wait: the sim.AppendLegalActions
// order.
//
// A NodeContext is reusable: planners keep one per decision loop and
// re-prime it with LMContextInto/TMMContextInto, so the steady-state
// planning path performs no per-epoch allocation (its hop scratch persists
// across reuse). Priming also reads the subject's spec once, its maximum
// speed (as the float64 sp divides by) and its sensing radius, so scoring
// an action copies no Scenario.
type NodeContext struct {
	e      Extractor
	m      *sim.Mission
	i, j   int
	v      grid.NodeID
	dest   DestArg
	lm     bool
	degree float64
	theta  float64
	// destDist is Distance(v, dest), β's first term; read only while the
	// destination is known.
	destDist float64
	// maxSpeed and radius are subject j's MaxSpeed and SensingRadius.
	maxSpeed float64
	radius   float64
	// The primed target: wait, or an out-neighbour with its α, β and (LM
	// contexts only) believed occupancy.
	wait        bool
	alpha, beta float64
	occupied    bool
	// others holds θ's targets, the other assets' believed nodes.
	others []grid.NodeID
	hops   graphalg.HopSearcher
}

// TMMContext prepares feature extraction for teammate j's actions at its
// last-known node, from asset i's view.
func (e Extractor) TMMContext(m *sim.Mission, i, j int, dest DestArg) *NodeContext {
	return e.TMMContextInto(new(NodeContext), m, i, j, dest)
}

// LMContextInto is LMContext priming a caller-owned context, reusing its
// scratch storage.
func (e Extractor) LMContextInto(c *NodeContext, m *sim.Mission, i int, dest DestArg) *NodeContext {
	return e.primeContext(c, m, i, i, m.Cur(i), dest, true)
}

// TMMContextInto is TMMContext priming a caller-owned context, reusing its
// scratch storage.
func (e Extractor) TMMContextInto(c *NodeContext, m *sim.Mission, i, j int, dest DestArg) *NodeContext {
	return e.primeContext(c, m, i, j, m.Knowledge(i).LastKnown[j], dest, false)
}

// LMContext prepares feature extraction for asset i's own actions at its
// current node.
func (e Extractor) LMContext(m *sim.Mission, i int, dest DestArg) *NodeContext {
	return e.LMContextInto(new(NodeContext), m, i, dest)
}

func (e Extractor) primeContext(c *NodeContext, m *sim.Mission, i, j int, v grid.NodeID, dest DestArg, lm bool) *NodeContext {
	g := m.Grid()
	c.e, c.m, c.i, c.j, c.v, c.dest, c.lm = e, m, i, j, v, dest, lm
	subject := m.Asset(j)
	c.maxSpeed, c.radius = float64(subject.MaxSpeed), subject.SensingRadius
	c.degree = float64(g.OutDegree(v)) / float64(g.MaxOutDegree())
	if dest != NoDest {
		c.destDist = g.Distance(v, dest)
	}
	c.theta = 0
	// θ(v, s): another asset within m hops of v (believed locations).
	c.others = c.others[:0]
	for k := range m.NumAssets() {
		if k == j {
			continue
		}
		other := m.Knowledge(i).LastKnown[k]
		if k == i {
			other = m.Cur(i)
		}
		c.others = append(c.others, other)
	}
	if c.hops.AnyWithinHops(g, v, c.others, e.HopsM) {
		c.theta = 1
	}
	c.Target(sim.Wait.Neighbor)
	return c
}

// Target primes the n-th out-neighbour of the context node as the target
// of the next AppendSpeed calls; a negative n (sim.Wait's Neighbor) primes
// wait. It returns the target's α: the fraction of newly sensed nodes
// there, judged against asset i's sensed knowledge with subject j's
// radius, normalized by D_max (0 for wait).
func (c *NodeContext) Target(n int) float64 {
	c.wait = n < 0
	c.alpha, c.beta, c.occupied = 0, 0, false
	if c.wait {
		return 0
	}
	g := c.m.Grid()
	edge := g.Neighbors(c.v)[n]
	to, weight := edge.To, edge.Weight

	// 3. α(a, s).
	c.alpha = float64(c.m.CountUnsensed(c.i, to, c.radius, c.e.Mask)) / float64(g.MaxOutDegree())

	// 4. β(a, d, s): normalized progress toward the destination; zero when
	// unknown or when waiting.
	if c.dest != NoDest && weight > 0 {
		beta := (c.destDist - g.Distance(to, c.dest)) / weight
		if beta > 1 {
			beta = 1
		} else if beta < -1 {
			beta = -1
		}
		c.beta = beta
	}

	// The collision-risk feature's occupancy test.
	if c.lm {
		c.occupied = c.m.BelievedOccupied(c.i, to)
	}
	return c.alpha
}

// AppendSpeed appends the feature vector of moving to the primed target at
// speed (ignored when the target is wait) to buf and returns the extended
// slice: Equation 9's five features, plus the collision-speed feature for
// LM contexts (Equation 11). Passing buf[:0] of a caller-owned buffer
// makes extraction allocation-free.
func (c *NodeContext) AppendSpeed(buf []float64, speed int) []float64 {
	// 5. sp: the action's speed normalized by the subject's max speed
	// (0 for wait).
	sp := 0.0
	if !c.wait {
		sp = float64(speed) / c.maxSpeed
	}
	out := append(buf, c.degree, c.theta, c.alpha, c.beta, sp)
	if !c.lm {
		return out
	}
	// sp'_i: collision-risk speed — the action's normalized speed if it
	// enters a believed-occupied node, else 0. Faster approaches to an
	// occupied node are riskier (less time for the teammate to clear).
	risk := 0.0
	if c.occupied {
		risk = sp
	}
	return append(out, risk)
}

// Features computes the vector for one action, allocating the result: the
// two steps for one action. Scoring loops call Target once per
// out-neighbour and AppendSpeed per speed instead.
func (c *NodeContext) Features(a sim.Action) []float64 {
	dim := TMMDim
	if c.lm {
		dim = LMDim
	}
	c.Target(a.Neighbor)
	return c.AppendSpeed(make([]float64, 0, dim), a.Speed)
}

// ResolveDest returns the destination argument asset i should use: the
// known destination after discovery, else NoDest.
func ResolveDest(m *sim.Mission, i int) DestArg {
	if k := m.Knowledge(i); k.DestKnown {
		return k.Dest
	}
	return NoDest
}

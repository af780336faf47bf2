// Package approx implements the paper's deployed planners: Approx-MaMoRL
// (linear-regression function approximation, Section 3.3) and
// NN-Approx-MaMoRL (neural-network counterpart). Both replace the exact
// solver's exponential P and Q tables with tiny learned models over the
// hand-crafted features of internal/features, trained on samples produced
// by exact MaMoRL runs on a small grid (Section 4.2: 50 nodes, 93 edges,
// 2 assets).
package approx

import (
	"fmt"

	"github.com/routeplanning/mamorl/internal/core"
	"github.com/routeplanning/mamorl/internal/features"
	"github.com/routeplanning/mamorl/internal/rewardfn"
	"github.com/routeplanning/mamorl/internal/sim"
	"github.com/routeplanning/mamorl/internal/tensor"
	"github.com/routeplanning/mamorl/internal/trace"
	"github.com/routeplanning/mamorl/internal/vessel"
)

// TrainingData holds regression samples for both approximated modules: per
// module, one flat feature matrix whose row k pairs with target k.
type TrainingData struct {
	// TMM samples: features (Equation 9) -> P values sampled from the exact
	// solver's Teammate Module (Equation 10's targets).
	TMMX *tensor.Matrix
	TMMY []float64
	// LM samples: features (Equation 11) -> reward samples r_{i,a_i,s}
	// (Equation 12's targets).
	LMX *tensor.Matrix
	LMY []float64
}

// Len returns the sample counts.
func (d *TrainingData) Len() (tmm, lm int) { return len(d.TMMY), len(d.LMY) }

// rewardProxy is the r_{i,a_i,s} regression target: asset i's share of the
// Section 3.1.1 reward for taking action a, computable in closed form
// because transitions are deterministic. A wait contributes nothing to any
// team objective — it neither explores, nor advances the mission clock
// productively, nor saves fuel that a useful move would not also have spent
// — so its target is exactly 0; rewarding waits with the inverse-time/fuel
// formulas teaches the regression that parking forever is optimal (a
// failure mode we hit and locked out with TestWaitProxyIsZero). When the
// destination is known, normalized progress toward it joins the target — this trains the "useful afterward" regime that the
// β feature exists for (Section 3.3.1).
func rewardProxy(m *sim.Mission, i int, a sim.Action, dest features.DestArg, w rewardfn.Weights) float64 {
	if a.IsWait() {
		return 0
	}
	g := m.Grid()
	from := m.Cur(i)
	to, weight := m.Apply(from, a)

	newly := m.PredictNewlySensed(i, to)
	explore := float64(newly) / (float64(g.MaxOutDegree()) * float64(m.NumAssets()))
	mt := vessel.MoveTime(weight, float64(a.Speed))
	timeR := 1 / mt
	fuelR := 1 / (1 + vessel.MoveFuel(weight, float64(a.Speed)))
	target := w.Explore*explore + w.Time*timeR + w.Fuel*fuelR

	if dest != features.NoDest && !a.IsWait() && weight > 0 {
		progress := (g.Distance(from, dest) - g.Distance(to, dest)) / weight
		if progress > 1 {
			progress = 1
		} else if progress < -1 {
			progress = -1
		}
		target += w.Explore * progress
	}
	return target
}

// CollectOptions tunes sample collection.
type CollectOptions struct {
	// Episodes is the number of sampling missions run with the exact
	// planner (ε-greedy, so trajectories vary). Default 5.
	Episodes int
	// Weights scalarize the LM reward targets. Zero selects the defaults.
	Weights rewardfn.Weights
	// Extractor computes features; zero value selects features.New().
	Extractor features.Extractor
	// Tracer, when non-nil, records one "sample.episode" span per sampling
	// mission with the cumulative sample counts.
	Tracer *trace.Tracer
}

func (o CollectOptions) withDefaults() CollectOptions {
	if o.Episodes == 0 {
		o.Episodes = 5
	}
	if o.Weights == (rewardfn.Weights{}) {
		o.Weights = rewardfn.DefaultWeights()
	}
	if o.Extractor.HopsM == 0 {
		o.Extractor = features.New()
	}
	return o
}

// CollectSamples runs sampling missions with a trained exact MaMoRL planner
// and harvests (feature, target) pairs for both modules. The LM targets are
// collected in both destination regimes: unknown (β = 0) and known (β
// active, progress in the target), matching the paper's two-regime feature
// design.
//
// Samples land in flat row-major matrices — one backing array per module,
// doubled when full (tensor.Append) — so harvesting N samples costs
// O(log N) slice growths instead of one allocation per row, and copies at
// most N values on the way.
func CollectSamples(pl *core.Planner, opts CollectOptions) (*TrainingData, error) {
	opts = opts.withDefaults()
	sc := pl.Scenario()
	data := &TrainingData{
		TMMX: tensor.NewMatrix(features.TMMDim),
		LMX:  tensor.NewMatrix(features.LMDim),
	}
	w := opts.Weights.Normalized()

	// Per-collection scratch, reused across every step: feature contexts
	// (their hop scratch persists) and one feature buffer.
	var (
		tmmCtx, lmCtxNo, lmCtxDest features.NodeContext
		xbuf                       []float64
	)
	// Rows follow the legal-action order (sim.AppendLegalActions, or
	// AppendLegalActionsFor for the asset's own moves): each out-neighbour
	// at speeds 1..MaxSpeed, then wait. A context's target step runs once
	// per neighbour, its speed step once per row.
	tmmRow := func(speed int, p float64) {
		xbuf = tmmCtx.AppendSpeed(xbuf[:0], speed)
		data.TMMX.AppendRow(xbuf)
		data.TMMY = tensor.Append(data.TMMY, p)
	}
	lmRows := func(m *sim.Mission, i int, a sim.Action) {
		xbuf = lmCtxNo.AppendSpeed(xbuf[:0], a.Speed)
		data.LMX.AppendRow(xbuf)
		data.LMY = tensor.Append(data.LMY, rewardProxy(m, i, a, features.NoDest, w))

		xbuf = lmCtxDest.AppendSpeed(xbuf[:0], a.Speed)
		data.LMX.AppendRow(xbuf)
		data.LMY = tensor.Append(data.LMY, rewardProxy(m, i, a, sc.Dest, w))
	}
	// collectErr latches a P distribution that does not match its node's
	// legal actions. The exact planner sizes every distribution by the
	// out-degree of the node its joint-state key fixes, so this reports a
	// broken invariant rather than a sample to skip.
	var collectErr error
	collect := func(m *sim.Mission, _ []sim.Action) {
		if collectErr != nil {
			return
		}
		g := m.Grid()
		assets := m.NumAssets()
		for i := 0; i < assets; i++ {
			for j := 0; j < assets; j++ {
				if j == i {
					continue
				}
				dist := pl.PDistribution(m, i, j)
				edges := g.Neighbors(m.Knowledge(i).LastKnown[j])
				maxSpeed := sc.Team[j].MaxSpeed
				if want := sim.ActionCount(len(edges), maxSpeed); want != len(dist) {
					collectErr = fmt.Errorf("approx: asset %d's P distribution for teammate %d has %d entries, want %d",
						i, j, len(dist), want)
					return
				}
				opts.Extractor.TMMContextInto(&tmmCtx, m, i, j, features.NoDest)
				aIdx := 0
				for n := range edges {
					tmmCtx.Target(n)
					for s := 1; s <= maxSpeed; s++ {
						tmmRow(s, dist[aIdx])
						aIdx++
					}
				}
				tmmCtx.Target(sim.Wait.Neighbor)
				tmmRow(0, dist[aIdx])
			}
			opts.Extractor.LMContextInto(&lmCtxNo, m, i, features.NoDest)
			opts.Extractor.LMContextInto(&lmCtxDest, m, i, sc.Dest)
			maxSpeed := sc.Team[i].MaxSpeed
			for n, e := range g.Neighbors(m.Cur(i)) {
				if m.Obstacle(e.To) {
					continue
				}
				lmCtxNo.Target(n)
				lmCtxDest.Target(n)
				for s := 1; s <= maxSpeed; s++ {
					lmRows(m, i, sim.Action{Neighbor: n, Speed: s})
				}
			}
			lmCtxNo.Target(sim.Wait.Neighbor)
			lmCtxDest.Target(sim.Wait.Neighbor)
			lmRows(m, i, sim.Wait)
		}
	}

	pl.SetTraining(true) // ε-greedy trajectories diversify the state sample
	defer pl.SetTraining(false)
	for ep := 0; ep < opts.Episodes; ep++ {
		sp := opts.Tracer.Start("sample.episode", trace.Int("episode", int64(ep)))
		_, err := sim.Run(sc, pl, sim.RunOptions{OnStep: collect, TraceParent: sp})
		if err == nil {
			err = collectErr
		}
		if err != nil {
			sp.End()
			return nil, fmt.Errorf("approx: sampling episode %d: %w", ep, err)
		}
		if sp.Enabled() {
			tmm, lm := len(data.TMMY), len(data.LMY)
			sp.SetAttrs(trace.Int("tmm_samples", int64(tmm)), trace.Int("lm_samples", int64(lm)))
			sp.End()
		}
	}
	if len(data.TMMY) == 0 || len(data.LMY) == 0 {
		return nil, fmt.Errorf("approx: sampling produced no data (missions end immediately?)")
	}
	return data, nil
}

package experiments

import (
	"sync"
	"sync/atomic"

	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/vessel"
)

// instanceCache holds the seeded synthetic grids of one driver call, so that
// every algorithm's run `run` plans on the same read-only *grid.Grid — the
// one instance per seed that the paired t-tests (PerRun) assume. Keys are
// the grid.SyntheticConfig scenarioFor would generate: the shape plus the
// run's seed. The first leaf to ask for a key builds it while it holds its
// executor token; leaves asking for the same key meanwhile wait on the key's
// once. The cache lives on the call's Params and is garbage once the call
// returns.
type instanceCache struct {
	mu    sync.Mutex
	byCfg map[grid.SyntheticConfig]*instance
	// requests and builds count lookups and generated grids; tests read
	// them to pin the sharing.
	requests, builds atomic.Int64
}

// instance is one cached grid, or the error generating it.
type instance struct {
	once sync.Once
	g    *grid.Grid
	err  error
}

func newInstanceCache() *instanceCache {
	return &instanceCache{byCfg: make(map[grid.SyntheticConfig]*instance)}
}

// withInstances gives p the instance cache of a driver call. A driver called
// by another (a sweep point inside RunSweeps) keeps its caller's cache; any
// other call gets a fresh one.
func withInstances(p Params) Params {
	if p.instances == nil {
		p.instances = newInstanceCache()
	}
	return p
}

// grid returns cfg's grid, generating it on first request. The request that
// generates it also warms the grid's sensing-ball memo for every node at the
// radii the team of p's scenario carries: left lazy, the memo's cold fills
// would be billed to whichever algorithm reached the instance first, and
// each run's CPUTime would depend on run order.
func (c *instanceCache) grid(cfg grid.SyntheticConfig, p Params) (*grid.Grid, error) {
	c.requests.Add(1)
	c.mu.Lock()
	in := c.byCfg[cfg]
	if in == nil {
		in = &instance{}
		c.byCfg[cfg] = in
	}
	c.mu.Unlock()
	in.once.Do(func() {
		c.builds.Add(1)
		if in.g, in.err = grid.GenerateSynthetic(cfg); in.err != nil {
			return
		}
		// A scenario error is the caller's to report, when it builds its own.
		if sc, err := newScenario(in.g, p); err == nil {
			warmBalls(in.g, sc.Team)
		}
	})
	return in.g, in.err
}

// warmBalls fills g's sensing-ball table of each distinct radius in team.
func warmBalls(g *grid.Grid, team vessel.Team) {
	for i, a := range team {
		if i > 0 && a.SensingRadius == team[i-1].SensingRadius {
			continue
		}
		for v := 0; v < g.NumNodes(); v++ {
			g.ForEachWithinRadius(grid.NodeID(v), a.SensingRadius, func(grid.NodeID) {})
		}
	}
}

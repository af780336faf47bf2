package sim

import (
	"fmt"

	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/limits"
	"github.com/routeplanning/mamorl/internal/trace"
	"github.com/routeplanning/mamorl/internal/vessel"
	"github.com/routeplanning/mamorl/internal/weather"
)

// Scenario is a complete RPP instance: the grid, the team, the (hidden)
// destination, and the communication cadence.
type Scenario struct {
	Grid *grid.Grid
	Team vessel.Team
	// Dest is d(x, y): unknown to the assets until sensed (Problem 1).
	Dest grid.NodeID
	// CommEvery is k, the period of location exchange in decision epochs
	// (Section 2.2). Values < 1 mean no periodic communication.
	CommEvery int
	// CommRange limits the periodic exchange to assets within this metric
	// distance of each other ("a spatial domain with limited communication
	// capabilities", Section 2.4.1): information flows transitively within
	// each radio-connected group, so a chain of assets relays. Zero means
	// unlimited range. The discovery broadcast always reaches everyone
	// (the paper's asynchronous broadcast).
	CommRange float64
	// MaxSteps bounds an episode; a mission that has not discovered the
	// destination within MaxSteps epochs fails. Zero selects a default
	// proportional to the grid size.
	MaxSteps int
	// Weather, when non-nil, scales effective speeds during execution
	// (currents and storms; internal/weather). Planners command nominal
	// speeds; the environment delivers real ones — the robustness setting
	// of the paper's TMPLAR deployment (Section 4.7).
	Weather weather.Field
	// Obstacles lists nodes no asset may ever occupy (reefs, exclusion
	// zones, threat areas — the paper's abstract requires routes "avoiding
	// collisions and obstacles"). LegalActionsFor never offers a move into
	// an obstacle and ExecuteStep rejects one as a planner bug; the
	// frontier search routes around them.
	Obstacles []grid.NodeID
	// Rendezvous extends the mission past discovery: after the finder
	// broadcasts the destination, the episode continues until every asset
	// is within its sensing radius of it (Definition 2's makespan "for
	// reaching the mission goal"; the β feature's "useful afterward"
	// regime). Without it, missions end at the discovery epoch.
	Rendezvous bool
}

// DefaultMaxStepsFactor scales the default episode bound: |V| * factor
// epochs is far beyond what any sensible policy needs, but bounds runaway
// policies (failure injection relies on this).
const DefaultMaxStepsFactor = 8

// maxSteps resolves the episode bound.
func (sc Scenario) maxSteps() int {
	if sc.MaxSteps > 0 {
		return sc.MaxSteps
	}
	return sc.Grid.NumNodes() * DefaultMaxStepsFactor
}

// obstacleSet materializes the obstacle list as a lookup, or nil if empty.
func (sc Scenario) obstacleSet() map[grid.NodeID]bool {
	if len(sc.Obstacles) == 0 {
		return nil
	}
	set := make(map[grid.NodeID]bool, len(sc.Obstacles))
	for _, v := range sc.Obstacles {
		set[v] = true
	}
	return set
}

// Validate checks the scenario: a valid team on valid nodes, a destination
// inside the grid, obstacles that block neither sources nor destination,
// and obstacle-avoiding reachability of the destination from every source.
// Errors are reported in obstacle order, then team order. Without
// obstacles on a strongly connected grid every source reaches the
// destination, so Validate checks only that each source lies in the grid
// and allocates nothing; otherwise reachability is one reverse BFS from
// the destination over in-edges, shared by the whole team.
func (sc Scenario) Validate() error {
	if sc.Grid == nil {
		return fmt.Errorf("scenario: nil grid")
	}
	if err := sc.Team.Validate(); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	n := grid.NodeID(sc.Grid.NumNodes())
	if sc.Dest < 0 || sc.Dest >= n {
		return fmt.Errorf("scenario: destination %d outside grid of %d nodes", sc.Dest, n)
	}
	if len(sc.Obstacles) == 0 && sc.Grid.StronglyConnected() {
		for _, a := range sc.Team {
			if a.Source >= n {
				return fmt.Errorf("scenario: asset %d source %d outside grid", a.ID, a.Source)
			}
		}
		return nil
	}
	obstacle := make([]bool, n)
	for _, v := range sc.Obstacles {
		if v < 0 || v >= n {
			return fmt.Errorf("scenario: obstacle %d outside grid", v)
		}
		obstacle[v] = true
	}
	if obstacle[sc.Dest] {
		return fmt.Errorf("scenario: destination %d is an obstacle", sc.Dest)
	}
	reaches := make([]bool, n)
	reaches[sc.Dest] = true
	queue := append(make([]grid.NodeID, 0, n), sc.Dest)
	for head := 0; head < len(queue); head++ {
		for _, e := range sc.Grid.InEdges(queue[head]) {
			if !reaches[e.To] && !obstacle[e.To] {
				reaches[e.To] = true
				queue = append(queue, e.To)
			}
		}
	}
	for _, a := range sc.Team {
		if a.Source >= n {
			return fmt.Errorf("scenario: asset %d source %d outside grid", a.ID, a.Source)
		}
		if obstacle[a.Source] {
			return fmt.Errorf("scenario: asset %d starts on obstacle %d", a.ID, a.Source)
		}
		if !reaches[a.Source] {
			return fmt.Errorf("scenario: destination %d unreachable from asset %d at %d (obstacles considered)",
				sc.Dest, a.ID, a.Source)
		}
	}
	return nil
}

// CollisionPolicy selects how a mission treats collisions.
type CollisionPolicy int

const (
	// RecordCollisions counts collisions and continues; cooperative
	// planners are expected never to trigger any, and integration tests
	// assert that.
	RecordCollisions CollisionPolicy = iota
	// AbortOnCollision ends the mission as failed at the first collision.
	// Table 6 reports Baseline-2 as N/A under this policy.
	AbortOnCollision
)

// RunOptions tunes a single mission run.
type RunOptions struct {
	// Collision selects the collision policy.
	Collision CollisionPolicy
	// OnStep, when non-nil, observes every epoch after it is applied:
	// the chosen joint action, with each asset's realized move (time and
	// fuel included) in Mission.LastMove.
	OnStep func(m *Mission, acts []Action)
	// Tracer, when non-nil, records the mission as a span carrying its
	// totals, set once at the end: steps, discovery, collisions, T and F,
	// the exchange count and the Decide time. Tracing is pure
	// observation: it never touches the planner, the RNG, or the result.
	Tracer *trace.Tracer
	// TraceParent, when non-nil, parents the mission span under an existing
	// span (an experiment run, a TMPLAR request) instead of starting a new
	// trace. Takes precedence over Tracer.
	TraceParent *trace.Span
	// Budget, when non-nil, bounds what the run may consume: NewMission
	// charges the mission-state bytes, and the step loop polls Budget.Err
	// every epoch, aborting with a wrapped *limits.ErrOverBudget once a
	// planner (sharing this budget) has exhausted it. nil runs unlimited
	// at zero cost.
	Budget *limits.Budget
}

// Result summarizes a finished mission.
type Result struct {
	// Found reports whether the destination was discovered.
	Found bool
	// FoundBy is the ID of the discovering asset, -1 if not found.
	FoundBy int
	// Steps is the number of decision epochs executed.
	Steps int
	// DiscoverySteps is the epoch at which the destination was first
	// sensed (-1 if never). Equal to Steps unless the scenario ran a
	// rendezvous phase.
	DiscoverySteps int
	// TTotal is the paper's T_total: max over assets of time expended
	// (Definition 2, makespan).
	TTotal float64
	// FTotal is the paper's F_total: total fuel over all assets
	// (Definition 1).
	FTotal float64
	// Collisions counts epochs at which two or more assets shared a node.
	Collisions int
	// Aborted reports an AbortOnCollision termination.
	Aborted bool
}

// String implements fmt.Stringer.
func (r Result) String() string {
	status := "not found"
	if r.Found {
		status = fmt.Sprintf("found by asset %d", r.FoundBy)
	}
	if r.Aborted {
		status = "aborted (collision)"
	}
	return fmt.Sprintf("%s after %d steps: T_total=%.2f F_total=%.2f collisions=%d",
		status, r.Steps, r.TTotal, r.FTotal, r.Collisions)
}

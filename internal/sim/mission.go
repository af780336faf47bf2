package sim

import (
	"context"
	"fmt"
	"time"

	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/limits"
	"github.com/routeplanning/mamorl/internal/rewardfn"
	"github.com/routeplanning/mamorl/internal/trace"
	"github.com/routeplanning/mamorl/internal/vessel"
	"github.com/routeplanning/mamorl/internal/weather"
)

// Planner decides one asset's action per epoch from that asset's local view.
// Implementations must only read the mission through the local-view methods
// (Knowledge, LegalActionsFor, PredictNewlySensed, BelievedOccupied, ...);
// the simulation enforces distribution by information discipline, not types.
type Planner interface {
	// Name identifies the planner in results and logs.
	Name() string
	// Decide returns asset i's action for the current epoch. All assets
	// decide from the same pre-step mission state (simultaneous moves).
	Decide(m *Mission, i int) Action
}

// Learner is a Planner that learns online from observed transitions, in the
// style of the paper's Learning Module: after each joint transition it sees
// the joint action and the vector reward (centralized training,
// decentralized execution).
type Learner interface {
	Planner
	// Observe is called once per epoch after the transition is applied.
	// prev holds the pre-step locations (a buffer the next epoch reuses,
	// so implementations must not retain it); the mission exposes the
	// post-step state.
	Observe(m *Mission, prev []grid.NodeID, acts []Action, r rewardfn.Vector)
}

// Knowledge is one asset's local view of the mission (Section 2.2): what it
// has sensed (plus whatever teammates shared at the last communication), the
// last known locations of the other assets, and whether the destination has
// been revealed to it.
type Knowledge struct {
	// Sensed[v] is true if this asset knows node v has been sensed.
	Sensed []bool
	// SensedCount is the number of true entries in Sensed.
	SensedCount int
	// LastKnown[j] is the most recent location this asset learned for
	// asset j (its own entry is always current).
	LastKnown []grid.NodeID
	// LastKnownStep[j] is the epoch at which LastKnown[j] was learned.
	LastKnownStep []int
	// DestKnown is set once the destination's location has been revealed
	// to this asset (it sensed it, or partial knowledge revealed a region
	// and the planner resolved it).
	DestKnown bool
	// sensesDest records whether the asset's last sensing ball held the
	// destination: Distance(its node, Dest) <= its sensing radius.
	sensesDest bool
	// Dest is the revealed destination; valid only when DestKnown.
	Dest grid.NodeID
}

// Mission is a live RPP episode.
type Mission struct {
	sc   Scenario
	opts RunOptions

	// cur[i] is asset i's current node (the joint TDMDP state).
	cur []grid.NodeID
	// time[i], fuel[i] accumulate per-asset expenditure (T_Time_i, T_Fuel_i).
	time []float64
	fuel []float64
	// teamSensed is ground truth: nodes sensed by any asset so far. The
	// exploration reward counts against this set.
	teamSensed      []bool
	teamSensedCount int
	know            []Knowledge

	// obstacles are nodes no asset may occupy; nil when the scenario has
	// none.
	obstacles map[grid.NodeID]bool

	// moves[i] is asset i's move in the epoch ExecuteStep last applied
	// (LastMove).
	moves []rewardfn.Move

	// fresh[i] lists the nodes asset i's own sensing added to its Sensed
	// since the last whole-team exchange. A node an asset holds beyond that
	// exchange's union reached the team through someone's sensing, so it
	// sits in the list of the asset that sensed it first: the next
	// whole-team exchange only has to add the other members' lists.
	fresh [][]grid.NodeID

	// wholeTeam (the one group of every asset), union (a ranged group's
	// sensed set), and radio and radioGroups (a ranged exchange's
	// union-find and groups) are communication scratch, allocated on the
	// first exchange of their kind and reused by every later one.
	wholeTeam   [][]int
	union       []bool
	radio       commUF
	radioGroups [][]int

	step          int
	done          bool
	foundBy       int
	discoveryStep int
	collisions    int
	aborted       bool
	// exchanges counts group exchanges: one per group of two or more
	// assets that shared state, periodic or on discovery.
	exchanges int
}

// NewMission initializes an episode: assets at their sources, initial
// sensing applied, discovery checked (a destination within someone's initial
// sensing radius ends the mission at step 0).
func NewMission(sc Scenario, opts RunOptions) (*Mission, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	n := len(sc.Team)
	v := sc.Grid.NumNodes()
	// Mission state is the dominant per-episode allocation: per-asset
	// Knowledge (a sensed bitmap plus last-known vectors), the shared
	// team-sensed bitmap, and the per-asset fresh lists, each up to |V|
	// node IDs between whole-team exchanges. Charge the estimate up front
	// so a budget too small for the scenario fails before any planning
	// work happens.
	stateBytes := int64(v)*int64(n+1) + 16*int64(n)*int64(n) + 4*int64(v)*int64(n)
	if err := opts.Budget.Charge(limits.Bytes, stateBytes); err != nil {
		return nil, fmt.Errorf("sim: mission state over budget: %w", err)
	}
	m := &Mission{
		sc:            sc,
		opts:          opts,
		cur:           make([]grid.NodeID, n),
		time:          make([]float64, n),
		fuel:          make([]float64, n),
		moves:         make([]rewardfn.Move, n),
		teamSensed:    make([]bool, v),
		know:          make([]Knowledge, n),
		fresh:         make([][]grid.NodeID, n),
		obstacles:     sc.obstacleSet(),
		foundBy:       -1,
		discoveryStep: -1,
	}
	for i, a := range sc.Team {
		m.cur[i] = a.Source
		m.know[i] = Knowledge{
			Sensed:        make([]bool, v),
			LastKnown:     make([]grid.NodeID, n),
			LastKnownStep: make([]int, n),
		}
		// Sources are public at mission start (the team sails from known
		// ports); afterwards locations are only refreshed by communication.
		for j, b := range sc.Team {
			m.know[i].LastKnown[j] = b.Source
		}
	}
	for i := range sc.Team {
		m.senseFrom(i)
	}
	m.checkDiscovery()
	return m, nil
}

// Scenario returns the mission's scenario.
func (m *Mission) Scenario() Scenario { return m.sc }

// Grid returns the mission grid.
func (m *Mission) Grid() *grid.Grid { return m.sc.Grid }

// NumAssets returns |N|.
func (m *Mission) NumAssets() int { return len(m.sc.Team) }

// Asset returns asset i's spec: its source, sensing radius and maximum
// speed. Decision loops read it instead of copying the whole Scenario.
func (m *Mission) Asset(i int) vessel.Asset { return m.sc.Team[i] }

// Step returns the current epoch number.
func (m *Mission) Step() int { return m.step }

// Done reports whether the mission has ended.
func (m *Mission) Done() bool { return m.done }

// Cur returns asset i's current node. Planners may read their own entry
// freely; reading another asset's entry models ground truth and is reserved
// for learners in centralized training and for the simulator itself.
func (m *Mission) Cur(i int) grid.NodeID { return m.cur[i] }

// CurAll returns a copy of all current locations (the joint state).
func (m *Mission) CurAll() []grid.NodeID { return append([]grid.NodeID(nil), m.cur...) }

// LastMove returns asset i's move in the epoch ExecuteStep last applied
// (the zero Move before the first): its endpoints, edge weight, commanded
// speed and weather speed factor. Its Time and Fuel are exactly what that
// epoch added to the asset's TimeSpent and FuelSpent.
func (m *Mission) LastMove(i int) rewardfn.Move { return m.moves[i] }

// TimeSpent returns asset i's accumulated mission time.
func (m *Mission) TimeSpent(i int) float64 { return m.time[i] }

// FuelSpent returns asset i's accumulated fuel.
func (m *Mission) FuelSpent(i int) float64 { return m.fuel[i] }

// Knowledge returns asset i's local view. The returned pointer aliases
// mission state; planners must treat it as read-only.
func (m *Mission) Knowledge(i int) *Knowledge { return &m.know[i] }

// TeamSensedCount returns the ground-truth count of sensed nodes.
func (m *Mission) TeamSensedCount() int { return m.teamSensedCount }

// Obstacle reports whether node v is impassable in this mission.
func (m *Mission) Obstacle(v grid.NodeID) bool { return m.obstacles[v] }

// HasObstacles reports whether the mission has any impassable nodes, letting
// route planners skip the avoid predicate entirely on obstacle-free grids.
func (m *Mission) HasObstacles() bool { return len(m.obstacles) > 0 }

// LegalActionsFor enumerates asset i's actions at its current node,
// excluding moves into obstacle nodes.
func (m *Mission) LegalActionsFor(i int) []Action {
	n := ActionCount(m.sc.Grid.OutDegree(m.cur[i]), m.sc.Team[i].MaxSpeed)
	return m.AppendLegalActionsFor(make([]Action, 0, n), i)
}

// AppendLegalActionsFor appends asset i's legal actions to buf and returns
// the extended slice. Planners pass buf[:0] of a reused buffer so that the
// per-epoch action enumeration allocates nothing.
func (m *Mission) AppendLegalActionsFor(buf []Action, i int) []Action {
	if m.obstacles == nil {
		return AppendLegalActions(buf, m.sc.Grid, m.cur[i], m.sc.Team[i].MaxSpeed)
	}
	deg := m.sc.Grid.OutDegree(m.cur[i])
	edges := m.sc.Grid.Neighbors(m.cur[i])
	for n := 0; n < deg; n++ {
		if m.obstacles[edges[n].To] {
			continue
		}
		for s := 1; s <= m.sc.Team[i].MaxSpeed; s++ {
			buf = append(buf, Action{Neighbor: n, Speed: s})
		}
	}
	return append(buf, Wait)
}

// Apply resolves the destination node of action a taken by asset i from
// node v, with the traversed edge weight (0 for wait).
func (m *Mission) Apply(v grid.NodeID, a Action) (grid.NodeID, float64) {
	if a.IsWait() {
		return v, 0
	}
	e := m.sc.Grid.Neighbors(v)[a.Neighbor]
	return e.To, e.Weight
}

// PredictNewlySensed estimates, from asset i's own knowledge, how many new
// nodes it would sense standing at node v. This is the planner-side
// Sensed(i)^{a_i} of Equation 1: believed, not ground truth, because a
// distributed asset cannot know what teammates sensed since the last
// communication.
func (m *Mission) PredictNewlySensed(i int, v grid.NodeID) int {
	return m.CountUnsensed(i, v, m.sc.Team[i].SensingRadius, nil)
}

// CountUnsensed counts the nodes within radius r of v that asset i has not
// sensed and mask accepts (a nil mask accepts every node): what a sensor
// of radius r at v would add to i's knowledge, restricted to the nodes a
// masked planner values. PredictNewlySensed, the α feature (r is then the
// subject teammate's radius) and exact MaMoRL's exploration tie-break all
// count through it, once per candidate target node. It walks the grid's
// memoized ball as a slice and scans only for a radius the memo does not
// serve.
func (m *Mission) CountUnsensed(i int, v grid.NodeID, r float64, mask func(grid.NodeID) bool) int {
	sensed := m.know[i].Sensed
	count := 0
	ball, ok := m.sc.Grid.Ball(v, r)
	if !ok {
		m.sc.Grid.ForEachWithinRadius(v, r, func(u grid.NodeID) {
			if !sensed[u] && (mask == nil || mask(u)) {
				count++
			}
		})
		return count
	}
	for _, u := range ball {
		if !sensed[u] && (mask == nil || mask(u)) {
			count++
		}
	}
	return count
}

// BelievedOccupied reports whether asset i believes node v is occupied by a
// teammate, based on last known locations. Cooperative planners use this for
// collision avoidance.
func (m *Mission) BelievedOccupied(i int, v grid.NodeID) bool {
	for j := range m.know[i].LastKnown {
		if j != i && m.know[i].LastKnown[j] == v {
			return true
		}
	}
	return false
}

// senseFrom marks everything within asset i's radius as sensed, both in the
// asset's own knowledge and in the team's ground truth, records whether
// that ball holds the destination, and returns the ground-truth newly
// sensed count (for the reward).
func (m *Mission) senseFrom(i int) int {
	newly, dest := 0, m.sc.Dest
	seen := false
	g, v, r := m.sc.Grid, m.cur[i], m.sc.Team[i].SensingRadius
	if ball, ok := g.Ball(v, r); ok {
		for _, u := range ball {
			newly += m.sense(i, u)
			seen = seen || u == dest
		}
	} else {
		g.ForEachWithinRadius(v, r, func(u grid.NodeID) {
			newly += m.sense(i, u)
			seen = seen || u == dest
		})
	}
	m.know[i].sensesDest = seen
	return newly
}

// sense marks node u sensed by asset i, and returns 1 if the team had not
// sensed it before, else 0.
func (m *Mission) sense(i int, u grid.NodeID) int {
	k := &m.know[i]
	if !k.Sensed[u] {
		k.Sensed[u] = true
		k.SensedCount++
		m.fresh[i] = append(m.fresh[i], u)
	}
	if m.teamSensed[u] {
		return 0
	}
	m.teamSensed[u] = true
	m.teamSensedCount++
	return 1
}

// checkDiscovery handles destination discovery and mission completion. The
// first time any asset senses the destination, the discovery is broadcast
// (every asset learns the destination and everyone's location — Section
// 2.2's asynchronous communication on discovery); the mission then ends
// immediately, or — under Scenario.Rendezvous — once every asset is within
// its sensing radius of the destination. Both tests read the flags the
// last sensing pass left: a ball holds exactly the nodes within the
// radius, under the metric bits Grid.Distance has.
func (m *Mission) checkDiscovery() {
	if m.foundBy < 0 {
		for i := range m.know {
			if m.know[i].sensesDest {
				m.foundBy = i
				m.discoveryStep = m.step
				for j := range m.know {
					m.know[j].DestKnown = true
					m.know[j].Dest = m.sc.Dest
				}
				m.communicate()
				break
			}
		}
		if m.foundBy < 0 {
			return
		}
		if !m.sc.Rendezvous {
			m.done = true
			return
		}
	}
	// Rendezvous phase: everyone gathers at the destination.
	for i := range m.know {
		if !m.know[i].sensesDest {
			return
		}
	}
	m.done = true
}

// communicate exchanges true locations and unions sensed sets across the
// whole team: the discovery broadcast, and the periodic exchange when the
// scenario has unlimited radio range.
func (m *Mission) communicate() {
	if m.wholeTeam == nil {
		all := make([]int, len(m.know))
		for i := range all {
			all[i] = i
		}
		m.wholeTeam = [][]int{all}
	}
	m.communicateGroups(m.wholeTeam)
}

// communicateRanged runs the periodic exchange under a finite radio range:
// assets within CommRange form links, links form transitive groups (a chain
// of assets relays), and each group shares locations and sensed sets
// internally. Groups run in order of their lowest member, so a mission
// exchanges in the same order on every run.
func (m *Mission) communicateRanged() {
	n := len(m.know)
	if m.radioGroups == nil {
		m.radioGroups = make([][]int, n)
		for g := range m.radioGroups {
			m.radioGroups[g] = make([]int, 0, n)
		}
	}
	uf := &m.radio
	uf.reset(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if m.sc.Grid.Distance(m.cur[i], m.cur[j]) <= m.sc.CommRange {
				uf.union(i, j)
			}
		}
	}
	// A group's root is its lowest member: scanning roots in order lists
	// the groups by lowest member, each with its members ascending.
	groups := m.radioGroups[:0]
	for r := 0; r < n; r++ {
		if uf.find(r) != r {
			continue
		}
		g := m.radioGroups[len(groups)][:0]
		for i := r; i < n; i++ {
			if uf.find(i) == r {
				g = append(g, i)
			}
		}
		groups = append(groups, g)
	}
	m.communicateGroups(groups)
}

// communicateGroups shares state within each group of assets.
func (m *Mission) communicateGroups(groups [][]int) {
	for _, group := range groups {
		if len(group) < 2 {
			continue
		}
		m.exchanges++
		// Locations.
		for _, i := range group {
			for _, j := range group {
				m.know[i].LastKnown[j] = m.cur[j]
				m.know[i].LastKnownStep[j] = m.step
			}
		}
		// Sensed sets: union within the group. A radio group that leaves
		// someone out may hold sets from different exchanges, so it scans
		// them whole; what it spreads came from its members' sets, and so
		// already sits in fresh lists.
		if len(group) == len(m.know) {
			m.shareWholeTeam()
			continue
		}
		if m.union == nil {
			m.union = make([]bool, m.sc.Grid.NumNodes())
		} else {
			clear(m.union)
		}
		union := m.union
		count := 0
		for _, i := range group {
			for v, s := range m.know[i].Sensed {
				if s && !union[v] {
					union[v] = true
					count++
				}
			}
		}
		for _, i := range group {
			copy(m.know[i].Sensed, union)
			m.know[i].SensedCount = count
		}
	}
}

// shareWholeTeam unions the sensed sets of the whole team. Each asset
// holds the last whole-team union, and every node anyone holds beyond it
// sits in some fresh list, so adding the other assets' lists to an
// asset's set gives it the team's union. Afterwards every asset holds that
// union, and the lists start over.
func (m *Mission) shareWholeTeam() {
	for i := range m.know {
		k := &m.know[i]
		for j, fresh := range m.fresh {
			if j == i {
				continue
			}
			for _, v := range fresh {
				if !k.Sensed[v] {
					k.Sensed[v] = true
					k.SensedCount++
				}
			}
		}
	}
	for i := range m.fresh {
		m.fresh[i] = m.fresh[i][:0]
	}
}

// commUF is a small union-find for radio groups. union keeps the lower
// root, so a set's root is its lowest member.
type commUF struct{ parent []int }

// reset makes each of n assets its own set.
func (uf *commUF) reset(n int) {
	if len(uf.parent) != n {
		uf.parent = make([]int, n)
	}
	for i := range uf.parent {
		uf.parent[i] = i
	}
}

func (uf *commUF) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf *commUF) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra > rb {
		ra, rb = rb, ra
	}
	if ra != rb {
		uf.parent[rb] = ra
	}
}

// ExecuteStep advances one epoch with the given per-asset actions and
// returns the realized joint reward. It is exported so that learners can
// drive their own training loops; Run wraps it for evaluation.
func (m *Mission) ExecuteStep(acts []Action) (rewardfn.Vector, error) {
	if m.done {
		return rewardfn.Vector{}, fmt.Errorf("sim: mission already done")
	}
	if len(acts) != len(m.sc.Team) {
		return rewardfn.Vector{}, fmt.Errorf("sim: %d actions for %d assets", len(acts), len(m.sc.Team))
	}
	// Check the whole joint action before recording any of it, so a
	// rejected step leaves the mission, LastMove included, untouched.
	for i, a := range acts {
		from := m.cur[i]
		if !a.IsWait() {
			if a.Neighbor >= m.sc.Grid.OutDegree(from) {
				return rewardfn.Vector{}, fmt.Errorf("sim: asset %d action %v exceeds out-degree %d", i, a, m.sc.Grid.OutDegree(from))
			}
			if a.Speed < 1 || a.Speed > m.sc.Team[i].MaxSpeed {
				return rewardfn.Vector{}, fmt.Errorf("sim: asset %d speed %d outside 1..%d", i, a.Speed, m.sc.Team[i].MaxSpeed)
			}
		}
		if to, _ := m.Apply(from, a); m.obstacles[to] {
			return rewardfn.Vector{}, fmt.Errorf("sim: asset %d action %v enters obstacle node %d", i, a, to)
		}
	}
	moves := m.moves
	for i, a := range acts {
		from := m.cur[i]
		to, w := m.Apply(from, a)
		moves[i] = rewardfn.Move{From: from, To: to, Weight: w, Speed: float64(a.Speed), Wait: a.IsWait()}
		if m.sc.Weather != nil && !a.IsWait() {
			moves[i].SpeedFactor = weather.ClampFactor(
				m.sc.Weather.SpeedFactor(m.sc.Grid, from, to, m.time[i]))
		}
	}

	// Apply moves simultaneously.
	for i := range moves {
		m.cur[i] = moves[i].To
		m.time[i] += moves[i].Time()
		m.fuel[i] += moves[i].Fuel()
		m.know[i].LastKnown[i] = m.cur[i]
		m.know[i].LastKnownStep[i] = m.step + 1
	}

	// Sense from the new positions; ground-truth newly sensed feeds the
	// exploration reward.
	for i := range moves {
		moves[i].NewlySensed = m.senseFrom(i)
	}

	// Collision detection (Definition 3).
	collided := false
	for i := 0; i < len(m.cur); i++ {
		for j := i + 1; j < len(m.cur); j++ {
			if m.cur[i] == m.cur[j] {
				m.collisions++
				collided = true
			}
		}
	}

	m.step++
	r := rewardfn.Joint(moves, m.sc.Grid.MaxOutDegree(), len(m.sc.Team))

	if collided && m.opts.Collision == AbortOnCollision {
		m.done = true
		m.aborted = true
		return r, nil
	}

	// Periodic communication every k epochs, honoring the radio range.
	if k := m.sc.CommEvery; k > 0 && m.step%k == 0 {
		if m.sc.CommRange > 0 {
			m.communicateRanged()
		} else {
			m.communicate()
		}
	}
	m.checkDiscovery()
	if !m.done && m.step >= m.sc.maxSteps() {
		m.done = true
	}
	return r, nil
}

// Result summarizes the mission so far (final if Done).
func (m *Mission) Result() Result {
	r := Result{
		Found:          m.foundBy >= 0,
		FoundBy:        m.foundBy,
		Steps:          m.step,
		DiscoverySteps: m.discoveryStep,
		Collisions:     m.collisions,
		Aborted:        m.aborted,
	}
	for i := range m.time {
		if m.time[i] > r.TTotal {
			r.TTotal = m.time[i]
		}
		r.FTotal += m.fuel[i]
	}
	return r
}

// Run executes a full mission under the planner and returns its result.
// If the planner is a Learner, it observes every transition.
func Run(sc Scenario, p Planner, opts RunOptions) (Result, error) {
	return RunContext(context.Background(), sc, p, opts)
}

// RunContext is Run with cooperative cancellation: the step loop checks ctx
// between epochs, so a long mission (a random walk holds |V|×150 epochs)
// aborts promptly when the context is cancelled or its deadline expires. The
// returned error wraps ctx.Err(), so callers can errors.Is it against
// context.Canceled / context.DeadlineExceeded; the partial Result up to the
// aborted epoch is returned alongside it.
func RunContext(ctx context.Context, sc Scenario, p Planner, opts RunOptions) (Result, error) {
	m, err := NewMission(sc, opts)
	if err != nil {
		return Result{}, err
	}

	// Attach the mission span: child of the experiment/request span when one
	// is supplied, else a fresh trace. It records the mission's totals once,
	// at the end, so its size does not grow with the mission.
	var sp *trace.Span
	if opts.TraceParent != nil {
		sp = opts.TraceParent.Child("mission")
	} else if opts.Tracer.Enabled() {
		sp = opts.Tracer.Start("mission")
	}
	var decide time.Duration // Decide time of a traced mission
	if sp.Enabled() {
		defer func() {
			res := m.Result()
			sp.SetAttrs(
				trace.String("planner", p.Name()),
				trace.Int("nodes", int64(sc.Grid.NumNodes())),
				trace.Int("assets", int64(len(sc.Team))),
				trace.Int("steps", int64(res.Steps)),
				trace.Bool("found", res.Found),
				trace.Int("found_by", int64(res.FoundBy)),
				trace.Int("discovery_step", int64(res.DiscoverySteps)),
				trace.Int("collisions", int64(res.Collisions)),
				trace.Float("t_total", res.TTotal),
				trace.Float("f_total", res.FTotal),
				trace.Int("exchanges", int64(m.exchanges)),
				trace.Float("decide_us", float64(decide)/float64(time.Microsecond)))
			sp.End()
		}()
	}

	learner, _ := p.(Learner)
	acts := make([]Action, len(sc.Team))
	prev := make([]grid.NodeID, len(sc.Team))
	for !m.Done() {
		if err := ctx.Err(); err != nil {
			return m.Result(), fmt.Errorf("sim: mission aborted at epoch %d: %w", m.Step(), err)
		}
		// Budget exhaustion is cooperative: planners charge (and keep
		// planning) mid-epoch, the loop aborts at the next epoch boundary.
		if err := opts.Budget.Err(); err != nil {
			return m.Result(), fmt.Errorf("sim: mission aborted at epoch %d: %w", m.Step(), err)
		}
		copy(prev, m.cur)
		var decideStart time.Time
		if sp.Enabled() {
			decideStart = time.Now()
		}
		for i := range acts {
			acts[i] = p.Decide(m, i)
		}
		if sp.Enabled() {
			decide += time.Since(decideStart)
		}
		r, err := m.ExecuteStep(acts)
		if err != nil {
			return Result{}, err
		}
		if learner != nil {
			learner.Observe(m, prev, acts, r)
		}
		if opts.OnStep != nil {
			opts.OnStep(m, acts)
		}
	}
	return m.Result(), nil
}

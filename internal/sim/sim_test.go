package sim

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"github.com/routeplanning/mamorl/internal/geo"
	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/rewardfn"
	"github.com/routeplanning/mamorl/internal/vessel"
)

// lineGrid builds 0 - 1 - ... - (n-1) spaced 1 apart.
func lineGrid(t *testing.T, n int) *grid.Grid {
	t.Helper()
	b := grid.NewBuilder("line", geo.Planar)
	for i := 0; i < n; i++ {
		b.AddNode(geo.Point{X: float64(i), Y: 0})
	}
	for i := 0; i < n-1; i++ {
		b.AddEdge(grid.NodeID(i), grid.NodeID(i+1))
	}
	return b.MustBuild()
}

// scripted replays fixed per-asset action sequences, waiting when a script
// runs out.
type scripted struct {
	seqs [][]Action
	pos  []int
}

func (s *scripted) Name() string { return "scripted" }
func (s *scripted) Decide(m *Mission, i int) Action {
	if s.pos == nil {
		s.pos = make([]int, len(s.seqs))
	}
	if s.pos[i] >= len(s.seqs[i]) {
		return Wait
	}
	a := s.seqs[i][s.pos[i]]
	s.pos[i]++
	return a
}

// toward returns the action moving asset along the edge to the neighbor
// with the given target, at speed 1, or Wait if absent.
func toward(g *grid.Grid, from, to grid.NodeID) Action {
	for n, e := range g.Neighbors(from) {
		if e.To == to {
			return Action{Neighbor: n, Speed: 1}
		}
	}
	return Wait
}

// TestActionEncodingRoundTrip: at out-degrees 1 to 9 and max speeds 1 to
// 5, EncodeActionAt maps the k-th action LegalActions enumerates to k, so
// the enumeration decodes every index of [0, ActionCount).
func TestActionEncodingRoundTrip(t *testing.T) {
	// Node d-1 of the star has out-degree d.
	b := grid.NewBuilder("star", geo.Planar)
	for i := range 10 {
		b.AddNode(geo.Point{X: float64(i), Y: float64(i * i % 7)})
	}
	for d := 1; d <= 9; d++ {
		for k := range d {
			b.AddArc(grid.NodeID(d-1), grid.NodeID((d+k)%10))
		}
	}
	b.AddArc(9, 0)
	g := b.MustBuild()
	for deg := 1; deg <= 9; deg++ {
		for sp := 1; sp <= 5; sp++ {
			acts := LegalActions(g, grid.NodeID(deg-1), sp)
			if len(acts) != ActionCount(deg, sp) {
				t.Fatalf("degree %d, speed %d: %d actions, want %d", deg, sp, len(acts), ActionCount(deg, sp))
			}
			for k, a := range acts {
				if EncodeActionAt(a, deg, sp) != k {
					t.Fatalf("degree %d, speed %d: action %d (%v) encodes to %d", deg, sp, k, a, EncodeActionAt(a, deg, sp))
				}
			}
		}
	}
}

func TestActionBasics(t *testing.T) {
	if !Wait.IsWait() || Wait.String() != "wait" {
		t.Errorf("Wait = %+v %q", Wait, Wait.String())
	}
	a := Action{Neighbor: 2, Speed: 3}
	if a.IsWait() || a.String() != "n2@s3" {
		t.Errorf("a = %q", a.String())
	}
	if ActionCount(4, 3) != 13 {
		t.Errorf("ActionCount(4,3) = %d", ActionCount(4, 3))
	}
	if EncodeActionAt(a, 4, 3) != 8 || EncodeActionAt(Wait, 4, 3) != 12 {
		t.Errorf("EncodeActionAt = %d, %d", EncodeActionAt(a, 4, 3), EncodeActionAt(Wait, 4, 3))
	}
}

func TestLegalActions(t *testing.T) {
	g := lineGrid(t, 3)
	acts := LegalActions(g, 1, 2) // degree 2, speeds {1,2} -> 5 actions
	if len(acts) != 5 {
		t.Fatalf("LegalActions = %d, want 5", len(acts))
	}
	if !acts[len(acts)-1].IsWait() {
		t.Error("last action must be wait")
	}
	for idx, a := range acts {
		if EncodeActionAt(a, 2, 2) != idx {
			t.Errorf("action %d/%v encoding mismatch", idx, a)
		}
	}
}

// toyScenario: 10-node line, two assets at the ends, destination at node 6,
// sensing radius 1.5 (senses +-1 node).
func toyScenario(t *testing.T) Scenario {
	t.Helper()
	g := lineGrid(t, 10)
	return Scenario{
		Grid:      g,
		Team:      vessel.NewTeam([]grid.NodeID{0, 9}, 1.5, 2),
		Dest:      6,
		CommEvery: 3,
	}
}

func TestMissionDiscovery(t *testing.T) {
	sc := toyScenario(t)
	// Asset 1 walks left from 9: 9->8->7. At 7 it senses node 6 => found.
	g := sc.Grid
	p := &scripted{seqs: [][]Action{
		nil, // asset 0 waits
		{toward(g, 9, 8), toward(g, 8, 7)},
	}}
	res, err := Run(sc, p, RunOptions{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Found || res.FoundBy != 1 {
		t.Fatalf("result = %+v, want found by asset 1", res)
	}
	if res.Steps != 2 {
		t.Errorf("steps = %d, want 2", res.Steps)
	}
	// T_total is the max over assets: asset1 moved 2 edges at speed 1 (2.0),
	// asset0 waited twice (2.0). Makespan = 2.
	if math.Abs(res.TTotal-2) > 1e-9 {
		t.Errorf("TTotal = %v, want 2", res.TTotal)
	}
	// Fuel: only asset1 burned, 2 unit edges at speed 1.
	wantFuel := 2 * vessel.MoveFuel(1, 1)
	if math.Abs(res.FTotal-wantFuel) > 1e-9 {
		t.Errorf("FTotal = %v, want %v", res.FTotal, wantFuel)
	}
	if res.Collisions != 0 {
		t.Errorf("collisions = %d", res.Collisions)
	}
}

func TestDiscoveryBroadcast(t *testing.T) {
	sc := toyScenario(t)
	g := sc.Grid
	p := &scripted{seqs: [][]Action{
		nil,
		{toward(g, 9, 8), toward(g, 8, 7)},
	}}
	m, err := NewMission(sc, RunOptions{})
	if err != nil {
		t.Fatalf("NewMission: %v", err)
	}
	for !m.Done() {
		acts := []Action{p.Decide(m, 0), p.Decide(m, 1)}
		if _, err := m.ExecuteStep(acts); err != nil {
			t.Fatalf("ExecuteStep: %v", err)
		}
	}
	// After discovery, everyone must know the destination and all locations.
	for i := 0; i < m.NumAssets(); i++ {
		k := m.Knowledge(i)
		if !k.DestKnown || k.Dest != sc.Dest {
			t.Errorf("asset %d: destination not broadcast: %+v", i, k.DestKnown)
		}
		for j := 0; j < m.NumAssets(); j++ {
			if k.LastKnown[j] != m.Cur(j) {
				t.Errorf("asset %d: stale location of %d after broadcast", i, j)
			}
		}
	}
}

func TestPeriodicCommunication(t *testing.T) {
	sc := toyScenario(t)
	sc.Dest = 9 // far away so the mission survives several epochs
	sc.Team = vessel.NewTeam([]grid.NodeID{0, 5}, 0.5, 1)
	sc.CommEvery = 2
	g := sc.Grid
	p := &scripted{seqs: [][]Action{
		{toward(g, 0, 1), toward(g, 1, 2), toward(g, 2, 3)},
		nil, // asset 1 waits in place at 5
	}}
	m, err := NewMission(sc, RunOptions{})
	if err != nil {
		t.Fatalf("NewMission: %v", err)
	}
	// Step 1: no communication yet; asset1 still believes asset0 at source.
	step := func() {
		acts := []Action{p.Decide(m, 0), p.Decide(m, 1)}
		if _, err := m.ExecuteStep(acts); err != nil {
			t.Fatalf("ExecuteStep: %v", err)
		}
	}
	step()
	if m.Knowledge(1).LastKnown[0] != 0 {
		t.Errorf("asset1 should still believe asset0 at 0, got %d", m.Knowledge(1).LastKnown[0])
	}
	// Step 2 triggers communication (step%2 == 0): locations refresh.
	step()
	if m.Knowledge(1).LastKnown[0] != 2 {
		t.Errorf("after comm, asset1 should know asset0 at 2, got %d", m.Knowledge(1).LastKnown[0])
	}
	// Sensed sets were unioned too.
	if m.Knowledge(1).SensedCount != m.TeamSensedCount() {
		t.Errorf("after comm, asset1 sensed %d, team %d", m.Knowledge(1).SensedCount, m.TeamSensedCount())
	}
}

func TestCollisionRecordAndAbort(t *testing.T) {
	g := lineGrid(t, 5)
	sc := Scenario{
		Grid: g,
		Team: vessel.NewTeam([]grid.NodeID{1, 3}, 0.5, 1),
		Dest: 4,
	}
	collide := func() *scripted {
		return &scripted{seqs: [][]Action{
			{toward(g, 1, 2)},
			{toward(g, 3, 2)},
		}}
	}
	res, err := Run(sc, collide(), RunOptions{Collision: RecordCollisions})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Collisions == 0 {
		t.Error("collision not recorded")
	}
	if res.Aborted {
		t.Error("RecordCollisions must not abort")
	}

	res, err = Run(sc, collide(), RunOptions{Collision: AbortOnCollision})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Aborted || res.Found {
		t.Errorf("AbortOnCollision: %+v", res)
	}
}

func TestMaxStepsBound(t *testing.T) {
	sc := toyScenario(t)
	sc.MaxSteps = 7
	res, err := Run(sc, &scripted{seqs: [][]Action{nil, nil}}, RunOptions{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Found {
		t.Error("waiting team cannot find a far destination")
	}
	if res.Steps != 7 {
		t.Errorf("steps = %d, want MaxSteps 7", res.Steps)
	}
}

func TestImmediateDiscovery(t *testing.T) {
	sc := toyScenario(t)
	sc.Dest = 1 // within asset0's initial sensing radius (1.5)
	res, err := Run(sc, &scripted{seqs: [][]Action{nil, nil}}, RunOptions{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Found || res.Steps != 0 || res.FoundBy != 0 {
		t.Errorf("immediate discovery failed: %+v", res)
	}
	if res.TTotal != 0 || res.FTotal != 0 {
		t.Errorf("zero-step mission should cost nothing: %+v", res)
	}
}

func TestScenarioValidate(t *testing.T) {
	good := toyScenario(t)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	bad := good
	bad.Grid = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil grid accepted")
	}
	bad = good
	bad.Dest = 99
	if err := bad.Validate(); err == nil {
		t.Error("out-of-grid destination accepted")
	}
	bad = good
	bad.Team = vessel.NewTeam([]grid.NodeID{0, 99}, 1, 1)
	if err := bad.Validate(); err == nil {
		t.Error("out-of-grid source accepted")
	}
	bad = good
	bad.Team = vessel.Team{}
	if err := bad.Validate(); err == nil {
		t.Error("empty team accepted")
	}
}

func TestUnreachableDestinationRejected(t *testing.T) {
	// One-way arcs: 1 -> 0 exists but 0 -> ... -> 5 has a gap.
	b := grid.NewBuilder("trap", geo.Planar)
	for i := 0; i < 4; i++ {
		b.AddNode(geo.Point{X: float64(i)})
	}
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	b.AddArc(1, 2) // hmm, this makes 3 reachable from 0; use reverse arc
	g := b.MustBuild()
	_ = g
	// Rebuild with the gap in the right direction.
	b2 := grid.NewBuilder("trap2", geo.Planar)
	for i := 0; i < 4; i++ {
		b2.AddNode(geo.Point{X: float64(i)})
	}
	b2.AddEdge(0, 1)
	b2.AddEdge(2, 3)
	b2.AddArc(2, 1) // 2 -> 1 only: nothing from {0,1} reaches {2,3}
	g2 := b2.MustBuild()
	sc := Scenario{Grid: g2, Team: vessel.NewTeam([]grid.NodeID{0}, 0.5, 1), Dest: 3}
	if err := sc.Validate(); err == nil {
		t.Error("unreachable destination accepted")
	}
}

func TestExecuteStepErrors(t *testing.T) {
	sc := toyScenario(t)
	m, err := NewMission(sc, RunOptions{})
	if err != nil {
		t.Fatalf("NewMission: %v", err)
	}
	if _, err := m.ExecuteStep([]Action{Wait}); err == nil {
		t.Error("wrong action count accepted")
	}
	if _, err := m.ExecuteStep([]Action{{Neighbor: 9, Speed: 1}, Wait}); err == nil {
		t.Error("out-of-range neighbor accepted")
	}
	if _, err := m.ExecuteStep([]Action{{Neighbor: 0, Speed: 99}, Wait}); err == nil {
		t.Error("over-speed accepted")
	}
	// Finish the mission, then stepping must fail.
	m2, _ := NewMission(sc, RunOptions{})
	for !m2.Done() {
		if _, err := m2.ExecuteStep([]Action{{Neighbor: 0, Speed: 1}, {Neighbor: 0, Speed: 1}}); err != nil {
			t.Fatalf("ExecuteStep: %v", err)
		}
	}
	if _, err := m2.ExecuteStep([]Action{Wait, Wait}); err == nil {
		t.Error("stepping a done mission accepted")
	}
}

func TestPredictNewlySensedAndBelievedOccupied(t *testing.T) {
	sc := toyScenario(t)
	m, err := NewMission(sc, RunOptions{})
	if err != nil {
		t.Fatalf("NewMission: %v", err)
	}
	// Asset 0 at node 0 sensed {0, 1}; standing at node 2 it would sense
	// {1, 2, 3}, of which {2, 3} are new.
	if got := m.PredictNewlySensed(0, 2); got != 2 {
		t.Errorf("PredictNewlySensed = %d, want 2", got)
	}
	if !m.BelievedOccupied(0, 9) {
		t.Error("asset 0 must believe asset 1 at its source")
	}
	if m.BelievedOccupied(0, 5) {
		t.Error("node 5 should not be believed occupied")
	}
	if m.BelievedOccupied(1, 9) {
		t.Error("an asset does not block itself")
	}
}

func TestRewardFromExecuteStep(t *testing.T) {
	sc := toyScenario(t)
	m, err := NewMission(sc, RunOptions{})
	if err != nil {
		t.Fatalf("NewMission: %v", err)
	}
	r, err := m.ExecuteStep([]Action{{Neighbor: 0, Speed: 1}, Wait})
	if err != nil {
		t.Fatalf("ExecuteStep: %v", err)
	}
	// Asset 0 moves 0->1 sensing node 2 newly; D_max=2, |N|=2 => 1/(2*2).
	if math.Abs(r.Explore-0.25) > 1e-9 {
		t.Errorf("explore = %v, want 0.25", r.Explore)
	}
	if r.Time <= 0 || r.Fuel <= 0 {
		t.Errorf("reward components must be positive: %+v", r)
	}
}

func TestLearnerObserved(t *testing.T) {
	sc := toyScenario(t)
	g := sc.Grid
	l := &recordingLearner{scripted: scripted{seqs: [][]Action{
		nil,
		{toward(g, 9, 8), toward(g, 8, 7)},
	}}}
	if _, err := Run(sc, l, RunOptions{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if l.observed != 2 {
		t.Errorf("learner observed %d transitions, want 2", l.observed)
	}
	if l.badPrev {
		t.Error("prev locations did not match pre-step state")
	}
}

type recordingLearner struct {
	scripted
	observed int
	badPrev  bool
	last     []grid.NodeID
}

func (r *recordingLearner) Observe(m *Mission, prev []grid.NodeID, acts []Action, rew rewardfn.Vector) {
	r.observed++
	if r.last != nil {
		for i := range prev {
			if prev[i] != r.last[i] {
				r.badPrev = true
			}
		}
	}
	r.last = m.CurAll()
}

func TestOnStepCallback(t *testing.T) {
	sc := toyScenario(t)
	g := sc.Grid
	p := &scripted{seqs: [][]Action{
		nil,
		{toward(g, 9, 8), toward(g, 8, 7)},
	}}
	calls := 0
	_, err := Run(sc, p, RunOptions{OnStep: func(m *Mission, acts []Action) { calls++ }})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if calls != 2 {
		t.Errorf("OnStep called %d times, want 2", calls)
	}
}

// slowField halves every crossing's effective speed.
type slowField struct{}

func (slowField) SpeedFactor(*grid.Grid, grid.NodeID, grid.NodeID, float64) float64 { return 0.5 }

// TestLastMoveMatchesCharges checks that, under weather, each epoch's
// LastMove prices exactly what the mission charged, and that a rejected
// step leaves it untouched.
func TestLastMoveMatchesCharges(t *testing.T) {
	sc := toyScenario(t)
	sc.Weather = slowField{}
	g := sc.Grid
	p := &scripted{seqs: [][]Action{
		{toward(g, 0, 1)},
		{toward(g, 9, 8), toward(g, 8, 7)},
	}}
	var sumT, sumF [2]float64
	var last *Mission
	_, err := Run(sc, p, RunOptions{OnStep: func(m *Mission, acts []Action) {
		last = m
		for i := range acts {
			mv := m.LastMove(i)
			if mv.Wait != acts[i].IsWait() || mv.To != m.Cur(i) {
				t.Errorf("step %d asset %d: LastMove %v for action %v at %d", m.Step(), i, mv, acts[i], m.Cur(i))
			}
			sumT[i] += mv.Time()
			sumF[i] += mv.Fuel()
		}
	}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := range sumT {
		if sumT[i] != last.TimeSpent(i) || sumF[i] != last.FuelSpent(i) {
			t.Errorf("asset %d: moves sum to %v/%v, mission charged %v/%v", i, sumT[i], sumF[i], last.TimeSpent(i), last.FuelSpent(i))
		}
	}
	if want := vessel.MoveTime(1, 0.5); sumT[1] != 2*want {
		t.Errorf("asset 1 stormy time %v, want %v", sumT[1], 2*want)
	}

	m, err := NewMission(toyScenario(t), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ExecuteStep([]Action{toward(g, 0, 1), Wait}); err != nil {
		t.Fatal(err)
	}
	before := m.LastMove(0)
	if _, err := m.ExecuteStep([]Action{Wait, {Neighbor: 0, Speed: 9}}); err == nil {
		t.Fatal("over-speed step accepted")
	}
	if m.LastMove(0) != before {
		t.Errorf("rejected step changed LastMove(0): %v, want %v", m.LastMove(0), before)
	}
}

func TestResultString(t *testing.T) {
	r := Result{Found: true, FoundBy: 1, Steps: 3, TTotal: 2.5, FTotal: 10}
	if s := r.String(); s == "" {
		t.Error("empty Result string")
	}
	r2 := Result{Aborted: true}
	if s := r2.String(); s == "" {
		t.Error("empty aborted string")
	}
}

func TestWeatherScalesMoves(t *testing.T) {
	// A uniform half-speed field doubles move times and fuel (engine at the
	// commanded rate for twice as long), leaves waits alone.
	sc := toyScenario(t)
	calm := sc
	stormy := sc
	stormy.Weather = halfSpeed{}

	runOne := func(s Scenario) Result {
		g := s.Grid
		p := &scripted{seqs: [][]Action{
			nil,
			{toward(g, 9, 8), toward(g, 8, 7)},
		}}
		res, err := Run(s, p, RunOptions{})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	rc := runOne(calm)
	rs := runOne(stormy)
	if !rc.Found || !rs.Found {
		t.Fatalf("missions failed: %+v %+v", rc, rs)
	}
	// Asset 1 moved 2 unit edges; in weather they cost double time & fuel.
	// Makespan: calm has max(waits=2, moves=2) = 2; stormy max(2, 4) = 4.
	if math.Abs(rs.TTotal-2*rc.TTotal) > 1e-9 {
		t.Errorf("stormy T = %v, want double calm %v", rs.TTotal, rc.TTotal)
	}
	if math.Abs(rs.FTotal-2*rc.FTotal) > 1e-9 {
		t.Errorf("stormy F = %v, want double calm %v", rs.FTotal, rc.FTotal)
	}
}

// halfSpeed is a uniform adverse field for tests.
type halfSpeed struct{}

func (halfSpeed) SpeedFactor(*grid.Grid, grid.NodeID, grid.NodeID, float64) float64 { return 0.5 }

func TestRunContextCancellation(t *testing.T) {
	sc := toyScenario(t)

	// An already-cancelled context aborts before the first epoch.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, sc, &scripted{seqs: [][]Action{nil, nil}}, RunOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Found || res.Steps != 0 {
		t.Errorf("partial result = %+v, want untouched mission", res)
	}

	// Cancelling mid-mission aborts at the next epoch boundary with the
	// partial result so far.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	res, err = RunContext(ctx2, sc, &scripted{seqs: [][]Action{nil, nil}}, RunOptions{
		OnStep: func(m *Mission, _ []Action) {
			if m.Step() == 2 {
				cancel2()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-mission err = %v, want context.Canceled", err)
	}
	if res.Steps != 2 {
		t.Errorf("aborted at step %d, want 2", res.Steps)
	}

	// An expired deadline surfaces as DeadlineExceeded.
	dctx, dcancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer dcancel()
	time.Sleep(time.Millisecond)
	if _, err = RunContext(dctx, sc, &scripted{seqs: [][]Action{nil, nil}}, RunOptions{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline err = %v, want context.DeadlineExceeded", err)
	}

	// The Background wrapper still runs missions to completion.
	g := sc.Grid
	p := &scripted{seqs: [][]Action{nil, {toward(g, 9, 8), toward(g, 8, 7)}}}
	res, err = Run(sc, p, RunOptions{})
	if err != nil || !res.Found {
		t.Fatalf("Run after ctx plumbing: res=%+v err=%v", res, err)
	}
}

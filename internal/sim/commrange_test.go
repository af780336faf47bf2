package sim

import (
	"slices"
	"testing"

	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/vessel"
)

// rangedScenario: three assets on a long line at 0, 3 and 20; radio range 5
// links 0-1 but not 2.
func rangedScenario(t *testing.T) Scenario {
	t.Helper()
	g := grid.Path("line", 30, 1)
	return Scenario{
		Grid:      g,
		Team:      vessel.NewTeam([]grid.NodeID{0, 3, 20}, 0.5, 1),
		Dest:      29,
		CommEvery: 1,
		CommRange: 5,
	}
}

func TestRangedCommunicationOnlyReachesNeighbors(t *testing.T) {
	sc := rangedScenario(t)
	m, err := NewMission(sc, RunOptions{})
	if err != nil {
		t.Fatalf("NewMission: %v", err)
	}
	// Move asset 0 right; asset 1 and 2 wait. After the comm epoch, asset 1
	// (within range) learns the move; asset 2 (out of range) does not.
	if _, err := m.ExecuteStep([]Action{toward(sc.Grid, 0, 1), Wait, Wait}); err != nil {
		t.Fatalf("ExecuteStep: %v", err)
	}
	if got := m.Knowledge(1).LastKnown[0]; got != 1 {
		t.Errorf("in-range teammate sees %d, want 1", got)
	}
	if got := m.Knowledge(2).LastKnown[0]; got != 0 {
		t.Errorf("out-of-range teammate sees %d, want stale 0", got)
	}
	// Sensed sets: assets 0/1 share; asset 2 keeps its own view.
	if m.Knowledge(0).SensedCount != m.Knowledge(1).SensedCount {
		t.Errorf("group sensed counts differ: %d vs %d",
			m.Knowledge(0).SensedCount, m.Knowledge(1).SensedCount)
	}
	if m.Knowledge(2).SensedCount >= m.Knowledge(0).SensedCount {
		t.Errorf("isolated asset should know less: %d vs %d",
			m.Knowledge(2).SensedCount, m.Knowledge(0).SensedCount)
	}
}

func TestRangedCommunicationRelaysThroughChains(t *testing.T) {
	// Assets at 0, 4, 8 with range 5: 0-4 and 4-8 link, so 0 and 8 relay
	// through the middle even though they are 8 apart.
	g := grid.Path("line", 30, 1)
	sc := Scenario{
		Grid:      g,
		Team:      vessel.NewTeam([]grid.NodeID{0, 4, 8}, 0.5, 1),
		Dest:      29,
		CommEvery: 1,
		CommRange: 5,
	}
	m, err := NewMission(sc, RunOptions{})
	if err != nil {
		t.Fatalf("NewMission: %v", err)
	}
	if _, err := m.ExecuteStep([]Action{toward(g, 0, 1), Wait, Wait}); err != nil {
		t.Fatalf("ExecuteStep: %v", err)
	}
	if got := m.Knowledge(2).LastKnown[0]; got != 1 {
		t.Errorf("chain relay failed: asset 2 sees %d, want 1", got)
	}
}

func TestDiscoveryBroadcastIgnoresRange(t *testing.T) {
	// The asynchronous discovery broadcast reaches everyone regardless of
	// radio range (Section 2.2).
	g := grid.Path("line", 30, 1)
	sc := Scenario{
		Grid:      g,
		Team:      vessel.NewTeam([]grid.NodeID{0, 27}, 1.5, 1),
		Dest:      29,
		CommEvery: 100,
		CommRange: 2,
	}
	m, err := NewMission(sc, RunOptions{})
	if err != nil {
		t.Fatalf("NewMission: %v", err)
	}
	if _, err := m.ExecuteStep([]Action{Wait, toward(g, 27, 28)}); err != nil {
		t.Fatalf("ExecuteStep: %v", err)
	}
	if !m.Done() {
		t.Fatal("discovery expected at node 28 (senses 29)")
	}
	if !m.Knowledge(0).DestKnown {
		t.Error("broadcast did not reach the far asset")
	}
	if m.Knowledge(0).LastKnown[1] != 28 {
		t.Error("broadcast did not refresh locations")
	}
}

func TestZeroRangeMeansUnlimited(t *testing.T) {
	sc := rangedScenario(t)
	sc.CommRange = 0
	m, err := NewMission(sc, RunOptions{})
	if err != nil {
		t.Fatalf("NewMission: %v", err)
	}
	if _, err := m.ExecuteStep([]Action{toward(sc.Grid, 0, 1), Wait, Wait}); err != nil {
		t.Fatalf("ExecuteStep: %v", err)
	}
	if got := m.Knowledge(2).LastKnown[0]; got != 1 {
		t.Errorf("unlimited range: asset 2 sees %d, want 1", got)
	}
}

// TestCommunicateReusesScratch: an exchange shares sensed sets through the
// mission's union scratch. Two radio groups in one exchange must not leak
// into each other through it, and once the first exchange has allocated the
// scratch, a whole-team exchange (the discovery broadcast, the unlimited
// periodic exchange) allocates nothing.
func TestCommunicateReusesScratch(t *testing.T) {
	g := grid.Path("line", 30, 1)
	sc := Scenario{
		Grid:      g,
		Team:      vessel.NewTeam([]grid.NodeID{0, 1, 20, 21}, 0.5, 1),
		Dest:      10,
		CommEvery: 1,
		CommRange: 1.5,
	}
	m, err := NewMission(sc, RunOptions{})
	if err != nil {
		t.Fatalf("NewMission: %v", err)
	}
	m.communicateRanged()
	for i, want := range []int{2, 2, 2, 2} {
		k := m.Knowledge(i)
		if k.SensedCount != want {
			t.Errorf("asset %d senses %d nodes after its group's exchange, want %d", i, k.SensedCount, want)
		}
		far := grid.NodeID(20)
		if i >= 2 {
			far = 0
		}
		if k.Sensed[far] {
			t.Errorf("asset %d learned node %d from the other radio group", i, far)
		}
	}

	m.communicate()
	if avg := testing.AllocsPerRun(100, m.communicate); avg != 0 {
		t.Fatalf("whole-team exchange allocates %.2f objects/call, want 0", avg)
	}
	if k := m.Knowledge(0); k.SensedCount != 4 || !k.Sensed[20] {
		t.Errorf("after the whole-team exchange asset 0 senses %d nodes (node 20: %v), want 4 (true)", k.SensedCount, k.Sensed[20])
	}
}

// TestRangedExchangeOrder: a ranged exchange runs its radio groups in order
// of their lowest member, each with its members ascending, so a mission
// exchanges in the same order on every run, and once its scratch is
// allocated it allocates nothing.
func TestRangedExchangeOrder(t *testing.T) {
	g := grid.Path("line", 30, 1)
	sc := Scenario{
		Grid: g,
		// Assets 0, 2 and 4 relay along 20-21-22; assets 1 and 3 link at 0-1.
		Team:      vessel.NewTeam([]grid.NodeID{20, 0, 21, 1, 22}, 0.5, 1),
		Dest:      10,
		CommEvery: 1,
		CommRange: 1.5,
	}
	want := [][]int{{0, 2, 4}, {1, 3}}
	for run := 0; run < 20; run++ {
		m, err := NewMission(sc, RunOptions{})
		if err != nil {
			t.Fatalf("NewMission: %v", err)
		}
		m.communicateRanged()
		// The groups the exchange ran are the leading radioGroups.
		if got := m.radioGroups[:len(want)]; !slices.EqualFunc(got, want, slices.Equal) || m.exchanges != len(want) {
			t.Fatalf("run %d: exchanged %d groups, leading %v; want %v", run, m.exchanges, got, want)
		}
	}

	m, err := NewMission(sc, RunOptions{})
	if err != nil {
		t.Fatalf("NewMission: %v", err)
	}
	m.communicateRanged()
	if avg := testing.AllocsPerRun(100, m.communicateRanged); avg != 0 {
		t.Fatalf("ranged exchange allocates %.2f objects/call, want 0", avg)
	}
	for _, i := range []int{0, 2, 4} {
		if k := m.Knowledge(i); k.SensedCount != 3 || k.Sensed[0] {
			t.Errorf("asset %d senses %d nodes (node 0: %v) after its group's exchange, want 3 (false)", i, k.SensedCount, k.Sensed[0])
		}
	}
}

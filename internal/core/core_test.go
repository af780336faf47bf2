package core

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/routeplanning/mamorl/internal/geo"
	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/rewardfn"
	"github.com/routeplanning/mamorl/internal/sim"
	"github.com/routeplanning/mamorl/internal/vessel"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

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

// meshGrid builds a w x h 4-connected lattice.
func meshGrid(t *testing.T, w, h int) *grid.Grid {
	t.Helper()
	b := grid.NewBuilder("mesh", geo.Planar)
	id := func(x, y int) grid.NodeID { return grid.NodeID(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			b.AddNode(geo.Point{X: float64(x), Y: float64(y)})
		}
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				b.AddEdge(id(x, y), id(x+1, y))
			}
			if y+1 < h {
				b.AddEdge(id(x, y), id(x, y+1))
			}
		}
	}
	return b.MustBuild()
}

// --- TMM: Equation 5 golden values (Section 3.2.1 worked example) ----------

func TestTMMUpdateGolden(t *testing.T) {
	tab := newStateTable(2)
	s := tab.add(1)
	// |A_2(s0)| = 5 uniform actions; observed action a'_0 at t=1, T=3,
	// beta=0.3 gives factor 0.3^3 = 0.027.
	tab.update(s, 1, 5, 0, math.Pow(0.3, 3))
	d := tab.dist(s, 1, 5)
	if !almost(d[0], 0.2216, 1e-4) {
		t.Errorf("P(s0, a'_0) = %v, want 0.2216", d[0])
	}
	for i := 1; i < 5; i++ {
		if !almost(d[i], 0.1946, 1e-4) {
			t.Errorf("P(s0, a'_%d) = %v, want 0.1946", i, d[i])
		}
	}
}

func TestTMMUpdatePreservesDistribution(t *testing.T) {
	f := func(nRaw, obsRaw uint8, factors []float64) bool {
		n := int(nRaw%8) + 2
		tab := newStateTable(1)
		s := tab.add(42)
		for step, fRaw := range factors {
			factor := math.Abs(math.Mod(fRaw, 1))
			obs := (int(obsRaw) + step) % n
			tab.update(s, 0, n, obs, factor)
		}
		d := tab.dist(s, 0, n)
		sum := 0.0
		for _, v := range d {
			if v < -1e-12 || v > 1+1e-12 {
				return false
			}
			sum += v
		}
		return almost(sum, 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTMMRepeatedObservationConverges(t *testing.T) {
	tab := newStateTable(1)
	s := tab.add(7)
	for i := 0; i < 200; i++ {
		tab.update(s, 0, 4, 2, 0.09)
	}
	d := tab.dist(s, 0, 4)
	if d[2] < 0.99 {
		t.Errorf("repeated observation should concentrate mass: %v", d)
	}
}

// --- LM: Equation 6 golden value (Section 3.2.2 worked example) -------------

func TestLMUpdateGolden(t *testing.T) {
	tab := newStateTable(2)
	s := tab.add(1)
	def := 1.0 / 35 // 1/(|A| * |A'|) = 1/(7*5) = 0.0286
	alpha, gamma, r := 0.9, 0.8, 0.5
	old := s.row(0).get(0, def)[0]
	maxQ := def // all next-state values at default
	tab.set(s, 0, 0, uniform((1-alpha)*old+alpha*(r+gamma*maxQ)))
	if got := s.row(0).get(0, def)[0]; !almost(got, 0.47, 5e-3) {
		t.Errorf("Q after toy update = %v, want ~0.47", got)
	}
}

// --- ASM: Equation 8 golden values (Section 3.2.3 worked example) -----------

// asmFixture builds a planner whose believed state gives asset 0 seven
// actions (degree 2, speeds 3) and asset 1 five actions (degree 2, speeds
// 2), with tables set to the worked example's values.
func asmFixture(t *testing.T) (*Planner, *sim.Mission, uint64, []int) {
	t.Helper()
	g := lineGrid(t, 8)
	team := vessel.Team{
		{ID: 0, SensingRadius: 0.5, MaxSpeed: 3, Source: 1},
		{ID: 1, SensingRadius: 0.5, MaxSpeed: 2, Source: 4},
	}
	sc := sim.Scenario{Grid: g, Team: team, Dest: 7, CommEvery: 3}
	pl, err := NewPlanner(sc, Config{}, rewardfn.Weights{Explore: 1})
	if err != nil {
		t.Fatalf("NewPlanner: %v", err)
	}
	m, err := sim.NewMission(sc, sim.RunOptions{})
	if err != nil {
		t.Fatalf("NewMission: %v", err)
	}
	locs := believedState(nil, m, 0)
	sKey := pl.keyer.key(locs)
	counts := []int{pl.actionCountAt(0, locs[0]), pl.actionCountAt(1, locs[1])}
	if counts[0] != 7 || counts[1] != 5 {
		t.Fatalf("fixture counts = %v, want [7 5]", counts)
	}
	return pl, m, sKey, counts
}

func TestASMGolden(t *testing.T) {
	pl, m, sKey, counts := asmFixture(t)

	// Teammate distribution after the toy observation: a'_0 at 0.2216,
	// others at 0.1946.
	s := pl.tab.add(sKey)
	pl.tab.update(s, 1, counts[1], 0, math.Pow(0.3, 3))
	// Q(s, a_0, a'_0) = 0.47 for the exploration component; all else default.
	def := qDefault(counts)
	e := uniform(def)
	e[0] = 0.47
	pl.tab.set(s, 0, jointActionKey([]int{0, 0}, counts), e)

	dists := [][]float64{nil, pl.tab.dist(s, 1, counts[1])}
	best := []int{0, s.best(1)}
	idx := make([]int, 2)

	// V(a_0): 4 x 0.1946 x 0.0286 + 0.2216 x 0.47 = 0.1264.
	v0 := pl.conditionalValue(s.row(0), 0, 0, counts, dists, best, def, idx)[0]
	if !almost(v0, 0.1264, 2e-3) {
		t.Errorf("V(a_0) = %v, want 0.1264", v0)
	}
	// V(a_1): all Q at default => 0.0286.
	v1 := pl.conditionalValue(s.row(0), 0, 1, counts, dists, best, def, idx)[0]
	if !almost(v1, 0.0286, 2e-3) {
		t.Errorf("V(a_1) = %v, want 0.0286", v1)
	}
	if v0 <= v1 {
		t.Error("ASM must prefer the reinforced action a_0")
	}

	// Decide must therefore pick action index 0 (neighbor 0, speed 1).
	a := pl.Decide(m, 0)
	if sim.EncodeActionAt(a, 2, 3) != 0 {
		t.Errorf("Decide picked %v, want action index 0", a)
	}
}

func TestASMPastThresholdUsesArgmax(t *testing.T) {
	pl, m, sKey, counts := asmFixture(t)
	s := pl.tab.add(sKey)
	pl.tab.update(s, 1, counts[1], 2, 0.3)
	dists := [][]float64{nil, pl.tab.dist(s, 1, counts[1])}
	best := []int{0, s.best(1)}
	def := qDefault(counts)
	// Own action 3 is strong with the teammate at its argmax; own action 0
	// is far stronger with the teammate at action 4, which only the t <= T
	// expectation weighs.
	strong, offArgmax := uniform(def), uniform(def)
	strong[0], offArgmax[0] = 0.9, 50
	pl.tab.set(s, 0, jointActionKey([]int{3, best[1]}, counts), strong)
	pl.tab.set(s, 0, jointActionKey([]int{0, 4}, counts), offArgmax)

	if a := pl.Decide(m, 0); sim.EncodeActionAt(a, 2, 3) != 0 {
		t.Fatalf("t <= T: Decide picked %v, want action index 0", a)
	}
	for m.Step() < pl.cfg.IterT {
		if _, err := m.ExecuteStep([]sim.Action{sim.Wait, sim.Wait}); err != nil {
			t.Fatal(err)
		}
	}
	// t > T (4 > 3): each value is max_j P(a*_j) times the argmax-profile Q.
	if a := pl.Decide(m, 0); sim.EncodeActionAt(a, 2, 3) != 3 {
		t.Fatalf("t > T: Decide picked %v, want action index 3", a)
	}
	// Decide's own-action index holds action 3's entry alone: the entry at
	// teammate action 4 is off the argmax profile and reads the default.
	maxP := dists[1][best[1]]
	for a := 0; a < counts[0]; a++ {
		want := uniform(maxP * def)
		if a == 3 {
			want = perReward{maxP * 0.9, maxP * def, maxP * def}
		}
		if v := pl.scratch.own.value(s.row(0), a, maxP, uniform(maxP*def)); v != want {
			t.Errorf("post-threshold V(a_%d) = %v, want %v", a, v, want)
		}
	}
}

// --- Keys -------------------------------------------------------------------

func TestStateKeyerUnique(t *testing.T) {
	k, err := newStateKeyer(50, 2)
	if err != nil {
		t.Fatalf("newStateKeyer: %v", err)
	}
	seen := make(map[uint64][2]grid.NodeID)
	for a := grid.NodeID(0); a < 50; a++ {
		for b := grid.NodeID(0); b < 50; b++ {
			key := k.key([]grid.NodeID{a, b})
			if prev, dup := seen[key]; dup {
				t.Fatalf("key collision: %v and %v -> %d", prev, [2]grid.NodeID{a, b}, key)
			}
			seen[key] = [2]grid.NodeID{a, b}
		}
	}
}

func TestStateKeyerOverflow(t *testing.T) {
	if _, err := newStateKeyer(100000, 6); err == nil {
		t.Error("10^30 states should overflow the keyer")
	}
}

func TestJointActionKeyUnique(t *testing.T) {
	counts := []int{7, 5, 3}
	seen := make(map[uint64]bool)
	for a := 0; a < 7; a++ {
		for b := 0; b < 5; b++ {
			for c := 0; c < 3; c++ {
				key := jointActionKey([]int{a, b, c}, counts)
				if seen[key] {
					t.Fatalf("collision at %d %d %d", a, b, c)
				}
				seen[key] = true
			}
		}
	}
	if len(seen) != 105 {
		t.Errorf("got %d keys, want 105", len(seen))
	}
}

// --- Lemmata 1 & 2 ----------------------------------------------------------

func TestLemmaSizesMatchTable6Magnitudes(t *testing.T) {
	// Table 6 reports exact MaMoRL needing ~205 GB at |V|=704, |N|=2,
	// D_max=7 and ~17000 TB at |V|=400, |N|=3, D_max=9 (speed 5 default).
	gb := QTableBytes(704, 2, sim.ActionCount(7, 5), 5) / (1 << 30)
	if gb < 100 || gb > 900 {
		t.Errorf("V=704 N=2: %v GB, want hundreds of GB like the paper's 205", gb)
	}
	tb := QTableBytes(400, 3, sim.ActionCount(9, 5), 5) / (1 << 40)
	if tb < 3000 || tb > 60000 {
		t.Errorf("V=400 N=3: %v TB, want thousands of TB like the paper's 17000", tb)
	}
	// Runnable rows: |V|=400 and |V|=200 with N=2 sit in the tens of GB.
	small := QTableBytes(200, 2, sim.ActionCount(9, 5), 5) / (1 << 30)
	if small < 5 || small > 200 {
		t.Errorf("V=200 N=2: %v GB, want tens of GB like the paper's 40", small)
	}
}

func TestLemmaFormulas(t *testing.T) {
	// Direct formula checks: |P| = |V|^N * |A| * sp, |Q| = (|V|*|A|*sp)^N.
	if got := PTableEntries(10, 2, 7, 3); got != 100*7*3 {
		t.Errorf("PTableEntries = %v", got)
	}
	if got := QTableEntries(10, 2, 7, 3); got != math.Pow(10*7*3, 2) {
		t.Errorf("QTableEntries = %v", got)
	}
	if PTableBytes(10, 2, 7, 3) != PTableEntries(10, 2, 7, 3)*8*3 {
		t.Error("PTableBytes accounting wrong")
	}
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{512, "512 B"},
		{2048, "2 KB"},
		{3 << 20, "3 MB"},
		{205 << 30, "205 GB"},
		{17000 * (1 << 40), "17000 TB"}, // the paper's headline number
		{3 << 50, "3072 TB"},            // TB is the ceiling unit, as in Table 6
	}
	for _, c := range cases {
		if got := FormatBytes(c.in); got != c.want {
			t.Errorf("FormatBytes(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

// --- Planner construction and budget refusal --------------------------------

func TestNewPlannerMemoryRefusal(t *testing.T) {
	g := meshGrid(t, 20, 20) // 400 nodes
	team := vessel.NewTeam([]grid.NodeID{0, 399, 20}, 1.5, 5)
	sc := sim.Scenario{Grid: g, Team: team, Dest: 210}
	_, err := NewPlanner(sc, Config{}, rewardfn.DefaultWeights())
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("err = %v, want ErrMemoryBudget", err)
	}
	if !strings.Contains(err.Error(), "TB") && !strings.Contains(err.Error(), "GB") && !strings.Contains(err.Error(), "PB") {
		t.Errorf("budget error should carry a human-readable size: %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Alpha: 2},
		{Gamma: 1.5},
		{Beta: -0.1},
		{Epsilon: 7},
		{IterT: -1},
	}
	for i, c := range bad {
		// withDefaults fills zeros, so set one good field to avoid the
		// default replacing the bad value when it is zero.
		if err := c.withDefaults().Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
	if err := (Config{}).withDefaults().Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

// --- End-to-end: training on a small instance -------------------------------

func TestTrainAndPlanSmallInstance(t *testing.T) {
	g := meshGrid(t, 5, 5) // 25 nodes
	team := vessel.NewTeam([]grid.NodeID{0, 24}, 1.2, 2)
	sc := sim.Scenario{Grid: g, Team: team, Dest: 12, CommEvery: 3}
	pl, err := NewPlanner(sc, Config{Seed: 1, MemoryBudgetBytes: 1 << 30}, rewardfn.DefaultWeights())
	if err != nil {
		t.Fatalf("NewPlanner: %v", err)
	}
	if err := pl.Train(); err != nil {
		t.Fatalf("Train: %v", err)
	}
	res, err := sim.Run(sc, pl, sim.RunOptions{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Found {
		t.Fatalf("trained MaMoRL failed to find the destination: %+v", res)
	}
	if res.Collisions != 0 {
		t.Errorf("greedy cooperative policy collided %d times", res.Collisions)
	}
	st := pl.TableStats()
	if st.QEntries == 0 || st.PEntries == 0 {
		t.Errorf("training left tables empty: %+v", st)
	}
	if st.DenseQBytes <= float64(st.SparseBytesLB) {
		t.Errorf("dense size %v should dwarf sparse %v", st.DenseQBytes, st.SparseBytesLB)
	}
}

func TestPDistributionAndQValueAccessors(t *testing.T) {
	pl, m, _, counts := asmFixture(t)
	d := pl.PDistribution(m, 0, 1)
	if len(d) != counts[1] {
		t.Fatalf("PDistribution size = %d, want %d", len(d), counts[1])
	}
	sum := 0.0
	for _, v := range d {
		sum += v
	}
	if !almost(sum, 1, 1e-9) {
		t.Errorf("PDistribution sums to %v", sum)
	}
	sKey := pl.keyer.key([]grid.NodeID{1, 4})
	q := pl.tab.at(sKey).row(0).get(jointActionKey([]int{0, 0}, counts), qDefault(counts))
	if q != uniform(qDefault(counts)) {
		t.Errorf("untrained Q value = %v, want default %v", q, qDefault(counts))
	}
}

func TestDecideAvoidsBelievedOccupiedNodes(t *testing.T) {
	// Two assets two hops apart on a line; the midpoint is believed
	// occupied... actually place them adjacent: asset 0 at 1, asset 1 at 2.
	g := lineGrid(t, 6)
	team := vessel.NewTeam([]grid.NodeID{1, 2}, 0.5, 1)
	sc := sim.Scenario{Grid: g, Team: team, Dest: 5, CommEvery: 1}
	pl, err := NewPlanner(sc, Config{Seed: 3}, rewardfn.DefaultWeights())
	if err != nil {
		t.Fatalf("NewPlanner: %v", err)
	}
	m, err := sim.NewMission(sc, sim.RunOptions{})
	if err != nil {
		t.Fatalf("NewMission: %v", err)
	}
	// Asset 0's only non-wait moves are to 0 or to 2; 2 is believed
	// occupied, so Decide must never choose it.
	for trial := 0; trial < 20; trial++ {
		a := pl.Decide(m, 0)
		if a.IsWait() {
			continue
		}
		to, _ := m.Apply(m.Cur(0), a)
		if to == 2 {
			t.Fatalf("Decide moved into believed-occupied node 2")
		}
	}
}

func TestTmmFactorClamped(t *testing.T) {
	pl, _, _, _ := asmFixture(t)
	// t=1, T=3: beta^3. t=10 > T: clamped to beta^1.
	if got := pl.tmmFactor(1); !almost(got, math.Pow(0.3, 3), 1e-12) {
		t.Errorf("tmmFactor(1) = %v", got)
	}
	if got := pl.tmmFactor(10); !almost(got, 0.3, 1e-12) {
		t.Errorf("tmmFactor(10) = %v, want beta^1", got)
	}
}

func TestObserveUpdatesTables(t *testing.T) {
	pl, m, _, _ := asmFixture(t)
	if st := pl.TableStats(); st.PEntries != 0 || st.QEntries != 0 {
		t.Fatalf("fresh planner has entries: %+v", st)
	}
	prev := m.CurAll()
	acts := []sim.Action{{Neighbor: 0, Speed: 1}, {Neighbor: 0, Speed: 1}}
	r, err := m.ExecuteStep(acts)
	if err != nil {
		t.Fatalf("ExecuteStep: %v", err)
	}
	pl.Observe(m, prev, acts, r)
	st := pl.TableStats()
	// Each asset's P table gains an entry for the observed pre-step state
	// (the Equation 5 update); the Equation 6 lookup of argmax_b P(s', b)
	// only reads the post-step state: 2 tables x 1 state.
	if st.PEntries != 2 {
		t.Errorf("PEntries = %d, want 2", st.PEntries)
	}
	if st.QEntries != 2*NumRewardComponents {
		t.Errorf("QEntries = %d, want %d", st.QEntries, 2*NumRewardComponents)
	}
	if st.SparseBytesLB <= 0 || st.DenseQBytes <= st.DensePBytes {
		t.Errorf("byte accounting odd: %+v", st)
	}
}

func TestReadsDoNotGrowPTables(t *testing.T) {
	pl, m, sKey, counts := asmFixture(t)
	_ = pl.Decide(m, 0) // reads teammate 1's distribution at an unvisited state
	if st := pl.TableStats(); st.PEntries != 0 {
		t.Fatalf("Decide on an unvisited state stored %d P entries", st.PEntries)
	}
	def := pl.tab.dist(pl.tab.at(sKey), 1, counts[1])
	uniform := slices.Clone(def)
	prev := m.CurAll()
	acts := []sim.Action{{Neighbor: 0, Speed: 1}, {Neighbor: 0, Speed: 1}}
	r, err := m.ExecuteStep(acts)
	if err != nil {
		t.Fatalf("ExecuteStep: %v", err)
	}
	pl.Observe(m, prev, acts, r)
	if !slices.Equal(def, uniform) {
		t.Errorf("Observe changed the shared default: %v, want %v", def, uniform)
	}
	if learned := pl.tab.dist(pl.tab.at(sKey), 1, counts[1]); slices.Equal(learned, uniform) {
		t.Error("Observe did not store a learned distribution")
	}
}

func TestMaskedToConfinesExploration(t *testing.T) {
	// A masked exact planner must not value sensing outside the mask: with
	// everything masked out, maskedNewly is zero everywhere.
	pl, m, _, _ := asmFixture(t)
	masked := pl.MaskedTo(func(grid.NodeID) bool { return false }).(*Planner)
	for _, a := range m.LegalActionsFor(0) {
		if a.IsWait() {
			continue
		}
		to, _ := m.Apply(m.Cur(0), a)
		if got := masked.maskedNewly(m, 0, to); got != 0 {
			t.Fatalf("masked-out newly = %d at %d", got, to)
		}
		if pl.maskedNewly(m, 0, to) < 0 {
			t.Fatal("unmasked count negative")
		}
	}
	// The original planner is unaffected (MaskedTo copies).
	if pl.mask != nil {
		t.Error("MaskedTo mutated the original planner")
	}
}

func TestExploreActionNeverEntersBelievedOccupied(t *testing.T) {
	g := lineGrid(t, 4)
	team := vessel.NewTeam([]grid.NodeID{1, 2}, 0.5, 1)
	sc := sim.Scenario{Grid: g, Team: team, Dest: 3, CommEvery: 1}
	pl, err := NewPlanner(sc, Config{Seed: 5}, rewardfn.DefaultWeights())
	if err != nil {
		t.Fatalf("NewPlanner: %v", err)
	}
	m, err := sim.NewMission(sc, sim.RunOptions{})
	if err != nil {
		t.Fatalf("NewMission: %v", err)
	}
	acts := m.LegalActionsFor(0)
	for trial := 0; trial < 50; trial++ {
		a := pl.exploreAction(m, 0, acts)
		if a.IsWait() {
			continue
		}
		to, _ := m.Apply(m.Cur(0), a)
		if to == 2 {
			t.Fatal("exploreAction entered believed-occupied node")
		}
	}
}

func TestTrainingImprovesOverUntrained(t *testing.T) {
	// On a small instance, the trained policy should be no worse (in
	// makespan) than the untrained greedy policy, averaged over seeds.
	g := meshGrid(t, 5, 5)
	team := vessel.NewTeam([]grid.NodeID{0, 24}, 1.2, 2)
	sc := sim.Scenario{Grid: g, Team: team, Dest: 12, CommEvery: 3}

	var untrainedT, trainedT float64
	for seed := int64(0); seed < 3; seed++ {
		cfg := Config{Seed: seed, MemoryBudgetBytes: 1 << 30}
		fresh, err := NewPlanner(sc, cfg, rewardfn.DefaultWeights())
		if err != nil {
			t.Fatalf("NewPlanner: %v", err)
		}
		res, err := sim.Run(sc, fresh, sim.RunOptions{})
		if err != nil {
			t.Fatalf("Run untrained: %v", err)
		}
		untrainedT += res.TTotal

		trained, err := NewPlanner(sc, cfg, rewardfn.DefaultWeights())
		if err != nil {
			t.Fatalf("NewPlanner: %v", err)
		}
		if err := trained.Train(); err != nil {
			t.Fatalf("Train: %v", err)
		}
		res, err = sim.Run(sc, trained, sim.RunOptions{})
		if err != nil {
			t.Fatalf("Run trained: %v", err)
		}
		trainedT += res.TTotal
	}
	// Allow slack: training must not catastrophically hurt (2x bound), and
	// usually helps. This guards regressions where learning corrupts the
	// policy without requiring statistical strength from 3 seeds.
	if trainedT > 2*untrainedT {
		t.Errorf("training hurt badly: trained %v vs untrained %v", trainedT, untrainedT)
	}
}

func TestMaskedToDoesNotShareMutableState(t *testing.T) {
	// Regression: MaskedTo used to shallow-copy the planner, so the masked
	// copy shared the watchdog state, the navigator, and the rng with the
	// original — two planners composed over the same tables corrupted each
	// other's watchdog state mid-mission.
	g := meshGrid(t, 5, 5)
	team := vessel.NewTeam([]grid.NodeID{0, 24}, 1.5, 1)
	sc := sim.Scenario{Grid: g, Team: team, Dest: 12, CommEvery: 2}
	pl, err := NewPlanner(sc, Config{Seed: 11}, rewardfn.DefaultWeights())
	if err != nil {
		t.Fatalf("NewPlanner: %v", err)
	}
	m, err := sim.NewMission(sc, sim.RunOptions{})
	if err != nil {
		t.Fatalf("NewMission: %v", err)
	}
	// Give the original liveness state and scratch worth aliasing.
	_ = pl.Decide(m, 0)
	masked := pl.MaskedTo(func(grid.NodeID) bool { return true }).(*Planner)

	if masked.rng == pl.rng {
		t.Error("masked copy shares the rng")
	}

	// The learned table IS shared — that is the point of the composition.
	if masked.tab != pl.tab {
		t.Error("learned table not shared")
	}

	// Stalling the copy's asset 0 must not stall the original's: the
	// original last saw asset 0 at this sensed count, so one more call is
	// one epoch without progress, far below the patience.
	for k := 0; k < 10; k++ {
		masked.live.Stalled(m, 0)
	}
	if pl.live.Stalled(m, 0) {
		t.Fatal("masked copy aliases the original's watchdog state")
	}

	// Running a full mission under the masked copy must leave the original's
	// per-mission state untouched.
	if _, err := sim.Run(sc, masked, sim.RunOptions{}); err != nil {
		t.Fatalf("masked run: %v", err)
	}
	if pl.live.Stalled(m, 0) {
		t.Error("running the masked copy mutated the original planner")
	}

	// Scratch is per planner too: a copy of a planner that has decided
	// gets empty buffers, not the original's backing arrays.
	if fresh := pl.MaskedTo(func(grid.NodeID) bool { return true }).(*Planner); fresh.scratch.actions != nil || fresh.scratch.locs != nil {
		t.Error("masked copy shares the original's scratch")
	}
}

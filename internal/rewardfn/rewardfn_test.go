package rewardfn

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// TestToyExplorationReward reproduces the paper's worked Equation 1 value:
// the toy example's first joint action senses 2 and 3 new nodes with
// D_max = 5 and |N| = 2, giving 0.5.
func TestToyExplorationReward(t *testing.T) {
	moves := []Move{
		{From: 0, To: 1, Weight: 2, Speed: 2, NewlySensed: 2},
		{From: 10, To: 11, Weight: 2.24, Speed: 2, NewlySensed: 3},
	}
	v := Joint(moves, 5, 2)
	if !almost(v.Explore, 0.5, 1e-12) {
		t.Errorf("explore = %v, want 0.5", v.Explore)
	}
}

// TestToyTimeReward checks Equation 2 on the toy moves: asset1 takes 1 time
// unit (2/2), asset2 takes 1.12 (2.24/2), so the reward is 1/1.12. (The
// paper prints 0.83 from inconsistent intermediate rounding; the formula
// value is 0.8929 — see EXPERIMENTS.md.)
func TestToyTimeReward(t *testing.T) {
	moves := []Move{
		{From: 0, To: 1, Weight: 2, Speed: 2},
		{From: 10, To: 11, Weight: 2.24, Speed: 2},
	}
	v := Joint(moves, 5, 2)
	if !almost(v.Time, 1/1.12, 1e-9) {
		t.Errorf("time = %v, want %v", v.Time, 1/1.12)
	}
}

// TestToyFuelReward checks Equation 3 under the consistent fuel model:
// asset1 burns 4.2714, asset2 burns 4.7840, so the reward is 1/9.0554.
func TestToyFuelReward(t *testing.T) {
	moves := []Move{
		{From: 0, To: 1, Weight: 2, Speed: 2},
		{From: 10, To: 11, Weight: 2.24, Speed: 2},
	}
	v := Joint(moves, 5, 2)
	if !almost(v.Fuel, 1/(4.2714+4.7840), 1e-6) {
		t.Errorf("fuel = %v, want %v", v.Fuel, 1/(4.2714+4.7840))
	}
}

func TestAllWaitReward(t *testing.T) {
	moves := []Move{{From: 3, To: 3, Wait: true}, {From: 7, To: 7, Wait: true}}
	v := Joint(moves, 5, 2)
	if v.Explore != 0 {
		t.Errorf("all-wait explore = %v", v.Explore)
	}
	if !almost(v.Time, 1/WaitTime, 1e-12) {
		t.Errorf("all-wait time = %v", v.Time)
	}
	if v.Fuel != 0 {
		t.Errorf("all-wait fuel must be 0 (not unbounded), got %v", v.Fuel)
	}
}

func TestWaitMove(t *testing.T) {
	m := Move{From: 5, To: 5, Wait: true}
	if m.Time() != WaitTime || m.Fuel() != 0 {
		t.Errorf("wait time/fuel = %v/%v", m.Time(), m.Fuel())
	}
	if m.String() != "wait@5" {
		t.Errorf("String = %q", m.String())
	}
	mv := Move{From: 1, To: 2, Weight: 3, Speed: 2}
	if mv.String() != "1->2@2" {
		t.Errorf("String = %q", mv.String())
	}
}

func TestJointPanics(t *testing.T) {
	check := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	check("dMax 0", func() { Joint([]Move{{Wait: true}}, 0, 1) })
	check("count mismatch", func() { Joint([]Move{{Wait: true}}, 5, 2) })
}

func TestRewardBounds(t *testing.T) {
	// Rewards are always non-negative and exploration is bounded by 1 when
	// per-asset newly-sensed counts respect the D_max normalizer bound.
	f := func(w1, w2, s1, s2 float64, n1, n2 uint8) bool {
		m1 := Move{Weight: 0.1 + math.Abs(math.Mod(w1, 50)), Speed: 1 + math.Abs(math.Mod(s1, 9)), NewlySensed: int(n1 % 6)}
		m2 := Move{Weight: 0.1 + math.Abs(math.Mod(w2, 50)), Speed: 1 + math.Abs(math.Mod(s2, 9)), NewlySensed: int(n2 % 6)}
		v := Joint([]Move{m1, m2}, 5, 2)
		return v.Explore >= 0 && v.Time >= 0 && v.Fuel >= 0 &&
			v.Explore <= 1.2 // 6 sensed max per asset vs normalizer 5*2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMoreSensedNeverLowersExplore(t *testing.T) {
	base := []Move{{Weight: 1, Speed: 1, NewlySensed: 1}, {Weight: 1, Speed: 1, NewlySensed: 1}}
	more := []Move{{Weight: 1, Speed: 1, NewlySensed: 4}, {Weight: 1, Speed: 1, NewlySensed: 1}}
	if Joint(more, 5, 2).Explore <= Joint(base, 5, 2).Explore {
		t.Error("exploration reward must grow with newly sensed nodes")
	}
}

func TestWeights(t *testing.T) {
	w := Weights{Explore: 1, Time: 0.5, Fuel: 0.5}
	n := w.Normalized()
	if !almost(n.Explore+n.Time+n.Fuel, 1, 1e-12) {
		t.Errorf("Normalized sums to %v", n.Explore+n.Time+n.Fuel)
	}
	z := Weights{}
	if z.Normalized() != z {
		t.Error("zero weights should normalize to themselves")
	}
	if DefaultWeights() != (Weights{1, 0.5, 0.5}) {
		t.Errorf("DefaultWeights = %+v", DefaultWeights())
	}
}

func TestVectorArithmetic(t *testing.T) {
	a := Vector{1, 2, 3}
	b := Vector{0.5, 0.5, 0.5}
	if got := a.Add(b); got != (Vector{1.5, 2.5, 3.5}) {
		t.Errorf("Add = %+v", got)
	}
}

func TestSlowerSpeedLowersFuelRaisesTime(t *testing.T) {
	mkMoves := func(s float64) []Move {
		return []Move{{Weight: 3, Speed: s}, {Weight: 3, Speed: s}}
	}
	slow := Joint(mkMoves(1), 5, 2)
	fast := Joint(mkMoves(3), 5, 2)
	if !(slow.Fuel > fast.Fuel) {
		t.Errorf("slower must yield higher fuel reward: %v vs %v", slow.Fuel, fast.Fuel)
	}
	if !(slow.Time < fast.Time) {
		t.Errorf("slower must yield lower time reward: %v vs %v", slow.Time, fast.Time)
	}
}

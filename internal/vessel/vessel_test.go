package vessel

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/routeplanning/mamorl/internal/grid"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// TestTable2ToyExample locks in the paper's Table 2: time and fuel for both
// assets of the Section 2.3 toy example. Asset1 travels an edge of weight 2
// ((0,0)->(0,2)); Asset2 an edge of weight 2.24 ((8,7)->(6,6), the paper's
// rounded sqrt(5)).
func TestTable2ToyExample(t *testing.T) {
	cases := []struct {
		name       string
		weight     float64
		speed      float64
		time, fuel float64
	}{
		{"asset1 speed1", 2, 1, 2, 3.7664},
		{"asset1 speed2", 2, 2, 1, 4.2714},
		{"asset2 speed1", 2.24, 1, 2.24, 4.2184},
		{"asset2 speed2", 2.24, 2, 1.12, 4.7840},
	}
	for _, c := range cases {
		if got := MoveTime(c.weight, c.speed); !almost(got, c.time, 5e-3) {
			t.Errorf("%s: time = %v, want %v", c.name, got, c.time)
		}
		if got := MoveFuel(c.weight, c.speed); !almost(got, c.fuel, 5e-4) {
			t.Errorf("%s: fuel = %v, want %v", c.name, got, c.fuel)
		}
	}
	// Asset1 speed 3: the paper prints 4.7286; the model gives 4.7764.
	// We treat the printed value as a typo (see EXPERIMENTS.md) and lock in
	// the model's value.
	if got := MoveFuel(2, 3); !almost(got, 4.7764, 5e-4) {
		t.Errorf("asset1 speed3 fuel = %v, want 4.7764", got)
	}
	if got := MoveTime(2, 3); !almost(got, 0.6667, 5e-4) {
		t.Errorf("asset1 speed3 time = %v, want 0.6667", got)
	}
}

func TestTable2SpeedChoice(t *testing.T) {
	// The toy example picks speed 2 for both assets because it minimizes the
	// average of time and fuel; verify that ordering holds under the model.
	avg := func(w, s float64) float64 { return (MoveTime(w, s) + MoveFuel(w, s)) / 2 }
	if !(avg(2, 2) < avg(2, 1) && avg(2, 2) < avg(2, 3)) {
		t.Errorf("asset1: speed 2 should minimize avg: %v %v %v", avg(2, 1), avg(2, 2), avg(2, 3))
	}
	if !(avg(2.24, 2) < avg(2.24, 1)) {
		t.Errorf("asset2: speed 2 should beat speed 1: %v vs %v", avg(2.24, 2), avg(2.24, 1))
	}
}

func TestFuelRate(t *testing.T) {
	if got := FuelRate(1); !almost(got, 1.8832, 1e-9) {
		t.Errorf("FuelRate(1) = %v", got)
	}
	if got := FuelRate(2); !almost(got, 4.2714, 1e-9) {
		t.Errorf("FuelRate(2) = %v", got)
	}
	if got := FuelRate(0); got != 0 {
		t.Errorf("FuelRate(0) = %v", got)
	}
}

func TestFuelMonotoneInSpeed(t *testing.T) {
	// Faster always burns more fuel over a fixed distance and takes less
	// time: the core of the paper's fuel/time trade-off.
	f := func(w, s float64) bool {
		w = 0.1 + math.Abs(math.Mod(w, 100))
		s = 1 + math.Abs(math.Mod(s, 30))
		return MoveFuel(w, s+1) > MoveFuel(w, s) && MoveTime(w, s+1) < MoveTime(w, s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMoveTimePanicsOnZeroSpeed(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MoveTime(1, 0) should panic")
		}
	}()
	MoveTime(1, 0)
}

func TestAssetValidate(t *testing.T) {
	good := Asset{ID: 0, SensingRadius: 2, MaxSpeed: 3, Source: 0}
	if err := good.Validate(); err != nil {
		t.Errorf("valid asset rejected: %v", err)
	}
	bad := []Asset{
		{ID: 0, SensingRadius: -1, MaxSpeed: 3, Source: 0},
		{ID: 0, SensingRadius: 1, MaxSpeed: 0, Source: 0},
		{ID: 0, SensingRadius: 1, MaxSpeed: 3, Source: -1},
		{ID: 0, SensingRadius: math.NaN(), MaxSpeed: 3, Source: 0},
		{ID: 0, SensingRadius: math.Inf(1), MaxSpeed: 3, Source: 0},
		{ID: 0, SensingRadius: math.Inf(-1), MaxSpeed: 3, Source: 0},
	}
	for i, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("bad asset %d accepted", i)
		}
	}
}

func TestTeam(t *testing.T) {
	team := NewTeam([]grid.NodeID{0, 5, 9}, 2.5, 4)
	if err := team.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(team) != 3 || team[1].ID != 1 || team[2].Source != 9 {
		t.Errorf("team misconstructed: %+v", team)
	}
	if team.MaxSpeedOver() != 4 {
		t.Errorf("MaxSpeedOver = %d", team.MaxSpeedOver())
	}
}

func TestTeamValidateRejects(t *testing.T) {
	if err := (Team{}).Validate(); err == nil {
		t.Error("empty team accepted")
	}
	dup := NewTeam([]grid.NodeID{3, 3}, 1, 2)
	if err := dup.Validate(); err == nil {
		t.Error("duplicate sources accepted")
	}
	misID := NewTeam([]grid.NodeID{0, 1}, 1, 2)
	misID[1].ID = 7
	if err := misID.Validate(); err == nil {
		t.Error("non-dense IDs accepted")
	}
	badAsset := NewTeam([]grid.NodeID{0, 1}, 1, 2)
	badAsset[0].MaxSpeed = 0
	if err := badAsset.Validate(); err == nil {
		t.Error("invalid member accepted")
	}
}

func TestMixedTeamMaxSpeed(t *testing.T) {
	team := Team{
		{ID: 0, SensingRadius: 2, MaxSpeed: 3, Source: 0},
		{ID: 1, SensingRadius: 3, MaxSpeed: 2, Source: 4},
	}
	if err := team.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if team.MaxSpeedOver() != 3 {
		t.Errorf("MaxSpeedOver = %d", team.MaxSpeedOver())
	}
}

func TestCruiseSpeedRule(t *testing.T) {
	// Table 2's worked example: weight-2 edge, speeds {1,2,3} -> 2;
	// Asset2's weight-2.24 edge, speeds {1,2} -> 2.
	if got := CruiseSpeed(2, 3); got != 2 {
		t.Errorf("CruiseSpeed(2,3) = %d, want 2", got)
	}
	if got := CruiseSpeed(2.24, 2); got != 2 {
		t.Errorf("CruiseSpeed(2.24,2) = %d, want 2", got)
	}
	// Degenerate cap.
	if got := CruiseSpeed(5, 1); got != 1 {
		t.Errorf("CruiseSpeed(5,1) = %d, want 1", got)
	}
}

func TestCruiseSpeedIsArgminOfAverage(t *testing.T) {
	// Property: the returned speed minimizes (time+fuel)/2 over 1..max.
	for _, w := range []float64{0.5, 1, 2, 5, 10, 40} {
		for max := 1; max <= 7; max++ {
			got := CruiseSpeed(w, max)
			best := 1
			bestCost := math.Inf(1)
			for s := 1; s <= max; s++ {
				c := (MoveTime(w, float64(s)) + MoveFuel(w, float64(s))) / 2
				if c < bestCost {
					bestCost, best = c, s
				}
			}
			if got != best {
				t.Errorf("CruiseSpeed(%v,%d) = %d, argmin is %d", w, max, got, best)
			}
		}
	}
}

func TestCruiseSpeedMonotoneInWeight(t *testing.T) {
	// Longer edges never warrant a *slower* cruise: the time term grows
	// linearly with weight while fuel does too, but their ratio favors
	// speed as distance grows.
	prev := 0
	for _, w := range []float64{0.5, 1, 2, 4, 8, 16, 32, 64} {
		s := CruiseSpeed(w, 5)
		if s < prev {
			t.Fatalf("cruise speed decreased from %d to %d at weight %v", prev, s, w)
		}
		prev = s
	}
}

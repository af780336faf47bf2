// Package vessel models the distributed assets of the RPP (Section 2.1):
// the asset quintuple ⟨r_i, sp_i, source_i, cur_i, d_i⟩ and the fuel and
// time consumption models of Section 2.2.
//
// Fuel model. The paper adopts the statistical ship model of Bialystocki &
// Konovessis (Equation 4): fuel(1, s) = 0.2525·s² + 1.6307·s. We interpret
// fuel(1, s) as the consumption *rate* while sailing at speed s, so a move
// of distance w at speed s takes w/s time and burns (w/s)·fuel(1, s) fuel.
// This is the only interpretation under which every exactly-stated entry of
// the paper's Table 2 reproduces to all four printed decimals (see
// vessel_test.go); the paper's toy arithmetic for Equation 3 mixes two
// conventions, which EXPERIMENTS.md documents.
package vessel

import (
	"fmt"
	"math"

	"github.com/routeplanning/mamorl/internal/grid"
)

// Fuel model coefficients from Equation 4 of the paper (Bialystocki &
// Konovessis 2016).
const (
	FuelQuadCoeff = 0.2525
	FuelLinCoeff  = 1.6307
)

// FuelRate returns fuel(1, speed): the fuel consumed per unit time while
// moving at the given speed (Equation 4).
func FuelRate(speed float64) float64 {
	return FuelQuadCoeff*speed*speed + FuelLinCoeff*speed
}

// MoveTime returns the time to traverse an edge of the given weight at the
// given speed (Section 2.2's time model).
func MoveTime(weight, speed float64) float64 {
	if speed <= 0 {
		panic("vessel: MoveTime with non-positive speed")
	}
	return weight / speed
}

// MoveFuel returns the fuel burned traversing an edge of the given weight at
// the given speed: travel time multiplied by the fuel rate.
func MoveFuel(weight, speed float64) float64 {
	return MoveTime(weight, speed) * FuelRate(speed)
}

// CruiseSpeed picks the speed minimizing the average of time and fuel for
// an edge of the given weight — the speed rule the paper's toy example
// applies in Table 2.
func CruiseSpeed(weight float64, maxSpeed int) int {
	best, bestCost := 1, 0.0
	for s := 1; s <= maxSpeed; s++ {
		cost := (MoveTime(weight, float64(s)) + MoveFuel(weight, float64(s))) / 2
		if s == 1 || cost < bestCost {
			bestCost = cost
			best = s
		}
	}
	return best
}

// Asset describes one distributed asset. Positions evolve during a mission;
// Asset itself holds only the static characteristics, while the simulation
// (internal/sim) tracks current location, clock and fuel.
type Asset struct {
	// ID indexes the asset within its team, 0-based.
	ID int
	// SensingRadius is r_i: the asset observes every grid node within this
	// metric distance of its location.
	SensingRadius float64
	// MaxSpeed is sp_i. Speeds are the integers 1..MaxSpeed, matching the
	// paper's toy example where an asset with sp=3 chooses among speeds
	// {1, 2, 3} or waits.
	MaxSpeed int
	// Source is the starting node.
	Source grid.NodeID
}

// Validate reports configuration errors.
func (a Asset) Validate() error {
	// NaN passes a plain "< 0" test, and an asset with it senses nothing,
	// not even its own node; an infinite radius has no finite cell window
	// in the grid's spatial index.
	if !(a.SensingRadius >= 0) || math.IsInf(a.SensingRadius, 1) {
		return fmt.Errorf("asset %d: sensing radius %v is not finite and non-negative", a.ID, a.SensingRadius)
	}
	if a.MaxSpeed < 1 {
		return fmt.Errorf("asset %d: max speed %d < 1", a.ID, a.MaxSpeed)
	}
	if a.Source < 0 {
		return fmt.Errorf("asset %d: invalid source node %d", a.ID, a.Source)
	}
	return nil
}

// Team is an ordered set of assets with dense IDs.
type Team []Asset

// NewTeam builds a team of n identical assets starting at the given sources,
// assigning IDs 0..n-1.
func NewTeam(sources []grid.NodeID, sensingRadius float64, maxSpeed int) Team {
	team := make(Team, len(sources))
	for i, s := range sources {
		team[i] = Asset{ID: i, SensingRadius: sensingRadius, MaxSpeed: maxSpeed, Source: s}
	}
	return team
}

// Validate checks every asset and the team's invariants: dense IDs and
// distinct sources (two assets on one node would begin in collision).
func (t Team) Validate() error {
	if len(t) == 0 {
		return fmt.Errorf("team: empty")
	}
	seen := make(map[grid.NodeID]int, len(t))
	for i, a := range t {
		if a.ID != i {
			return fmt.Errorf("team: asset at index %d has ID %d", i, a.ID)
		}
		if err := a.Validate(); err != nil {
			return err
		}
		if j, dup := seen[a.Source]; dup {
			return fmt.Errorf("team: assets %d and %d share source node %d", j, i, a.Source)
		}
		seen[a.Source] = i
	}
	return nil
}

// MaxSpeedOver returns the largest MaxSpeed over the team (the paper's sp in
// the Lemma 1-2 table-size formulas).
func (t Team) MaxSpeedOver() int {
	max := 0
	for _, a := range t {
		if a.MaxSpeed > max {
			max = a.MaxSpeed
		}
	}
	return max
}

// Package rewardfn implements the vector reward design of Section 3.1.1:
// the exploration reward (Equation 1), the time reward (Equation 2) and the
// fuel reward (Equation 3). The TDMDP's reward is a vector with one
// component per objective; MaMoRL keeps separate P and Q tables per
// component (Lemmata 1-2), and planners scalarize when they must rank
// actions.
package rewardfn

import (
	"fmt"

	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/vessel"
)

// WaitTime is the duration of a wait action. The paper treats waiting as an
// action but never defines its duration; one time unit makes a wait
// comparable to a unit-distance move at speed 1 and is used consistently by
// every planner and baseline in this repository.
const WaitTime = 1.0

// Move is one asset's contribution to a joint action: either an edge
// traversal at a chosen speed or a wait.
type Move struct {
	// From and To are the endpoints; To == From for a wait.
	From, To grid.NodeID
	// Weight is the traversed edge's weight; 0 for a wait.
	Weight float64
	// Speed is the chosen (commanded) speed sp' (1..sp_i); 0 for a wait.
	Speed float64
	// SpeedFactor is the environmental multiplier on effective speed
	// (currents, storms — internal/weather); 0 is treated as calm (1).
	// The engine runs at the commanded speed's fuel rate for however long
	// the crossing really takes, so adverse weather costs time AND fuel.
	SpeedFactor float64
	// Wait marks the wait action.
	Wait bool
	// NewlySensed counts nodes this asset senses after the move that the
	// team had not sensed before (the Sensed(i)^{a_i} of Equation 1).
	NewlySensed int
}

// factor resolves the effective-speed multiplier.
func (m Move) factor() float64 {
	if m.SpeedFactor == 0 {
		return 1
	}
	return m.SpeedFactor
}

// Time returns the duration of the move (Section 2.2's time model, scaled
// by the environmental speed factor).
func (m Move) Time() float64 {
	if m.Wait {
		return WaitTime
	}
	return vessel.MoveTime(m.Weight, m.Speed*m.factor())
}

// Fuel returns the fuel consumed by the move: crossing time at the
// commanded speed's burn rate. Waiting burns no fuel.
func (m Move) Fuel() float64 {
	if m.Wait {
		return 0
	}
	return m.Time() * vessel.FuelRate(m.Speed)
}

// String implements fmt.Stringer for debugging traces.
func (m Move) String() string {
	if m.Wait {
		return fmt.Sprintf("wait@%d", m.From)
	}
	return fmt.Sprintf("%d->%d@%g", m.From, m.To, m.Speed)
}

// Vector is the multi-objective reward of one joint action.
type Vector struct {
	Explore float64 // Equation 1
	Time    float64 // Equation 2
	Fuel    float64 // Equation 3
}

// Joint computes the vector reward of a joint action. dMax is the maximum
// out-degree of the grid (the normalizer D_max of Equation 1) and must be
// positive; nAssets is |N|.
//
// Edge cases the paper leaves open are resolved as follows: if every asset
// waits, the fuel sum is zero, and instead of an unbounded reward (which
// would teach the team that waiting forever is optimal) the fuel and
// exploration components are zero while time is 1/WaitTime.
func Joint(moves []Move, dMax, nAssets int) Vector {
	if dMax <= 0 {
		panic("rewardfn: non-positive dMax")
	}
	if nAssets <= 0 || len(moves) != nAssets {
		panic(fmt.Sprintf("rewardfn: %d moves for %d assets", len(moves), nAssets))
	}
	var v Vector
	sensed := 0
	maxTime := 0.0
	fuel := 0.0
	for _, m := range moves {
		sensed += m.NewlySensed
		if t := m.Time(); t > maxTime {
			maxTime = t
		}
		fuel += m.Fuel()
	}
	v.Explore = float64(sensed) / (float64(dMax) * float64(nAssets))
	if maxTime > 0 {
		v.Time = 1 / maxTime
	}
	if fuel > 0 {
		v.Fuel = 1 / fuel
	}
	return v
}

// Weights scalarizes a reward vector. The paper's decision rule (Section
// 3.1.1) moves to maximize exploration and picks speeds to optimize the
// average of fuel and time; DefaultWeights encodes that: exploration
// dominates, time and fuel share the remainder equally.
type Weights struct {
	Explore float64
	Time    float64
	Fuel    float64
}

// DefaultWeights mirror the paper's rule: exploration first, then the
// average of time and fuel.
func DefaultWeights() Weights { return Weights{Explore: 1, Time: 0.5, Fuel: 0.5} }

// Normalized returns weights scaled to sum to 1. Zero-sum weights are
// returned unchanged.
func (w Weights) Normalized() Weights {
	s := w.Explore + w.Time + w.Fuel
	if s == 0 {
		return w
	}
	return Weights{w.Explore / s, w.Time / s, w.Fuel / s}
}

// Add returns the component-wise sum.
func (v Vector) Add(o Vector) Vector {
	return Vector{v.Explore + o.Explore, v.Time + o.Time, v.Fuel + o.Fuel}
}

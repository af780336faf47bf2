// Package sim implements the Team Discrete Markov Decision Process the RPP
// is formalized as (Section 3.1): the joint state is the locations of all
// |N| assets, a joint action moves every asset to a neighboring node at a
// chosen speed or keeps it waiting, transitions are deterministic, and the
// vector reward of Section 3.1.1 is emitted per transition.
//
// The package also simulates the distributed-execution constraints of
// Section 2.2: each asset senses the grid up to its radius, assets exchange
// locations and sensed sets every k decision epochs, the finder broadcasts
// when the destination is discovered, and two assets occupying one node at
// the same epoch collide.
package sim

import (
	"strconv"

	"github.com/routeplanning/mamorl/internal/grid"
)

// Action is one asset's decision at an epoch: transit to the Neighbor-th
// out-edge of its current node at Speed, or wait (Section 3.1-b).
type Action struct {
	// Neighbor indexes into grid.Neighbors(cur); -1 means wait.
	Neighbor int
	// Speed is the chosen speed 1..MaxSpeed; 0 for wait.
	Speed int
}

// Wait is the wait action.
var Wait = Action{Neighbor: -1, Speed: 0}

// IsWait reports whether the action is a wait.
func (a Action) IsWait() bool { return a.Neighbor < 0 }

// String implements fmt.Stringer: "wait" or "n<neighbor>@s<speed>".
func (a Action) String() string {
	if a.IsWait() {
		return "wait"
	}
	var buf [24]byte
	b := append(buf[:0], 'n')
	b = strconv.AppendInt(b, int64(a.Neighbor), 10)
	b = append(b, "@s"...)
	return string(strconv.AppendInt(b, int64(a.Speed), 10))
}

// ActionCount returns |A_i(s)| for an asset at a node with the given
// out-degree and max speed: every neighbor at every speed, plus wait.
func ActionCount(outDegree, maxSpeed int) int { return outDegree*maxSpeed + 1 }

// EncodeActionAt maps an action at a node of known out-degree to a dense
// index in [0, ActionCount). The wait action takes the last index, so
// indices are stable as long as the out-degree is fixed, which the exact
// solver's P and Q tables rely on.
func EncodeActionAt(a Action, outDegree, maxSpeed int) int {
	if a.IsWait() {
		return outDegree * maxSpeed
	}
	return a.Neighbor*maxSpeed + (a.Speed - 1)
}

// LegalActions enumerates every action available to an asset standing at
// node v with the given max speed: each out-neighbor at each speed, then
// wait. The order matches EncodeActionAt indices.
func LegalActions(g *grid.Grid, v grid.NodeID, maxSpeed int) []Action {
	deg := g.OutDegree(v)
	return AppendLegalActions(make([]Action, 0, ActionCount(deg, maxSpeed)), g, v, maxSpeed)
}

// AppendLegalActions appends the LegalActions enumeration to buf and
// returns the extended slice. Planners pass buf[:0] of a reused buffer to
// enumerate without allocating (the action set is recomputed every epoch
// for every asset and every anticipated teammate).
func AppendLegalActions(buf []Action, g *grid.Grid, v grid.NodeID, maxSpeed int) []Action {
	deg := g.OutDegree(v)
	for n := 0; n < deg; n++ {
		for s := 1; s <= maxSpeed; s++ {
			buf = append(buf, Action{Neighbor: n, Speed: s})
		}
	}
	return append(buf, Wait)
}

package sim

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/routeplanning/mamorl/internal/geo"
	"github.com/routeplanning/mamorl/internal/grid"
)

// Trace records a mission epoch by epoch for visualization and post-hoc
// analysis (the TMPLAR front-end's global view renders exactly this kind
// of record). Install its Record as the OnStep hook before running:
//
//	tr := sim.NewTrace(sc)
//	res, _ := sim.Run(sc, planner, sim.RunOptions{OnStep: tr.Record})
//	tr.Finish(res)
//	tr.WriteJSON(os.Stdout)
type Trace struct {
	// GridName, Assets and Dest identify the instance. Dest is grid.None
	// (unknown) in a trace file without a "dest" field.
	GridName string       `json:"grid"`
	Assets   int          `json:"assets"`
	Dest     grid.NodeID  `json:"dest"`
	Epochs   []TraceEpoch `json:"epochs"`
	// Outcome is filled by Finish.
	Outcome *Result `json:"outcome,omitempty"`
}

// TraceEpoch is one decision epoch.
type TraceEpoch struct {
	Step int `json:"step"`
	// Nodes are the post-move asset locations.
	Nodes []grid.NodeID `json:"nodes"`
	// Positions are the corresponding coordinates.
	Positions []geo.Point `json:"positions"`
	// Actions are the decisions applied this epoch (rendered strings, e.g.
	// "n2@s3" or "wait").
	Actions []string `json:"actions"`
	// SensedCount is the team's ground-truth sensed-node count after the
	// epoch.
	SensedCount int `json:"sensed_count"`
	// Time and Fuel are the running per-asset totals.
	Time []float64 `json:"time"`
	Fuel []float64 `json:"fuel"`
}

// NewTrace returns an empty trace of sc's mission. It takes the instance's
// identity from sc, so a mission that ends before its first epoch (a
// destination sensed from the start) still names its grid, team size and
// destination.
func NewTrace(sc Scenario) *Trace {
	return &Trace{GridName: sc.Grid.Name(), Assets: len(sc.Team), Dest: sc.Dest}
}

// Record implements the RunOptions.OnStep signature.
func (t *Trace) Record(m *Mission, acts []Action) {
	ep := TraceEpoch{
		Step:        m.Step(),
		Nodes:       m.CurAll(),
		SensedCount: m.TeamSensedCount(),
	}
	for i := 0; i < m.NumAssets(); i++ {
		ep.Positions = append(ep.Positions, m.Grid().Pos(m.Cur(i)))
		ep.Actions = append(ep.Actions, acts[i].String())
		ep.Time = append(ep.Time, m.TimeSpent(i))
		ep.Fuel = append(ep.Fuel, m.FuelSpent(i))
	}
	t.Epochs = append(t.Epochs, ep)
}

// Finish attaches the mission outcome.
func (t *Trace) Finish(res Result) { t.Outcome = &res }

// WriteJSON streams the trace as JSON.
func (t *Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// ReadTrace parses a trace written by WriteJSON. A trace without a
// destination reads as grid.None (unknown).
func ReadTrace(r io.Reader) (*Trace, error) {
	t := Trace{Dest: grid.None}
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("sim: read trace: %w", err)
	}
	return &t, nil
}

// Validate checks internal consistency: per-epoch slices sized to the
// asset count, monotone steps, and non-decreasing per-asset time/fuel
// (failure injection for recorder bugs and hand-edited traces).
func (t *Trace) Validate() error {
	prevStep := -1
	prevTime := make([]float64, t.Assets)
	prevFuel := make([]float64, t.Assets)
	for e, ep := range t.Epochs {
		if len(ep.Nodes) != t.Assets || len(ep.Actions) != t.Assets ||
			len(ep.Time) != t.Assets || len(ep.Fuel) != t.Assets || len(ep.Positions) != t.Assets {
			return fmt.Errorf("sim: trace epoch %d has inconsistent widths", e)
		}
		if ep.Step <= prevStep {
			return fmt.Errorf("sim: trace epoch %d step %d not increasing", e, ep.Step)
		}
		prevStep = ep.Step
		for i := 0; i < t.Assets; i++ {
			if ep.Time[i] < prevTime[i] {
				return fmt.Errorf("sim: asset %d time decreased at epoch %d", i, e)
			}
			if ep.Fuel[i] < prevFuel[i] {
				return fmt.Errorf("sim: asset %d fuel decreased at epoch %d", i, e)
			}
			prevTime[i], prevFuel[i] = ep.Time[i], ep.Fuel[i]
		}
	}
	return nil
}

// Summary aggregates a trace into the same quantities a Result reports,
// recomputed from the recorded epochs (a consistency check between the
// recorder and the simulator).
func (t *Trace) Summary() Result {
	var r Result
	if len(t.Epochs) == 0 {
		r.FoundBy = -1
		return r
	}
	last := t.Epochs[len(t.Epochs)-1]
	r.Steps = last.Step
	for i := 0; i < t.Assets; i++ {
		if last.Time[i] > r.TTotal {
			r.TTotal = last.Time[i]
		}
		r.FTotal += last.Fuel[i]
	}
	r.FoundBy = -1
	if t.Outcome != nil {
		r.Found = t.Outcome.Found
		r.FoundBy = t.Outcome.FoundBy
		r.Collisions = t.Outcome.Collisions
		r.Aborted = t.Outcome.Aborted
	}
	return r
}

// WaitFraction returns the fraction of recorded decisions that were waits —
// a planner-behavior diagnostic (Baseline-1 is dominated by waits, the
// cooperative planners are not).
func (t *Trace) WaitFraction() float64 {
	waits, total := 0, 0
	for _, ep := range t.Epochs {
		for _, a := range ep.Actions {
			total++
			if a == "wait" {
				waits++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(waits) / float64(total)
}

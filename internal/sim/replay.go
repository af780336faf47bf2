package sim

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/routeplanning/mamorl/internal/trace"
)

// ParseAction inverts Action.String: "wait" or "n<neighbor>@s<speed>".
func ParseAction(s string) (Action, error) {
	if s == "wait" {
		return Wait, nil
	}
	rest, ok := strings.CutPrefix(s, "n")
	if !ok {
		return Action{}, fmt.Errorf("sim: bad action %q", s)
	}
	nStr, sStr, ok := strings.Cut(rest, "@s")
	if !ok {
		return Action{}, fmt.Errorf("sim: bad action %q", s)
	}
	n, err := strconv.Atoi(nStr)
	if err != nil || n < 0 {
		return Action{}, fmt.Errorf("sim: bad neighbor in action %q", s)
	}
	sp, err := strconv.Atoi(sStr)
	if err != nil || sp < 1 {
		return Action{}, fmt.Errorf("sim: bad speed in action %q", s)
	}
	return Action{Neighbor: n, Speed: sp}, nil
}

// ParseActions inverts appendActions: |-separated per-asset actions.
func ParseActions(s string) ([]Action, error) {
	parts := strings.Split(s, "|")
	acts := make([]Action, len(parts))
	for i, p := range parts {
		a, err := ParseAction(p)
		if err != nil {
			return nil, err
		}
		acts[i] = a
	}
	return acts, nil
}

// ActionsFromSpan extracts the joint-action sequence from a mission span's
// "step" events, in epoch order — the input Replay needs. Spans read back
// from a JSONL trace file work unchanged.
func ActionsFromSpan(sp *trace.Span) ([][]Action, error) {
	if sp == nil {
		return nil, fmt.Errorf("sim: nil span")
	}
	steps := sp.EventsNamed("step")
	out := make([][]Action, 0, len(steps))
	for _, e := range steps {
		a, ok := e.Attr("actions")
		if !ok {
			return nil, fmt.Errorf("sim: step event without actions attr in span %q", sp.Name)
		}
		acts, err := ParseActions(a.Str())
		if err != nil {
			return nil, err
		}
		out = append(out, acts)
	}
	return out, nil
}

// scriptedPlanner replays a recorded joint-action sequence.
type scriptedPlanner struct {
	epochs [][]Action
}

func (p *scriptedPlanner) Name() string { return "replay" }

func (p *scriptedPlanner) Decide(m *Mission, i int) Action {
	e := m.Step()
	if e >= len(p.epochs) || i >= len(p.epochs[e]) {
		return Wait
	}
	return p.epochs[e][i]
}

// Replay re-executes a recorded mission: the scenario stepped through the
// exact joint actions of a previous run (typically ActionsFromSpan of a
// traced mission). Transitions are deterministic, so a replay on the same
// scenario reproduces the original Result exactly — the trace file is a
// complete record of what happened.
func Replay(sc Scenario, epochActions [][]Action, opts RunOptions) (Result, error) {
	return Run(sc, &scriptedPlanner{epochs: epochActions}, opts)
}

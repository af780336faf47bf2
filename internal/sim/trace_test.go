package sim

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/vessel"
)

// runTraced runs the toy scenario with the trace recorder installed.
func runTraced(t *testing.T) (*Trace, Result) {
	t.Helper()
	sc := toyScenario(t)
	g := sc.Grid
	p := &scripted{seqs: [][]Action{
		{toward(g, 0, 1)},
		{toward(g, 9, 8), toward(g, 8, 7)},
	}}
	tr := NewTrace(sc)
	res, err := Run(sc, p, RunOptions{OnStep: tr.Record})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	tr.Finish(res)
	return tr, res
}

func TestTraceRecordsEveryEpoch(t *testing.T) {
	tr, res := runTraced(t)
	if len(tr.Epochs) != res.Steps {
		t.Fatalf("trace has %d epochs, mission ran %d", len(tr.Epochs), res.Steps)
	}
	if tr.Assets != 2 || tr.GridName != "line" {
		t.Errorf("trace metadata: %+v", tr)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Summary must reconcile with the mission result.
	sum := tr.Summary()
	if math.Abs(sum.TTotal-res.TTotal) > 1e-9 || math.Abs(sum.FTotal-res.FTotal) > 1e-9 {
		t.Errorf("summary %+v != result %+v", sum, res)
	}
	if sum.Steps != res.Steps || sum.Found != res.Found {
		t.Errorf("summary %+v != result %+v", sum, res)
	}
}

func TestTraceJSONRoundTrip(t *testing.T) {
	tr, _ := runTraced(t)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	tr2, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if len(tr2.Epochs) != len(tr.Epochs) || tr2.Assets != tr.Assets {
		t.Fatalf("roundtrip lost epochs: %d vs %d", len(tr2.Epochs), len(tr.Epochs))
	}
	if err := tr2.Validate(); err != nil {
		t.Fatalf("roundtrip Validate: %v", err)
	}
	if tr2.Outcome == nil || !tr2.Outcome.Found {
		t.Error("outcome lost in roundtrip")
	}
	if want := toyScenario(t).Dest; tr.Dest != want || tr2.Dest != want {
		t.Errorf("destination %d recorded, %d read back; want %d", tr.Dest, tr2.Dest, want)
	}
	// A trace file written before traces recorded the destination reads
	// as an unknown one.
	old, err := ReadTrace(strings.NewReader(`{"grid":"line","assets":2,"epochs":[]}`))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if old.Dest != grid.None {
		t.Errorf("a trace without a destination reads dest %d, want grid.None", old.Dest)
	}
}

// TestTraceStepZeroDiscovery: a mission whose destination is sensed from
// the start runs no epoch, so Record is never called; its trace still
// names the grid, the team size and the destination after a round trip.
func TestTraceStepZeroDiscovery(t *testing.T) {
	sc := toyScenario(t)
	sc.Dest = 1 // asset 0 at node 0 senses node 1
	tr := NewTrace(sc)
	res, err := Run(sc, &scripted{}, RunOptions{OnStep: tr.Record})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Found || res.Steps != 0 {
		t.Fatalf("want a discovery at step 0, got %+v", res)
	}
	tr.Finish(res)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if got.GridName != "line" || got.Assets != 2 || got.Dest != 1 || len(got.Epochs) != 0 {
		t.Errorf("read back grid %q, assets %d, dest %d, %d epochs; want \"line\", 2, 1, 0",
			got.GridName, got.Assets, got.Dest, len(got.Epochs))
	}
	if got.Outcome == nil || !got.Outcome.Found {
		t.Error("outcome lost in roundtrip")
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestTraceValidateCatchesCorruption(t *testing.T) {
	tr, _ := runTraced(t)

	// Width corruption.
	bad := *tr
	bad.Epochs = append([]TraceEpoch(nil), tr.Epochs...)
	bad.Epochs[0].Nodes = bad.Epochs[0].Nodes[:1]
	if err := bad.Validate(); err == nil {
		t.Error("width corruption not caught")
	}

	// Non-increasing steps.
	if len(tr.Epochs) >= 2 {
		bad2 := *tr
		bad2.Epochs = append([]TraceEpoch(nil), tr.Epochs...)
		bad2.Epochs[1].Step = bad2.Epochs[0].Step
		if err := bad2.Validate(); err == nil {
			t.Error("step corruption not caught")
		}
	}

	// Decreasing fuel.
	if len(tr.Epochs) >= 2 {
		bad3 := *tr
		bad3.Epochs = append([]TraceEpoch(nil), tr.Epochs...)
		ep := bad3.Epochs[1]
		ep.Fuel = append([]float64(nil), ep.Fuel...)
		ep.Fuel[1] = -1
		bad3.Epochs[1] = ep
		if err := bad3.Validate(); err == nil {
			t.Error("fuel corruption not caught")
		}
	}
}

func TestTraceWaitFraction(t *testing.T) {
	tr, _ := runTraced(t)
	// Asset 0 moves once then waits; asset 1 moves twice. Of 4 decisions
	// (2 epochs x 2 assets), 1 is a wait.
	if wf := tr.WaitFraction(); math.Abs(wf-0.25) > 1e-9 {
		t.Errorf("WaitFraction = %v, want 0.25", wf)
	}
	empty := NewTrace(toyScenario(t))
	if empty.WaitFraction() != 0 {
		t.Error("empty trace wait fraction should be 0")
	}
	if sum := empty.Summary(); sum.Steps != 0 || sum.FoundBy != -1 {
		t.Errorf("empty summary: %+v", sum)
	}
}

func TestTraceTimeFuelMonotone(t *testing.T) {
	// Property over the recorded epochs: per-asset time strictly increases
	// each epoch (every action costs time) and fuel never decreases.
	tr, _ := runTraced(t)
	for e := 1; e < len(tr.Epochs); e++ {
		for i := 0; i < tr.Assets; i++ {
			if tr.Epochs[e].Time[i] <= tr.Epochs[e-1].Time[i] {
				t.Fatalf("asset %d time did not advance at epoch %d", i, e)
			}
			if tr.Epochs[e].Fuel[i] < tr.Epochs[e-1].Fuel[i] {
				t.Fatalf("asset %d fuel decreased at epoch %d", i, e)
			}
		}
	}
	// Fuel totals reconcile with the fuel model: asset 1 moved 2 unit
	// edges at speed 1.
	last := tr.Epochs[len(tr.Epochs)-1]
	want := 2 * vessel.MoveFuel(1, 1)
	if math.Abs(last.Fuel[1]-want) > 1e-9 {
		t.Errorf("asset 1 fuel = %v, want %v", last.Fuel[1], want)
	}
}

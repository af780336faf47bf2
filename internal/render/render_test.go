package render

import (
	"bytes"
	"strings"
	"testing"

	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/sim"
	"github.com/routeplanning/mamorl/internal/vessel"
)

func tracedMission(t *testing.T) (*grid.Grid, *sim.Trace, sim.Scenario) {
	t.Helper()
	g := grid.Lattice("map", 8, 6)
	sc := sim.Scenario{
		Grid:      g,
		Team:      vessel.NewTeam([]grid.NodeID{0, 47}, 1.2, 2),
		Dest:      grid.NodeID(5*8 + 7), // top-right area
		CommEvery: 3,
	}
	// Drive with a simple random planner until done.
	tr := sim.NewTrace(sc)
	m, err := sim.NewMission(sc, sim.RunOptions{})
	if err != nil {
		t.Fatalf("NewMission: %v", err)
	}
	for !m.Done() {
		acts := make([]sim.Action, m.NumAssets())
		for i := range acts {
			legal := m.LegalActionsFor(i)
			acts[i] = legal[(m.Step()+i)%len(legal)]
		}
		if _, err := m.ExecuteStep(acts); err != nil {
			t.Fatalf("ExecuteStep: %v", err)
		}
		tr.Record(m, acts)
	}
	tr.Finish(m.Result())
	return g, tr, sc
}

func TestMissionRender(t *testing.T) {
	g, tr, sc := tracedMission(t)
	out := Mission(g, tr, nil, sc.Dest, Options{Width: 40, Height: 12})
	if !strings.Contains(out, "X") {
		t.Error("destination marker missing")
	}
	if !strings.Contains(out, "0") || !strings.Contains(out, "1") {
		t.Errorf("asset glyphs missing:\n%s", out)
	}
	if !strings.Contains(out, "outcome:") {
		t.Error("outcome line missing")
	}
	// Canvas dimensions: border + 12 rows + border + summary.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 15 {
		t.Errorf("rendered %d lines, want 15", len(lines))
	}
	for _, l := range lines[:14] {
		if len(l) != 42 {
			t.Errorf("line width %d, want 42: %q", len(l), l)
		}
	}
}

func TestGridRenderWithObstacles(t *testing.T) {
	g := grid.Lattice("map", 8, 6)
	out := Grid(g, []grid.NodeID{10, 11, 12}, Options{Width: 40, Height: 12})
	if !strings.Contains(out, "#") {
		t.Error("obstacle marker missing")
	}
	if !strings.Contains(out, ".") {
		t.Error("node dots missing")
	}
	if !strings.Contains(out, "|V|=48") {
		t.Errorf("summary missing:\n%s", out)
	}
}

func TestAssetGlyphs(t *testing.T) {
	if assetGlyph(0) != '0' || assetGlyph(9) != '9' {
		t.Error("digit glyphs wrong")
	}
	if assetGlyph(10) != 'a' || assetGlyph(35) != 'z' {
		t.Error("letter glyphs wrong")
	}
	if assetGlyph(99) != '?' {
		t.Error("overflow glyph wrong")
	}
}

func TestRenderEmptyTrace(t *testing.T) {
	g := grid.Lattice("map", 4, 4)
	out := Mission(g, &sim.Trace{}, nil, 5, Options{})
	if !strings.Contains(out, "epochs=0") {
		t.Errorf("empty trace render:\n%s", out)
	}
}

// waiting is a planner that always waits.
type waiting struct{}

func (waiting) Name() string                        { return "waiting" }
func (waiting) Decide(*sim.Mission, int) sim.Action { return sim.Wait }

// TestMissionRenderStepZeroDiscovery: a mission that senses its
// destination from the start records no epoch; read back from its trace
// file, it still marks the destination.
func TestMissionRenderStepZeroDiscovery(t *testing.T) {
	g := grid.Lattice("map", 10, 2)
	sc := sim.Scenario{Grid: g, Team: vessel.NewTeam([]grid.NodeID{0, 9}, 1.5, 2), Dest: 1, CommEvery: 3}
	tr := sim.NewTrace(sc)
	res, err := sim.Run(sc, waiting{}, sim.RunOptions{OnStep: tr.Record})
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
	got, err := sim.ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	out := Mission(g, got, nil, got.Dest, Options{})
	if !strings.ContainsRune(out, 'X') || !strings.Contains(out, "assets=2") {
		t.Errorf("step-0 trace renders without its destination or team:\n%s", out)
	}
}

// TestMissionRenderUnknownDestination: an unknown destination (dest < 0,
// as a trace file without one reads) renders the tracks without an 'X'
// instead of panicking.
func TestMissionRenderUnknownDestination(t *testing.T) {
	g, tr, _ := tracedMission(t)
	out := Mission(g, tr, nil, grid.None, Options{Width: 40, Height: 12})
	if strings.Contains(out, "X") {
		t.Errorf("unknown destination drew an X:\n%s", out)
	}
	if !strings.Contains(out, "0") || !strings.Contains(out, "1") {
		t.Errorf("asset glyphs missing:\n%s", out)
	}
}

// sweep moves asset 0 east and every other asset west, one node a step.
type sweep struct{}

func (sweep) Name() string { return "sweep" }
func (sweep) Decide(m *sim.Mission, i int) sim.Action {
	g, at := m.Grid(), m.Cur(i)
	for n, e := range g.Neighbors(at) {
		if (g.Pos(e.To).X > g.Pos(at).X) == (i == 0) {
			return sim.Action{Neighbor: n, Speed: 1}
		}
	}
	return sim.Wait
}

// TestMissionRenderLineGrid: on a 10-node line grid, the sim toy
// scenario's shape, every node shares one y coordinate; the map still
// draws node dots, the tracks, the assets and the destination.
func TestMissionRenderLineGrid(t *testing.T) {
	g := grid.Lattice("line", 10, 1)
	sc := sim.Scenario{Grid: g, Team: vessel.NewTeam([]grid.NodeID{0, 9}, 1.5, 1), Dest: 6, CommEvery: 3}
	tr := sim.NewTrace(sc)
	res, err := sim.Run(sc, sweep{}, sim.RunOptions{OnStep: tr.Record})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Found || res.Steps != 2 {
		t.Fatalf("want the sweep to sense the destination at step 2, got %+v", res)
	}
	tr.Finish(res)
	// The map is everything up to the frame's last corner.
	frame := func(out string) string { return out[:strings.LastIndex(out, "+")] }
	out := Mission(g, tr, nil, sc.Dest, Options{ShowNodes: true})
	for _, glyph := range []string{".", "*", "0", "1", "X"} {
		if !strings.Contains(frame(out), glyph) {
			t.Errorf("line grid map lacks %q:\n%s", glyph, out)
		}
	}
	if out := Grid(g, nil, Options{}); strings.Count(frame(out), ".") != 10 {
		t.Errorf("line grid map draws %d of 10 nodes:\n%s", strings.Count(frame(out), "."), out)
	}
}

func TestDefaultDimensions(t *testing.T) {
	g := grid.Lattice("map", 4, 4)
	out := Grid(g, nil, Options{})
	lines := strings.Split(out, "\n")
	// border + 24 rows + border + summary + trailing empty
	if len(lines) != 28 {
		t.Errorf("default render has %d lines", len(lines))
	}
}

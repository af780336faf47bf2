package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/trace"
	"github.com/routeplanning/mamorl/internal/vessel"
)

// greedyToward walks each asset toward the destination along the line grid —
// a deterministic planner with actual movement to trace.
type greedyToward struct{ dest int }

func (p *greedyToward) Name() string { return "greedy" }
func (p *greedyToward) Decide(m *Mission, i int) Action {
	cur := int(m.Cur(i))
	if cur == p.dest {
		return Wait
	}
	var want int
	if cur < p.dest {
		want = cur + 1
	} else {
		want = cur - 1
	}
	for n, e := range m.Grid().Neighbors(m.Cur(i)) {
		if int(e.To) == want {
			return Action{Neighbor: n, Speed: 1}
		}
	}
	return Wait
}

func TestMissionSpan(t *testing.T) {
	sc := toyScenario(t)
	p := func() Planner { return &greedyToward{dest: int(sc.Dest)} }

	// Reference run, untraced.
	want, err := Run(sc, p(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Traced run: tracing must not change the result.
	ring := trace.NewRing(16)
	var buf bytes.Buffer
	jw := trace.NewJSONLWriter(&buf)
	tr := trace.New(ring, jw)
	got, err := Run(sc, p(), RunOptions{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("traced run diverged: %+v vs %+v", got, want)
	}
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}

	spans := ring.Snapshot()
	if len(spans) != 1 {
		t.Fatalf("ring holds %d spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.Name != "mission" {
		t.Fatalf("span name %q", sp.Name)
	}
	if a, ok := trace.GetAttr(sp.Attrs, "planner"); !ok || a.Str() != "greedy" {
		t.Fatalf("planner attr %v %v", a, ok)
	}
	checkOutcomeAttrs(t, sp.Attrs, want)
	// Discovery broadcasts to the whole team: at least one exchange.
	if a, ok := trace.GetAttr(sp.Attrs, "exchanges"); !ok || a.IntVal() < 1 {
		t.Fatalf("exchanges attr %v %v, want >= 1", a, ok)
	}
	if a, ok := trace.GetAttr(sp.Attrs, "decide_us"); !ok || a.FloatVal() < 0 {
		t.Fatalf("decide_us attr %v %v", a, ok)
	}

	// The JSONL file carries the same attributes.
	fromFile, err := trace.ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(fromFile) != 1 || len(fromFile[0].Attrs) != len(sp.Attrs) {
		t.Fatalf("file holds %d spans; want one with %d attrs", len(fromFile), len(sp.Attrs))
	}
	if a, ok := trace.GetAttr(fromFile[0].Attrs, "steps"); !ok || a.FloatVal() != float64(want.Steps) {
		t.Fatalf("file steps attr %v %v, want %d", a, ok, want.Steps)
	}
}

// checkOutcomeAttrs checks a mission span's outcome attributes against the
// mission's Result.
func checkOutcomeAttrs(t *testing.T, attrs []trace.Attr, want Result) {
	t.Helper()
	ints := map[string]int{
		"steps": want.Steps, "found_by": want.FoundBy,
		"discovery_step": want.DiscoverySteps, "collisions": want.Collisions,
	}
	for k, v := range ints {
		if a, ok := trace.GetAttr(attrs, k); !ok || a.IntVal() != int64(v) {
			t.Errorf("%s attr %v %v, want %d", k, a.IntVal(), ok, v)
		}
	}
	floats := map[string]float64{"t_total": want.TTotal, "f_total": want.FTotal}
	for k, v := range floats {
		if a, ok := trace.GetAttr(attrs, k); !ok || a.FloatVal() != v {
			t.Errorf("%s attr %v %v, want %v", k, a.FloatVal(), ok, v)
		}
	}
	if a, ok := trace.GetAttr(attrs, "found"); !ok || a.BoolVal() != want.Found {
		t.Errorf("found attr %v %v, want %v", a.BoolVal(), ok, want.Found)
	}
}

// shuttle moves assets 0 and 1 back and forth across node 1 of a line, so
// they collide every other epoch, and walks asset 2 right to node 28.
type shuttle struct{}

func (shuttle) Name() string { return "shuttle" }
func (shuttle) Decide(m *Mission, i int) Action {
	cur := m.Cur(i)
	to := grid.NodeID(1)
	switch {
	case i == 2:
		to = min(cur+1, 28)
	case cur == 1:
		to = grid.NodeID(2 * i)
	}
	return toward(m.Grid(), cur, to)
}

// TestMissionSpanSizeIsConstant: a mission span records totals, not
// epochs, so a 10,000-epoch mission's span holds as many attributes as a
// 10-epoch one's. The rendezvous never gathers (assets 0 and 1 shuttle
// far from the destination asset 2 finds at step 3), so both missions run
// to MaxSteps with a discovery and collisions to report.
func TestMissionSpanSizeIsConstant(t *testing.T) {
	sc := Scenario{
		Grid:       lineGrid(t, 30),
		Team:       vessel.NewTeam([]grid.NodeID{0, 2, 25}, 1.5, 1),
		Dest:       29,
		CommEvery:  3,
		Rendezvous: true,
	}
	var attrs []int
	for _, steps := range []int{10, 10_000} {
		sc.MaxSteps = steps
		ring := trace.NewRing(16)
		res, err := Run(sc, shuttle{}, RunOptions{Tracer: trace.New(ring)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Steps != steps || !res.Found || res.FoundBy != 2 || res.DiscoverySteps != 3 || res.Collisions == 0 {
			t.Fatalf("MaxSteps %d: result %+v, want a full-length mission found by asset 2 at step 3, with collisions", steps, res)
		}
		spans := ring.Snapshot()
		if len(spans) != 1 {
			t.Fatalf("MaxSteps %d: %d spans", steps, len(spans))
		}
		checkOutcomeAttrs(t, spans[0].Attrs, res)
		attrs = append(attrs, len(spans[0].Attrs))
	}
	if attrs[0] != attrs[1] {
		t.Fatalf("span attributes: %d after 10 epochs, %d after 10,000", attrs[0], attrs[1])
	}
}

// TestActionTextMatchesFmt pins the strconv rendering of Action.String
// byte for byte against the fmt rendering it replaced, for every action up
// to degree 16 × speed 8 plus wait.
func TestActionTextMatchesFmt(t *testing.T) {
	all := []Action{Wait}
	want := []string{"wait"}
	for n := 0; n < 16; n++ {
		for s := 1; s <= 8; s++ {
			all = append(all, Action{Neighbor: n, Speed: s})
			want = append(want, fmt.Sprintf("n%d@s%d", n, s))
		}
	}
	for k, a := range all {
		if got := a.String(); got != want[k] {
			t.Fatalf("Action%+v.String() = %q, want %q", a, got, want[k])
		}
	}
}

func TestStepZeroDiscoveryEvent(t *testing.T) {
	// Destination inside the initial sensing radius: discovery happens in
	// NewMission, before the mission loop runs.
	sc := toyScenario(t)
	sc.Dest = 1 // asset 0 at node 0, radius 1.5 — sensed immediately
	ring := trace.NewRing(16)
	res, err := Run(sc, &greedyToward{dest: 1}, RunOptions{Tracer: trace.New(ring)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Steps != 0 {
		t.Fatalf("expected step-0 discovery, got %+v", res)
	}
	spans := ring.Snapshot()
	if len(spans) != 1 {
		t.Fatalf("%d spans", len(spans))
	}
	if a, ok := trace.GetAttr(spans[0].Attrs, "found_by"); !ok || a.IntVal() != 0 {
		t.Fatalf("found_by attr: %v %v", a, ok)
	}
	if a, ok := trace.GetAttr(spans[0].Attrs, "discovery_step"); !ok || a.IntVal() != 0 {
		t.Fatalf("discovery_step attr: %v %v", a, ok)
	}
}

package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/routeplanning/mamorl/internal/approx"
	"github.com/routeplanning/mamorl/internal/core"
	"github.com/routeplanning/mamorl/internal/obs"
	"github.com/routeplanning/mamorl/internal/trace"
)

func TestProgressReporter(t *testing.T) {
	var b strings.Builder
	p := NewProgress(&b, time.Second)
	clock := time.Unix(1000, 0)
	p.SetNow(func() time.Time { return clock })
	p.SetLabel("table6")
	p.Expect(10)

	// First tick paints (lastPaint is zero).
	p.RunDone()
	if !strings.Contains(b.String(), "[table6] 1/10 runs") {
		t.Fatalf("first paint: %q", b.String())
	}

	// Within the interval: no repaint.
	before := b.Len()
	clock = clock.Add(300 * time.Millisecond)
	p.RunDone()
	if b.Len() != before {
		t.Fatalf("repainted within interval: %q", b.String()[before:])
	}

	// Past the interval: repaint with rate and ETA. 3 runs in 2s = 1.5
	// runs/s, 7 remaining → ETA ~5s.
	clock = clock.Add(1700 * time.Millisecond)
	p.RunDone()
	out := b.String()
	if !strings.Contains(out, "3/10 runs") || !strings.Contains(out, "1.5 runs/s") {
		t.Fatalf("rate paint: %q", out)
	}
	if !strings.Contains(out, "ETA 5s") {
		t.Fatalf("ETA: %q", out)
	}

	// Finish terminates the line.
	p.Finish()
	if !strings.HasSuffix(b.String(), "\n") {
		t.Fatalf("Finish did not end the line: %q", b.String())
	}

	// All methods are no-ops on nil.
	var nilP *Progress
	nilP.SetLabel("x")
	nilP.Expect(5)
	nilP.RunDone()
	nilP.Finish()
}

func TestProgressQuietWhenIdle(t *testing.T) {
	var b strings.Builder
	p := NewProgress(&b, time.Second)
	p.Expect(10)
	p.Finish()
	if b.Len() != 0 {
		t.Fatalf("idle progress wrote %q", b.String())
	}
}

// TestTracingDeterminism pins the contract that tracing is pure
// observation: the seed-aligned PerRun records (the input to the paired
// t-tests) are identical with tracing on and off.
func TestTracingDeterminism(t *testing.T) {
	h, err := NewHarness(approx.TrainConfig{
		GridNodes: 30, GridEdges: 55, SampleEpisodes: 2,
		Core: core.Config{Episodes: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := Params{
		Nodes: 60, Edges: 120, MaxOutDegree: 5, Assets: 2, MaxSpeed: 3,
		Episodes: 2, CommEvery: 3, Runs: 3, SensingRadiusFactor: 1.2, Seed: 7,
	}

	plain, err := h.Evaluate(context.Background(), AlgoApprox, p)
	if err != nil {
		t.Fatal(err)
	}

	traced := p
	ring := trace.NewRing(1024)
	traced.Tracer = trace.New(ring)
	traced.Metrics = obs.New()
	var sb strings.Builder
	traced.Progress = NewProgress(&sb, time.Nanosecond)
	withObs, err := h.Evaluate(context.Background(), AlgoApprox, traced)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(plain.PerRun, withObs.PerRun) {
		t.Fatalf("PerRun diverged under tracing:\n%+v\nvs\n%+v", plain.PerRun, withObs.PerRun)
	}
	if plain.FoundRuns != withObs.FoundRuns || plain.MeanT() != withObs.MeanT() {
		t.Fatalf("aggregates diverged: %+v vs %+v", plain, withObs)
	}

	// The observability surface actually observed: run spans with mission
	// children, a counter per run, and progress output.
	spans := ring.Snapshot()
	var runs, missions int
	for _, s := range spans {
		switch s.Name {
		case "run":
			runs++
			if a, ok := trace.GetAttr(s.Attrs, "algorithm"); !ok || a.Str() != AlgoApprox {
				t.Fatalf("run span algorithm attr: %v %v", a, ok)
			}
		case "mission":
			missions++
			if s.Parent == 0 {
				t.Fatal("mission span has no parent")
			}
		}
	}
	if runs != p.Runs || missions != p.Runs {
		t.Fatalf("spans: %d runs, %d missions, want %d each", runs, missions, p.Runs)
	}
	if got := traced.Metrics.CounterValue("experiments_runs_total", "algorithm", AlgoApprox); got != uint64(p.Runs) {
		t.Fatalf("runs_total = %d want %d", got, p.Runs)
	}
	if got := traced.Metrics.GaugeValue("experiments_inflight_runs"); got != 0 {
		t.Fatalf("inflight gauge did not settle: %g", got)
	}
	if !strings.Contains(sb.String(), "runs") {
		t.Fatalf("progress never painted: %q", sb.String())
	}
}

// TestAblationRunSpansReportPlannerSeed pins that each run span names the
// seed its planner got: the ablation seeds run `run` with Seed + 31·run,
// not the runSeed schedule of the named algorithms.
func TestAblationRunSpansReportPlannerSeed(t *testing.T) {
	h := harness(t)
	p := smallParams()
	p.Runs = 2
	ring := trace.NewRing(1024)
	p.Tracer = trace.New(ring)
	rows, err := h.RunAblation(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	var runs int
	for _, s := range ring.Snapshot() {
		if s.Name != "run" {
			continue
		}
		runs++
		run, okRun := trace.GetAttr(s.Attrs, "run")
		seed, okSeed := trace.GetAttr(s.Attrs, "seed")
		if !okRun || !okSeed {
			t.Fatalf("run span lacks run or seed attr: %+v", s.Attrs)
		}
		if want := p.Seed + 31*run.IntVal(); seed.IntVal() != want {
			t.Errorf("run %d span seed = %d, want %d", run.IntVal(), seed.IntVal(), want)
		}
	}
	if want := p.Runs * len(AblationVariants()); runs != want {
		t.Fatalf("%d run spans, want %d", runs, want)
	}
	for _, r := range rows {
		for i, rv := range r.Stats.PerRun {
			if want := p.Seed + 31*int64(i); rv.Seed != want {
				t.Errorf("%s PerRun[%d].Seed = %d, want %d", r.Variant, i, rv.Seed, want)
			}
		}
	}
}

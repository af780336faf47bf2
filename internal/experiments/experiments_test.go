package experiments

import (
	"bytes"
	"context"
	"encoding/csv"
	"strings"
	"testing"
	"time"

	"github.com/routeplanning/mamorl/internal/approx"
	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/neural"
)

// sharedHarness is built once per test binary (exact-MaMoRL training).
var sharedHarness *Harness

func harness(t *testing.T) *Harness {
	t.Helper()
	if sharedHarness == nil {
		h, err := NewHarness(approx.TrainConfig{Seed: 3, SampleEpisodes: 3})
		if err != nil {
			t.Fatalf("NewHarness: %v", err)
		}
		sharedHarness = h
	}
	return sharedHarness
}

// smallParams is a fast parameter setting exercising all machinery.
func smallParams() Params {
	p := DefaultParams()
	p.Nodes, p.Edges, p.MaxOutDegree = 150, 330, 8
	p.Assets = 2
	p.MaxSpeed = 3
	p.Runs = 3
	return p
}

func TestDefaultParamsMatchTable4(t *testing.T) {
	p := DefaultParams()
	if p.Nodes != 400 || p.Edges != 846 || p.MaxOutDegree != 9 ||
		p.Assets != 6 || p.MaxSpeed != 5 || p.Episodes != 10 || p.CommEvery != 3 {
		t.Errorf("defaults diverge from Table 4: %+v", p)
	}
	if p.Runs != 10 {
		t.Errorf("runs = %d, want the paper's 10-run averaging", p.Runs)
	}
}

func TestEvaluateApprox(t *testing.T) {
	h := harness(t)
	rs, err := h.Evaluate(context.Background(), AlgoApprox, smallParams())
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if rs.NA {
		t.Fatalf("Approx N/A: %s", rs.NAReason)
	}
	if rs.FoundRuns != rs.Runs {
		t.Errorf("found %d/%d", rs.FoundRuns, rs.Runs)
	}
	if rs.MeanT() <= 0 || rs.MeanF() <= 0 {
		t.Errorf("objectives: T=%v F=%v", rs.MeanT(), rs.MeanF())
	}
	if rs.MemoryBytes <= 0 || rs.MemoryBytes > 1<<20 {
		t.Errorf("approx memory = %v bytes; expected sub-MB", rs.MemoryBytes)
	}
}

func TestEvaluateAllAlgorithmsSmall(t *testing.T) {
	h := harness(t)
	p := smallParams()
	for _, algo := range AllAlgorithms {
		rs, err := h.Evaluate(context.Background(), algo, p)
		if err != nil {
			t.Fatalf("Evaluate(%s): %v", algo, err)
		}
		switch algo {
		case AlgoBaseline2:
			// May be N/A (all aborted) or partially complete; either is fine.
		default:
			if rs.NA {
				t.Errorf("%s N/A: %s", algo, rs.NAReason)
			}
		}
	}
}

func TestEvaluateExactRefusesHugeInstance(t *testing.T) {
	h := harness(t)
	p := smallParams()
	p.Nodes, p.Edges, p.MaxOutDegree, p.Assets = 400, 846, 9, 3
	p.MaxSpeed = 5
	p.Runs = 1
	rs, err := h.Evaluate(context.Background(), AlgoMaMoRL, p)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if !rs.NA || rs.NAReason != "exceeds memory budget" {
		t.Fatalf("expected memory N/A, got %+v", rs)
	}
	// The reported requirement should be in the thousands-of-TB range,
	// matching Table 6's 17000 TB.
	if tb := rs.MemoryBytes / (1 << 40); tb < 1000 {
		t.Errorf("dense requirement = %v TB; expected thousands", tb)
	}
}

func TestEvaluateExactRunsSmallInstance(t *testing.T) {
	h := harness(t)
	p := smallParams()
	p.Nodes, p.Edges, p.MaxOutDegree = 100, 210, 6
	p.Runs = 1
	rs, err := h.Evaluate(context.Background(), AlgoMaMoRL, p)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if rs.NA {
		t.Fatalf("exact N/A on a runnable instance: %s", rs.NAReason)
	}
	if rs.FoundRuns == 0 {
		t.Error("exact MaMoRL found nothing")
	}
	if rs.MemoryBytes <= 1<<20 {
		t.Errorf("exact dense memory = %v; expected far above the approximations", rs.MemoryBytes)
	}
}

func TestTable6ScenarioShapes(t *testing.T) {
	scs := Table6Scenarios(DefaultParams())
	if len(scs) != 4 {
		t.Fatalf("want 4 scenario blocks, got %d", len(scs))
	}
	wantNodes := []int{704, 400, 400, 200}
	wantAssets := []int{2, 3, 2, 2}
	wantD := []int{7, 9, 6, 9}
	for i, sc := range scs {
		if sc.Params.Nodes != wantNodes[i] || sc.Params.Assets != wantAssets[i] || sc.Params.MaxOutDegree != wantD[i] {
			t.Errorf("scenario %d = %+v", i, sc.Params)
		}
	}
}

func TestFormatTable6RendersNA(t *testing.T) {
	rows := []Table6Row{
		{Scenario: "s", Algorithm: AlgoMaMoRL, Stats: RunStats{NA: true, NAReason: "exceeds memory budget", MemoryBytes: 205 << 30}},
		{Scenario: "s", Algorithm: AlgoApprox, Stats: RunStats{Runs: 2, PerRun: []RunValue{{Found: true, TTotal: 1, FTotal: 3}, {Found: true, TTotal: 2, FTotal: 4}}, FoundRuns: 2, MemoryBytes: 1056}},
	}
	out := FormatTable6(rows)
	if !strings.Contains(out, "N/A") || !strings.Contains(out, "205 GB") {
		t.Errorf("Table 6 formatting wrong:\n%s", out)
	}
	if !strings.Contains(out, "1.50") {
		t.Errorf("missing mean T_total:\n%s", out)
	}
}

func TestFormatDuration(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want string
	}{
		{0, "0.000 ms"},
		{1234 * time.Nanosecond, "0.001 ms"},
		{834567 * time.Nanosecond, "0.835 ms"},
		{2*time.Millisecond + 500*time.Microsecond, "2.500 ms"},
		{999500 * time.Microsecond, "999.500 ms"},
		{1500 * time.Millisecond, "1.50 s"},
		{90 * time.Second, "1.5 min"},
	} {
		if got := formatDuration(tc.d); got != tc.want {
			t.Errorf("formatDuration(%v) = %q, want %q", tc.d, got, tc.want)
		}
	}
}

func TestRunFigure3Quick(t *testing.T) {
	h := harness(t)
	p := smallParams()
	r, err := h.RunFigure3(context.Background(), p, neural.TrainOptions{Epochs: 40, BatchSize: 256, LearningRate: 0.05}, 5)
	if err != nil {
		t.Fatalf("RunFigure3: %v", err)
	}
	if r.NeuralTrainTime <= 0 || r.LinearTrainTime <= 0 {
		t.Error("training times missing")
	}
	if r.Speedup <= 1 {
		t.Errorf("NN should train slower than linear; speedup=%v", r.Speedup)
	}
	if r.Linear.FoundRuns == 0 || r.Neural.FoundRuns == 0 {
		t.Errorf("planners failed: lin %d, nn %d", r.Linear.FoundRuns, r.Neural.FoundRuns)
	}
	if !strings.Contains(FormatFigure3(r), "NN-Approx-MaMoRL") {
		t.Error("formatting wrong")
	}
}

func TestRunFigure4Quick(t *testing.T) {
	h := harness(t)
	r, err := h.RunFigure4(context.Background(), smallParams())
	if err != nil {
		t.Fatalf("RunFigure4: %v", err)
	}
	if len(r.Front) == 0 {
		t.Fatal("empty Pareto front")
	}
	// Approx variants should hold at least as many front points as the
	// random walk (the paper's Figure 4 shows them dominating).
	approxShare := r.FrontShare[AlgoApprox] + r.FrontShare[AlgoApproxPK]
	if approxShare < r.FrontShare[AlgoRandomWalk] {
		t.Errorf("approx front share %d < random walk %d", approxShare, r.FrontShare[AlgoRandomWalk])
	}
	if !strings.Contains(FormatFigure4(r), "Pareto front") {
		t.Error("formatting wrong")
	}
}

func TestRunSweepsQuick(t *testing.T) {
	h := harness(t)
	p := smallParams()
	sweeps, err := h.RunSweeps(context.Background(), AlgoApprox, p, true)
	if err != nil {
		t.Fatalf("RunSweeps: %v", err)
	}
	if len(sweeps) != 7 {
		t.Fatalf("want 7 sweeps (Figure 5a-g), got %d", len(sweeps))
	}
	names := map[string]bool{}
	for _, s := range sweeps {
		names[s.Param] = true
		if len(s.Points) < 2 {
			t.Errorf("sweep %s has %d points", s.Param, len(s.Points))
		}
		for _, pt := range s.Points {
			if pt.Subject.NA {
				t.Errorf("sweep %s value %v: subject N/A (%s)", s.Param, pt.Value, pt.Subject.NAReason)
			}
		}
	}
	for _, want := range []string{"nodes", "edges", "neighbors", "assets", "speed", "episodes", "comm-frequency"} {
		if !names[want] {
			t.Errorf("missing sweep %q", want)
		}
	}
	out := FormatSweeps("Figure 5", AlgoApprox, sweeps)
	if !strings.Contains(out, "varying nodes") {
		t.Error("sweep formatting wrong")
	}
	f7 := FormatFigure7(AlgoApprox, sweeps)
	if !strings.Contains(f7, "Baseline-1") {
		t.Error("figure 7 formatting wrong")
	}
}

func TestRunSweepsPartialKnowledgeQuick(t *testing.T) {
	h := harness(t)
	p := smallParams()
	// One sweep value is enough to exercise the PK path through sweeps.
	p.Runs = 2
	pt, err := h.sweepPoint(context.Background(), AlgoApproxPK, p, p.Nodes, limiterFor(p))
	if err != nil {
		t.Fatalf("sweepPoint PK: %v", err)
	}
	if pt.Subject.NA {
		t.Fatalf("PK N/A: %s", pt.Subject.NAReason)
	}
	if pt.Subject.FoundRuns == 0 {
		t.Error("PK found nothing")
	}
}

func TestRunFigure8Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("mesh construction is slow; skipped with -short")
	}
	carib, err := grid.CaribbeanGrid(5)
	if err != nil {
		t.Fatalf("CaribbeanGrid: %v", err)
	}
	// Use a second, smaller mesh as the partner basin to keep the test
	// fast; the full NA-Shore mesh runs in cmd/experiments and the bench.
	partner, err := grid.GenerateOceanMesh(grid.OceanMeshConfig{
		Name: "mini-shore", Region: carib.Bounds(), Nodes: 500, Edges: 1150, MaxOutDegree: 6, Seed: 9,
	})
	if err != nil {
		t.Fatalf("partner mesh: %v", err)
	}
	r, err := RunFigure8(context.Background(), carib, partner, Figure8Options{Runs: 2, Seed: 7})
	if err != nil {
		t.Fatalf("RunFigure8: %v", err)
	}
	if len(r.Cells) != 4 {
		t.Fatalf("want 4 transfer cells, got %d", len(r.Cells))
	}
	for _, c := range r.Cells {
		rs := c.Stats
		if rs.FoundRuns == 0 {
			t.Errorf("cell %s->%s found nothing", c.TrainedOn, c.EvaluatedOn)
		}
		// RunStats' contract: FoundRuns counts the PerRun entries marked
		// found, and an unfound run's entry carries no objective values.
		found := 0
		for i, rv := range rs.PerRun {
			if rv.Found {
				found++
			}
			if rv.Seed != 7+int64(i) {
				t.Errorf("cell %s->%s PerRun[%d].Seed = %d, want %d", c.TrainedOn, c.EvaluatedOn, i, rv.Seed, 7+i)
			}
			if !rv.Found && (rv.TTotal != 0 || rv.FTotal != 0) {
				t.Errorf("cell %s->%s: unfound run %d carries T=%v F=%v", c.TrainedOn, c.EvaluatedOn, i, rv.TTotal, rv.FTotal)
			}
		}
		if found != rs.FoundRuns {
			t.Errorf("cell %s->%s: %d PerRun entries found, FoundRuns %d", c.TrainedOn, c.EvaluatedOn, found, rs.FoundRuns)
		}
	}
	if !strings.Contains(FormatFigure8(r), "transfer learning") {
		t.Error("figure 8 formatting wrong")
	}
}

func TestRunAblationQuick(t *testing.T) {
	h := harness(t)
	p := smallParams()
	p.Assets = 4 // collision-relevant mechanisms need a crowd
	results, err := h.RunAblation(context.Background(), p)
	if err != nil {
		t.Fatalf("RunAblation: %v", err)
	}
	if len(results) != len(AblationVariants()) {
		t.Fatalf("got %d variants", len(results))
	}
	byName := map[string]RunStats{}
	for _, r := range results {
		byName[r.Variant] = r.Stats
	}
	full := byName["full"]
	if full.FoundRuns != full.Runs {
		t.Errorf("full planner found %d/%d", full.FoundRuns, full.Runs)
	}
	if full.CollidedRuns > full.Runs/2 {
		t.Errorf("full planner collided in %d/%d runs", full.CollidedRuns, full.Runs)
	}
	// Every variant result must be present and well-formed; specific
	// degradations depend on seeds, but a variant that found nothing at all
	// must report N/A semantics (FoundRuns 0 handled by formatter).
	out := FormatAblation(results)
	for _, v := range AblationVariants() {
		if !strings.Contains(out, v.Name) {
			t.Errorf("formatted output missing %s", v.Name)
		}
	}
}

func TestEvaluateParallelMatchesSerial(t *testing.T) {
	// Parallel evaluation must produce identical per-seed objective values
	// (planners and scenarios are seeded per run).
	h := harness(t)
	p := smallParams()
	p.Runs = 4

	serial, err := h.Evaluate(context.Background(), AlgoApprox, p)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	p.Parallel = 4
	parallel, err := h.Evaluate(context.Background(), AlgoApprox, p)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if len(serial.PerRun) != len(parallel.PerRun) {
		t.Fatalf("run counts differ: %d vs %d", len(serial.PerRun), len(parallel.PerRun))
	}
	for i := range serial.PerRun {
		if serial.PerRun[i] != parallel.PerRun[i] {
			t.Fatalf("run %d differs: serial %+v vs parallel %+v", i, serial.PerRun[i], parallel.PerRun[i])
		}
	}
}

func TestRunRendezvousQuick(t *testing.T) {
	h := harness(t)
	p := smallParams()
	p.Assets = 3
	rows, err := h.RunRendezvous(context.Background(), p)
	if err != nil {
		t.Fatalf("RunRendezvous: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]RendezvousRow{}
	for _, r := range rows {
		byName[r.Algorithm] = r
	}
	ap := byName[AlgoApprox]
	if ap.Stats.NA || ap.Stats.FoundRuns == 0 {
		t.Fatalf("approx rendezvous N/A: %+v", ap.Stats)
	}
	if ap.MeanDiscoveryFrac <= 0 || ap.MeanDiscoveryFrac > 1 {
		t.Errorf("discovery fraction = %v", ap.MeanDiscoveryFrac)
	}
	if !strings.Contains(FormatRendezvous(rows), "search%") {
		t.Error("formatting wrong")
	}
}

func TestCSVExports(t *testing.T) {
	h := harness(t)
	p := smallParams()
	p.Runs = 2

	var buf bytes.Buffer
	rows := []Table6Row{
		{Scenario: "s", Algorithm: AlgoApprox, Stats: RunStats{Runs: 2, FoundRuns: 2, PerRun: []RunValue{{Found: true, TTotal: 1, FTotal: 3}, {Found: true, TTotal: 2, FTotal: 4}}, MemoryBytes: 208}},
		{Scenario: "s", Algorithm: AlgoMaMoRL, Stats: RunStats{Runs: 2, NA: true, NAReason: "exceeds memory budget", MemoryBytes: 1 << 38}},
	}
	if err := WriteTable6CSV(&buf, rows); err != nil {
		t.Fatalf("WriteTable6CSV: %v", err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("parse table6 csv: %v", err)
	}
	if len(recs) != 3 || recs[1][1] != AlgoApprox || recs[2][2] != "true" {
		t.Errorf("table6 csv wrong: %v", recs)
	}

	sweeps, err := h.RunSweeps(context.Background(), AlgoApprox, p, true)
	if err != nil {
		t.Fatalf("RunSweeps: %v", err)
	}
	buf.Reset()
	if err := WriteSweepsCSV(&buf, AlgoApprox, sweeps); err != nil {
		t.Fatalf("WriteSweepsCSV: %v", err)
	}
	recs, err = csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("parse sweeps csv: %v", err)
	}
	wantRows := 1
	for _, s := range sweeps {
		wantRows += len(s.Points)
	}
	if len(recs) != wantRows {
		t.Errorf("sweeps csv rows = %d, want %d", len(recs), wantRows)
	}

	fig4, err := h.RunFigure4(context.Background(), p)
	if err != nil {
		t.Fatalf("RunFigure4: %v", err)
	}
	buf.Reset()
	if err := WriteParetoCSV(&buf, fig4); err != nil {
		t.Fatalf("WriteParetoCSV: %v", err)
	}
	recs, err = csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("parse pareto csv: %v", err)
	}
	frontCount := 0
	for _, rec := range recs[1:] {
		if rec[3] == "true" {
			frontCount++
		}
	}
	if frontCount != len(fig4.Front) {
		t.Errorf("pareto csv marks %d front points, driver found %d", frontCount, len(fig4.Front))
	}

	buf.Reset()
	r8 := Figure8Result{Cells: []TransferCell{{
		TrainedOn: "a", EvaluatedOn: "b",
		Stats: RunStats{Runs: 2, FoundRuns: 2, PerRun: []RunValue{{Found: true, TTotal: 5, FTotal: 9}, {Found: true, TTotal: 7, FTotal: 11}}},
	}}}
	if err := WriteTransferCSV(&buf, r8); err != nil {
		t.Fatalf("WriteTransferCSV: %v", err)
	}
	recs, err = csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("parse transfer csv: %v", err)
	}
	if len(recs) != 2 || recs[1][2] != "6" {
		t.Errorf("transfer csv wrong: %v", recs)
	}
}

func TestRunCommRangeQuick(t *testing.T) {
	h := harness(t)
	p := smallParams()
	p.Assets = 3
	points, err := h.RunCommRange(context.Background(), p, []float64{0, 3})
	if err != nil {
		t.Fatalf("RunCommRange: %v", err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, pt := range points {
		if pt.Subject.NA {
			t.Errorf("range %v: N/A (%s)", pt.RangeFactor, pt.Subject.NAReason)
		}
	}
	if !strings.Contains(FormatCommRange(points), "unlimited") {
		t.Error("formatting wrong")
	}
}

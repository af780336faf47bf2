package mamorl_test

import (
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	mamorl "github.com/routeplanning/mamorl"
)

// sharedModel is trained once per test binary.
var sharedModel *mamorl.Model

func model(t *testing.T) *mamorl.Model {
	t.Helper()
	if sharedModel == nil {
		m, err := mamorl.Train(mamorl.TrainConfig{Seed: 7, SampleEpisodes: 3})
		if err != nil {
			t.Fatalf("Train: %v", err)
		}
		sharedModel = m
	}
	return sharedModel
}

func TestQuickstartFlow(t *testing.T) {
	g, err := mamorl.GenerateSyntheticGrid(mamorl.SyntheticConfig{
		Nodes: 200, Edges: 430, MaxOutDegree: 8, Seed: 1,
	})
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	sc, err := mamorl.NewScenario(g, 3, 1.2, 3, 3)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	res, err := mamorl.Run(sc, model(t).NewPlanner(1), mamorl.RunOptions{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Found {
		t.Fatalf("quickstart mission failed: %+v", res)
	}
	if res.Collisions != 0 {
		t.Errorf("collisions: %d", res.Collisions)
	}
}

func TestPartialKnowledgeFlow(t *testing.T) {
	g, err := mamorl.GenerateSyntheticGrid(mamorl.SyntheticConfig{
		Nodes: 200, Edges: 430, MaxOutDegree: 8, Seed: 2,
	})
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	sc, err := mamorl.NewScenario(g, 2, 1.2, 3, 3)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	d := g.Pos(sc.Dest)
	r := 3 * g.AvgEdgeWeight()
	region := mamorl.NewRect(
		mamorl.Point{X: d.X - r, Y: d.Y - r},
		mamorl.Point{X: d.X + r, Y: d.Y + r},
	)
	pk, err := model(t).NewPartialKnowledgePlanner(sc, region, 3)
	if err != nil {
		t.Fatalf("PK planner: %v", err)
	}
	res, err := mamorl.Run(sc, pk, mamorl.RunOptions{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Found {
		t.Fatalf("PK mission failed: %+v", res)
	}
}

// TestPlannerFor checks the facade's planner lookup: only the
// Approx-MaMoRL planners load a model, only Baseline-2 aborts on collision,
// and approx-pk plans as the partial-knowledge planner on the destination
// box does.
func TestPlannerFor(t *testing.T) {
	g, err := mamorl.GenerateSyntheticGrid(mamorl.SyntheticConfig{
		Nodes: 200, Edges: 430, MaxOutDegree: 8, Seed: 2,
	})
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	sc, err := mamorl.NewScenario(g, 2, 1.2, 3, 3)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	loads := 0
	load := func() (*mamorl.Model, error) { loads++; return model(t), nil }
	for _, name := range []string{"approx", "approx-pk", "baseline1", "baseline2", "random"} {
		before := loads
		if _, opts, err := mamorl.PlannerFor(name, sc, 3, load); err != nil {
			t.Errorf("%s: %v", name, err)
		} else if got, want := opts.Collision == mamorl.AbortOnCollision, name == "baseline2"; got != want {
			t.Errorf("%s: aborts on collision = %v, want %v", name, got, want)
		}
		if got, want := loads > before, name == "approx" || name == "approx-pk"; got != want {
			t.Errorf("%s: loaded a model = %v, want %v", name, got, want)
		}
	}
	if _, _, err := mamorl.PlannerFor("quantum", sc, 3, load); err == nil || err.Error() != `unknown algorithm "quantum"` {
		t.Errorf("unknown algorithm: err = %v", err)
	}

	pk, opts, err := mamorl.PlannerFor("approx-pk", sc, 3, load)
	if err != nil {
		t.Fatal(err)
	}
	d := g.Pos(sc.Dest)
	r := 3 * g.AvgEdgeWeight()
	want, err := model(t).NewPartialKnowledgePlanner(sc,
		mamorl.NewRect(mamorl.Point{X: d.X - r, Y: d.Y - r}, mamorl.Point{X: d.X + r, Y: d.Y + r}), 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mamorl.Run(sc, pk, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := mamorl.Run(sc, want, mamorl.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got != ref {
		t.Errorf("approx-pk via PlannerFor: %+v, want %+v", got, ref)
	}
}

func TestExactRefusesLargeInstance(t *testing.T) {
	g, err := mamorl.GenerateSyntheticGrid(mamorl.SyntheticConfig{
		Nodes: 400, Edges: 846, MaxOutDegree: 9, Seed: 3,
	})
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	sc, err := mamorl.NewScenario(g, 3, 1.2, 5, 3)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	_, err = mamorl.NewExactPlanner(sc, mamorl.ExactConfig{})
	if !errors.Is(err, mamorl.ErrMemoryBudget) {
		t.Fatalf("err = %v, want ErrMemoryBudget", err)
	}
	pb, qb := mamorl.ExactTableBytes(g, sc.Team)
	if pb <= 0 || qb <= float64(1<<40) {
		t.Errorf("table bytes: P=%v Q=%v (expected Q in the TB+ range)", pb, qb)
	}
}

func TestBaselinesViaFacade(t *testing.T) {
	g, err := mamorl.GenerateSyntheticGrid(mamorl.SyntheticConfig{
		Nodes: 120, Edges: 260, MaxOutDegree: 7, Seed: 4,
	})
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	sc, err := mamorl.NewScenario(g, 2, 1.2, 3, 3)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	for _, p := range []mamorl.Planner{
		mamorl.NewBaseline1(1), mamorl.NewRandomWalk(1),
	} {
		sc2 := sc
		sc2.MaxSteps = 50000
		res, err := mamorl.Run(sc2, p, mamorl.RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if !res.Found {
			t.Errorf("%s did not finish: %+v", p.Name(), res)
		}
	}
}

func TestShortestPathAndSpeeds(t *testing.T) {
	g, err := mamorl.GenerateSyntheticGrid(mamorl.SyntheticConfig{
		Nodes: 80, Edges: 170, MaxOutDegree: 7, Seed: 5,
	})
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	path, dist, err := mamorl.ShortestPath(g, 0, 79)
	if err != nil {
		t.Fatalf("ShortestPath: %v", err)
	}
	if len(path) < 2 || path[0] != 0 || path[len(path)-1] != 79 || dist <= 0 {
		t.Errorf("path %v dist %v", path, dist)
	}
	if s := mamorl.CruiseSpeed(2, 3); s != 2 {
		t.Errorf("CruiseSpeed = %d", s)
	}
	if r := mamorl.FuelRate(2); r < 4.27 || r > 4.28 {
		t.Errorf("FuelRate(2) = %v", r)
	}
}

func TestGridRoundTripViaFacade(t *testing.T) {
	g, err := mamorl.GenerateSyntheticGrid(mamorl.SyntheticConfig{
		Name: "roundtrip", Nodes: 40, Edges: 80, MaxOutDegree: 6, Seed: 6,
	})
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	path := t.TempDir() + "/g.json"
	if err := mamorl.SaveGrid(path, g); err != nil {
		t.Fatalf("SaveGrid: %v", err)
	}
	g2, err := mamorl.LoadGrid(path)
	if err != nil {
		t.Fatalf("LoadGrid: %v", err)
	}
	if g2.NumNodes() != 40 || g2.Name() != "roundtrip" {
		t.Errorf("roundtrip: %v", g2.Stats())
	}
}

func TestTMPLARServerViaFacade(t *testing.T) {
	srv, err := mamorl.NewTMPLARServer(11)
	if err != nil {
		t.Fatalf("NewTMPLARServer: %v", err)
	}
	g, err := mamorl.GenerateSyntheticGrid(mamorl.SyntheticConfig{
		Name: "area", Nodes: 100, Edges: 210, MaxOutDegree: 7, Seed: 7,
	})
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	srv.InstallGrid(g)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/api/grids")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 4096)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "area") {
		t.Errorf("grid listing: %s", buf[:n])
	}
}

func TestNeuralPlannerViaFacade(t *testing.T) {
	m := model(t)
	if err := m.FitNeural(mamorl.NeuralTrainOptions{Epochs: 50, BatchSize: 256, LearningRate: 0.05}, 1); err != nil {
		t.Fatalf("FitNeural: %v", err)
	}
	g, err := mamorl.GenerateSyntheticGrid(mamorl.SyntheticConfig{
		Nodes: 100, Edges: 210, MaxOutDegree: 7, Seed: 8,
	})
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	sc, err := mamorl.NewScenario(g, 2, 1.2, 3, 3)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	res, err := mamorl.Run(sc, m.NewNeuralPlanner(2), mamorl.RunOptions{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Found {
		t.Errorf("NN planner failed: %+v", res)
	}
	if m.ModelBytes() <= 0 {
		t.Error("ModelBytes should be positive")
	}
}

func TestNeuralPlannerPanicsWithoutFit(t *testing.T) {
	m, err := mamorl.Train(mamorl.TrainConfig{Seed: 19, SampleEpisodes: 2})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic without FitNeural")
		}
	}()
	m.NewNeuralPlanner(1)
}

func TestWeatherViaFacade(t *testing.T) {
	g, err := mamorl.GenerateSyntheticGrid(mamorl.SyntheticConfig{
		Nodes: 120, Edges: 260, MaxOutDegree: 7, Seed: 9,
	})
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	sc, err := mamorl.NewScenario(g, 2, 1.2, 3, 3)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	m := model(t)

	calm := sc
	calm.Weather = mamorl.CalmWeather{}
	rc, err := mamorl.Run(calm, m.NewPlanner(5), mamorl.RunOptions{})
	if err != nil {
		t.Fatalf("calm run: %v", err)
	}

	stormy := sc
	bounds := g.Bounds()
	stormy.Weather = mamorl.Storms{Cells: []mamorl.StormCell{{
		Center: bounds.Center(), Radius: bounds.Width(), Slowdown: 0.5,
	}}}
	rs, err := mamorl.Run(stormy, m.NewPlanner(5), mamorl.RunOptions{})
	if err != nil {
		t.Fatalf("stormy run: %v", err)
	}
	if !rc.Found || !rs.Found {
		t.Fatalf("missions failed: calm=%v stormy=%v", rc.Found, rs.Found)
	}
	// A basin-wide half-speed storm must cost clearly more time and fuel.
	if rs.TTotal <= rc.TTotal || rs.FTotal <= rc.FTotal {
		t.Errorf("storm should cost more: calm T=%.1f/F=%.1f vs stormy T=%.1f/F=%.1f",
			rc.TTotal, rc.FTotal, rs.TTotal, rs.FTotal)
	}
}

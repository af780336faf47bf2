package catalog

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/routeplanning/mamorl/internal/approx"
	"github.com/routeplanning/mamorl/internal/features"
	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/sim"
)

// fakeModel satisfies approx.Model without training; fine for every test
// that never runs Decide.
type fakeModel struct{ name string }

func (fakeModel) PredictTMM([]float64) float64 { return 0.5 }
func (fakeModel) PredictLM([]float64) float64  { return 0.5 }
func (fakeModel) Bytes() int                   { return 16 }
func (m fakeModel) Name() string               { return m.name }

func testGrid(t testing.TB, seed int64) *grid.Grid {
	t.Helper()
	g, err := grid.GenerateSynthetic(grid.SyntheticConfig{Nodes: 40, Edges: 80, MaxOutDegree: 6, Seed: seed})
	if err != nil {
		t.Fatalf("grid: %v", err)
	}
	return g
}

// countingLoader returns a ModelLoader that counts invocations and
// optionally sleeps to widen race windows.
func countingLoader(calls *atomic.Int64, delay time.Duration) ModelLoader {
	return func(_ context.Context, selector string) (*ModelArtifact, error) {
		calls.Add(1)
		if delay > 0 {
			time.Sleep(delay)
		}
		return &ModelArtifact{
			Model:  fakeModel{name: "fake:" + selector},
			Source: "fake",
		}, nil
	}
}

func TestSingleFlightDedup(t *testing.T) {
	var calls atomic.Int64
	c := New(Options{LoadModel: countingLoader(&calls, 30*time.Millisecond)})
	c.InstallGrid("alpha", testGrid(t, 1))

	const K = 32
	entries := make([]*Entry, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ent, err := c.Acquire(context.Background(), Key{Grid: "alpha"})
			if err != nil {
				t.Errorf("Acquire %d: %v", i, err)
				return
			}
			entries[i] = ent
		}(i)
	}
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("loader ran %d times for one cold key, want 1", got)
	}
	for i := 1; i < K; i++ {
		if entries[i] != entries[0] {
			t.Fatalf("waiter %d got a different entry", i)
		}
	}
	st := c.Stats()
	if st.Loads != 1 || st.Misses != K {
		t.Fatalf("stats loads=%d misses=%d, want loads=1 misses=%d", st.Loads, st.Misses, K)
	}
	for _, ent := range entries {
		ent.Release()
	}
	if entries[0].Closed() {
		t.Fatal("resident entry closed after releases")
	}
}

func TestAcquireUnknownGridAndModel(t *testing.T) {
	c := New(Options{LoadModel: func(_ context.Context, sel string) (*ModelArtifact, error) {
		return nil, &NotFoundError{Kind: "model", Name: sel}
	}})
	c.InstallGrid("alpha", testGrid(t, 1))

	_, err := c.Acquire(context.Background(), Key{Grid: "nope"})
	var nf *NotFoundError
	if !errors.As(err, &nf) || nf.Kind != "grid" {
		t.Fatalf("unknown grid: got %v, want grid NotFoundError", err)
	}
	_, err = c.Acquire(context.Background(), Key{Grid: "alpha", Model: "seed:404"})
	if !errors.As(err, &nf) || nf.Kind != "model" {
		t.Fatalf("unknown model: got %v, want model NotFoundError", err)
	}
	if st := c.Stats(); st.LoadErrors != 1 {
		t.Fatalf("load errors = %d, want 1", st.LoadErrors)
	}
}

// TestEvictedEntryStaysValidWhileInUse is the regression test for the
// eviction/in-use race: an entry evicted while a slow Decide holds a
// reference must stay fully usable until the last Release, and must close
// deterministically at that point.
func TestEvictedEntryStaysValidWhileInUse(t *testing.T) {
	var calls atomic.Int64
	c := New(Options{LoadModel: countingLoader(&calls, 0)})
	c.InstallGrid("slow", testGrid(t, 1))

	ent, err := c.Acquire(context.Background(), Key{Grid: "slow"})
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}

	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- ent.Do(context.Background(), 7, func(_ context.Context, p *approx.Planner) error {
			close(started)
			<-release // simulate a slow Decide
			if p == nil {
				return errors.New("planner gone")
			}
			return nil
		})
	}()
	<-started

	// Force eviction of the in-use entry by replacing its grid.
	c.InstallGrid("slow", testGrid(t, 2))
	if n := len(c.Snapshot().Entries); n != 0 {
		t.Fatalf("%d entries resident after grid replacement, want 0", n)
	}
	if ent.Closed() {
		t.Fatal("evicted entry closed while a Decide is in flight")
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("in-flight Do failed on evicted entry: %v", err)
	}
	if ent.Closed() {
		t.Fatal("entry closed before the holder released it")
	}
	ent.Release()
	if !ent.Closed() {
		t.Fatal("evicted entry did not close deterministically on last Release")
	}
	if err := ent.Do(context.Background(), 7, func(context.Context, *approx.Planner) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Do on closed entry: err = %v, want ErrClosed", err)
	}
}

func TestInstallGridReplacementEvicts(t *testing.T) {
	var calls atomic.Int64
	c := New(Options{LoadModel: countingLoader(&calls, 0)})
	c.InstallGrid("alpha", testGrid(t, 1))
	ent, err := c.Acquire(context.Background(), Key{Grid: "alpha"})
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	ent.Release()

	g2 := testGrid(t, 9)
	c.InstallGrid("alpha", g2)
	if n := len(c.Snapshot().Entries); n != 0 {
		t.Fatalf("%d entries resident after grid replacement, want 0", n)
	}
	ent2, err := c.Acquire(context.Background(), Key{Grid: "alpha"})
	if err != nil {
		t.Fatalf("re-Acquire: %v", err)
	}
	defer ent2.Release()
	if ent2.Grid() != g2 {
		t.Fatal("entry after replacement serves the stale grid")
	}
	if calls.Load() != 2 {
		t.Fatalf("loads = %d, want 2 (reload after replacement)", calls.Load())
	}
}

func TestAcquireContextCanceled(t *testing.T) {
	var calls atomic.Int64
	c := New(Options{LoadModel: countingLoader(&calls, 50*time.Millisecond)})
	c.InstallGrid("alpha", testGrid(t, 1))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Acquire(ctx, Key{Grid: "alpha"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The abandoned load still completes and stays resident for the next
	// caller, with a consistent refcount.
	ent, err := c.Acquire(context.Background(), Key{Grid: "alpha"})
	if err != nil {
		t.Fatalf("second Acquire: %v", err)
	}
	ent.Release()
	if calls.Load() != 1 {
		t.Fatalf("loads = %d, want 1 (canceled waiter joined in-flight load)", calls.Load())
	}
	if ent.Closed() {
		t.Fatal("resident entry closed")
	}
}

// trainedFixture is a real (model, extractor, scenario) triple for the
// batching determinism tests; built once because training dominates.
type trainedFixture struct {
	model *approx.LinearModel
	ext   features.Extractor
	g     *grid.Grid
	sc    sim.Scenario
}

var (
	fixtureOnce sync.Once
	fixture     trainedFixture
	fixtureErr  error
)

func trained(t *testing.T) trainedFixture {
	t.Helper()
	fixtureOnce.Do(func() {
		pipe, err := approx.NewPipeline(approx.TrainConfig{Seed: 11, SampleEpisodes: 3})
		if err != nil {
			fixtureErr = fmt.Errorf("pipeline: %w", err)
			return
		}
		model, _, err := approx.FitLinear(pipe.Data)
		if err != nil {
			fixtureErr = fmt.Errorf("fit: %w", err)
			return
		}
		g, err := grid.GenerateSynthetic(grid.SyntheticConfig{Nodes: 120, Edges: 260, MaxOutDegree: 7, Seed: 99})
		if err != nil {
			fixtureErr = fmt.Errorf("grid: %w", err)
			return
		}
		sc, err := approx.TrainingScenario(g, 2, 3, 1.2, 3)
		if err != nil {
			fixtureErr = fmt.Errorf("scenario: %w", err)
			return
		}
		fixture = trainedFixture{model: model, ext: pipe.Extractor, g: g, sc: sc}
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixture
}

func missionActions(t *testing.T, sc sim.Scenario, pl *approx.Planner) []sim.Action {
	t.Helper()
	var acts []sim.Action
	if _, err := sim.Run(sc, pl, sim.RunOptions{
		OnStep: func(_ *sim.Mission, step []sim.Action) { acts = append(acts, step...) },
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return acts
}

// TestBatchedMatchesUnbatched pins the determinism contract: missions run
// concurrently through Entry.Do, each on its own planner, are
// byte-identical to missions on fresh planners run one at a time.
func TestBatchedMatchesUnbatched(t *testing.T) {
	fx := trained(t)
	seeds := []int64{3, 5, 7, 9}

	want := make(map[int64][]sim.Action, len(seeds))
	for _, s := range seeds {
		want[s] = missionActions(t, fx.sc, approx.NewPlanner(fx.model, fx.ext, s))
	}

	c := New(Options{
		LoadModel: func(context.Context, string) (*ModelArtifact, error) {
			return &ModelArtifact{Model: fx.model, Ext: fx.ext, Source: "test"}, nil
		},
	})
	c.InstallGrid("g", fx.g)

	got := make(map[int64][]sim.Action, len(seeds))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, s := range seeds {
		wg.Add(1)
		go func(s int64) {
			defer wg.Done()
			ent, err := c.Acquire(context.Background(), Key{Grid: "g"})
			if err != nil {
				t.Errorf("Acquire: %v", err)
				return
			}
			defer ent.Release()
			err = ent.Do(context.Background(), s, func(_ context.Context, p *approx.Planner) error {
				acts := missionActions(t, fx.sc, p)
				mu.Lock()
				got[s] = acts
				mu.Unlock()
				return nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
		}(s)
	}
	wg.Wait()

	for _, s := range seeds {
		if len(got[s]) != len(want[s]) {
			t.Fatalf("seed %d: %d actions, want %d", s, len(got[s]), len(want[s]))
		}
		for i := range want[s] {
			if got[s][i] != want[s][i] {
				t.Fatalf("seed %d action %d: concurrent %+v != fresh %+v", s, i, got[s][i], want[s][i])
			}
		}
	}
}

// acquireAlpha returns a catalog with one grid and a held entry for it.
func acquireAlpha(t *testing.T) (*Catalog, *Entry) {
	t.Helper()
	var calls atomic.Int64
	c := New(Options{LoadModel: countingLoader(&calls, 0)})
	c.InstallGrid("alpha", testGrid(t, 1))
	ent, err := c.Acquire(context.Background(), Key{Grid: "alpha"})
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	return c, ent
}

// TestDoRunsConcurrently: two Do calls on one entry overlap, each with its
// own planner. fn A waits until fn B has started, with a timeout so that Do
// calls run one at a time fail the test instead of hanging it.
func TestDoRunsConcurrently(t *testing.T) {
	_, ent := acquireAlpha(t)
	defer ent.Release()

	aStarted := make(chan *approx.Planner, 1)
	bStarted := make(chan struct{})
	errA := make(chan error, 1)
	go func() {
		errA <- ent.Do(context.Background(), 1, func(_ context.Context, p *approx.Planner) error {
			aStarted <- p
			select {
			case <-bStarted:
				return nil
			case <-time.After(5 * time.Second):
				return errors.New("fn B did not start while fn A ran")
			}
		})
	}()
	pa := <-aStarted
	var pb *approx.Planner
	if err := ent.Do(context.Background(), 2, func(_ context.Context, p *approx.Planner) error {
		pb = p
		close(bStarted)
		return nil
	}); err != nil {
		t.Fatalf("Do B: %v", err)
	}
	if err := <-errA; err != nil {
		t.Fatal(err)
	}
	if pa == pb {
		t.Fatalf("Do calls shared a planner (%p, %p), want one each", pa, pb)
	}
}

// TestDoPanicReachesCaller: a panic inside fn unwinds into the caller's
// deferred recover (where tmplar's instrument and the job queue's
// runSafely sit), and the entry keeps serving with consistent refs.
func TestDoPanicReachesCaller(t *testing.T) {
	c, ent := acquireAlpha(t)

	got := func() (v any) {
		defer func() { v = recover() }()
		_ = ent.Do(context.Background(), 1, func(context.Context, *approx.Planner) error {
			panic("planner bug")
		})
		return nil
	}()
	if got != "planner bug" {
		t.Fatalf("recovered %v, want the planner's panic", got)
	}
	ran := false
	if err := ent.Do(context.Background(), 2, func(context.Context, *approx.Planner) error {
		ran = true
		return nil
	}); err != nil || !ran {
		t.Fatalf("Do after a panic: err=%v ran=%v, want nil and true", err, ran)
	}
	if refs := c.Snapshot().Entries[0].Refs; refs != 1 {
		t.Fatalf("refs = %d while held, want 1", refs)
	}
	ent.Release()
	if refs := c.Snapshot().Entries[0].Refs; refs != 0 {
		t.Fatalf("refs = %d after Release, want 0", refs)
	}
	if ent.Closed() {
		t.Fatal("resident entry closed after a panic")
	}
}

// TestDoDoneContext: a Do whose context is already done returns ctx.Err()
// and never runs fn.
func TestDoDoneContext(t *testing.T) {
	_, ent := acquireAlpha(t)
	defer ent.Release()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := ent.Do(ctx, 1, func(context.Context, *approx.Planner) error {
		t.Error("fn ran under a done context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Do under a canceled context: err = %v, want context.Canceled", err)
	}
}

func TestSnapshotShape(t *testing.T) {
	var calls atomic.Int64
	c := New(Options{LoadModel: countingLoader(&calls, 0)})
	c.InstallGrid("alpha", testGrid(t, 1))
	ent, err := c.Acquire(context.Background(), Key{Grid: "alpha", Model: "seed:5"})
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	defer ent.Release()

	snap := c.Snapshot()
	if len(snap.Grids) != 1 || snap.Grids[0] != "alpha" {
		t.Fatalf("snapshot header wrong: %+v", snap)
	}
	if len(snap.Entries) != 1 {
		t.Fatalf("entries = %d, want 1", len(snap.Entries))
	}
	e := snap.Entries[0]
	if e.Grid != "alpha" || e.Model != "seed:5" || e.Refs != 1 || e.Source != "fake" {
		t.Fatalf("entry snapshot wrong: %+v", e)
	}
}

func TestCloseRejectsAcquire(t *testing.T) {
	var calls atomic.Int64
	c := New(Options{LoadModel: countingLoader(&calls, 0)})
	c.InstallGrid("alpha", testGrid(t, 1))
	ent, err := c.Acquire(context.Background(), Key{Grid: "alpha"})
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	c.Close()
	if _, err := c.Acquire(context.Background(), Key{Grid: "alpha"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Acquire after Close: %v, want ErrClosed", err)
	}
	if ent.Closed() {
		t.Fatal("held entry closed by Close before release")
	}
	ent.Release()
	if !ent.Closed() {
		t.Fatal("entry not closed after Close + final Release")
	}
}

package experiments

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/neural"
)

// --- executor primitives -----------------------------------------------------

func TestRunIndexedFixedSlotsAndBudget(t *testing.T) {
	lim := limiterFor(Params{Parallel: 3})
	var cur, peak atomic.Int32
	out := runIndexed(lim, 40, func(i int) int {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		defer cur.Add(-1)
		return i * i
	})
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d (fixed-slot writes broken)", i, v, i*i)
		}
	}
	if p := peak.Load(); p > 3 {
		t.Errorf("peak concurrency %d exceeds budget 3", p)
	}
}

func TestRunIndexedSerialWhenNil(t *testing.T) {
	var order []int
	out := runIndexed(nil, 5, func(i int) int {
		order = append(order, i) // safe: nil limiter means the calling goroutine
		return i + 1
	})
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4}) {
		t.Errorf("serial path ran out of order: %v", order)
	}
	if !reflect.DeepEqual(out, []int{1, 2, 3, 4, 5}) {
		t.Errorf("results wrong: %v", out)
	}
}

func TestFanIndexedDoesNotConsumeBudget(t *testing.T) {
	// 8 coordination cells over a budget of 2: if cells took tokens, the
	// coordinators would hold both tokens and their leaf runs would
	// deadlock. Completion of this test is the assertion.
	lim := limiterFor(Params{Parallel: 2})
	cells, err := fanIndexed(lim, 8, func(c int) ([]int, error) {
		return runIndexed(lim, 4, func(i int) int { return c*10 + i }), nil
	})
	if err != nil {
		t.Fatalf("fanIndexed: %v", err)
	}
	for c, rs := range cells {
		for i, v := range rs {
			if v != c*10+i {
				t.Fatalf("cell %d item %d = %d", c, i, v)
			}
		}
	}
}

func TestFanIndexedReturnsFirstErrorInCellOrder(t *testing.T) {
	for _, parallel := range []int{1, 4} {
		lim := limiterFor(Params{Parallel: parallel})
		var ran atomic.Int32
		out, err := fanIndexed(lim, 8, func(c int) (int, error) {
			ran.Add(1)
			if c == 2 || c == 5 {
				return 0, fmt.Errorf("cell %d failed", c)
			}
			return c, nil
		})
		if err == nil || err.Error() != "cell 2 failed" {
			t.Errorf("parallel %d: err = %v, want cell 2's error", parallel, err)
		}
		if out != nil {
			t.Errorf("parallel %d: results %v returned alongside the error", parallel, out)
		}
		if n := ran.Load(); n != 8 {
			t.Errorf("parallel %d: %d of 8 cells ran", parallel, n)
		}
	}
}

// --- parallel-vs-serial determinism -----------------------------------------
//
// The seed-pairing contract requires PerRun[i] to be a pure function of
// (Params, i): the same bytes whether runs execute serially or race across
// 8 goroutines. Every parallelized driver is pinned here.

// fingerprint strips wall-clock fields, the only legitimately
// nondeterministic part of RunStats.
func fingerprint(rs RunStats) RunStats {
	rs.CPUTime = 0
	return rs
}

func requireSameStats(t *testing.T, label string, serial, parallel RunStats) {
	t.Helper()
	if !reflect.DeepEqual(fingerprint(serial), fingerprint(parallel)) {
		t.Errorf("%s: parallel result diverges from serial\nserial:   %+v\nparallel: %+v",
			label, fingerprint(serial), fingerprint(parallel))
	}
}

func TestEvaluateParallelDeterminism(t *testing.T) {
	h := harness(t)
	p := smallParams()
	p.Runs = 3
	p.Episodes = 2 // keep the exact-MaMoRL cells cheap
	for _, algo := range AllAlgorithms {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			ps := p
			ps.Parallel = 1
			serial, err := h.Evaluate(context.Background(), algo, ps)
			if err != nil {
				t.Fatalf("serial Evaluate: %v", err)
			}
			pp := p
			pp.Parallel = 8
			parallel, err := h.Evaluate(context.Background(), algo, pp)
			if err != nil {
				t.Fatalf("parallel Evaluate: %v", err)
			}
			requireSameStats(t, algo, serial, parallel)
			if len(parallel.PerRun) != p.Runs {
				t.Fatalf("PerRun length %d, want %d", len(parallel.PerRun), p.Runs)
			}
			for i, rv := range parallel.PerRun {
				if rv.Seed != runSeed(p, i) {
					t.Errorf("PerRun[%d].Seed = %d, want runSeed = %d", i, rv.Seed, runSeed(p, i))
				}
			}
		})
	}
}

func TestTable6ParallelDeterminism(t *testing.T) {
	h := harness(t)
	base := smallParams()
	base.Runs = 2
	base.Episodes = 2
	scenarios := []Table6Scenario{{Label: "tiny", Params: base}}

	serial, err := h.runTable6(context.Background(), scenarios, nil)
	if err != nil {
		t.Fatalf("serial runTable6: %v", err)
	}
	parallel, err := h.runTable6(context.Background(), scenarios, limiterFor(Params{Parallel: 8}))
	if err != nil {
		t.Fatalf("parallel runTable6: %v", err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("row counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].Scenario != parallel[i].Scenario || serial[i].Algorithm != parallel[i].Algorithm {
			t.Fatalf("row %d order differs: %s/%s vs %s/%s", i,
				serial[i].Scenario, serial[i].Algorithm, parallel[i].Scenario, parallel[i].Algorithm)
		}
		requireSameStats(t, serial[i].Algorithm, serial[i].Stats, parallel[i].Stats)
	}
}

func TestFigure3ParallelDeterminism(t *testing.T) {
	h := harness(t)
	p := smallParams()
	p.Runs = 2
	nn := neural.TrainOptions{Epochs: 20, BatchSize: 128, LearningRate: 0.05}

	ps := p
	ps.Parallel = 1
	serial, err := h.RunFigure3(context.Background(), ps, nn, 5)
	if err != nil {
		t.Fatalf("serial RunFigure3: %v", err)
	}
	pp := p
	pp.Parallel = 8
	parallel, err := h.RunFigure3(context.Background(), pp, nn, 5)
	if err != nil {
		t.Fatalf("parallel RunFigure3: %v", err)
	}
	requireSameStats(t, "linear", serial.Linear, parallel.Linear)
	requireSameStats(t, "neural", serial.Neural, parallel.Neural)
	// The NN cells must ride the shared seed schedule, not a private one.
	for i, rv := range parallel.Neural.PerRun {
		if rv.Seed != runSeed(p, i) {
			t.Errorf("neural PerRun[%d].Seed = %d, want %d", i, rv.Seed, runSeed(p, i))
		}
	}
}

func TestFigure4ParallelDeterminism(t *testing.T) {
	h := harness(t)
	p := smallParams()
	p.Runs = 2

	ps := p
	ps.Parallel = 1
	serial, err := h.RunFigure4(context.Background(), ps)
	if err != nil {
		t.Fatalf("serial RunFigure4: %v", err)
	}
	pp := p
	pp.Parallel = 8
	parallel, err := h.RunFigure4(context.Background(), pp)
	if err != nil {
		t.Fatalf("parallel RunFigure4: %v", err)
	}
	if !reflect.DeepEqual(serial.Points, parallel.Points) {
		t.Error("figure 4 point sets diverge between serial and parallel")
	}
	if !reflect.DeepEqual(serial.Front, parallel.Front) {
		t.Error("figure 4 Pareto front diverges between serial and parallel")
	}
}

func TestSweepPointParallelDeterminism(t *testing.T) {
	h := harness(t)
	p := smallParams()
	p.Runs = 2

	serial, err := h.sweepPoint(context.Background(), AlgoApprox, p, p.Nodes, nil)
	if err != nil {
		t.Fatalf("serial sweepPoint: %v", err)
	}
	parallel, err := h.sweepPoint(context.Background(), AlgoApprox, p, p.Nodes, limiterFor(Params{Parallel: 8}))
	if err != nil {
		t.Fatalf("parallel sweepPoint: %v", err)
	}
	requireSameStats(t, "subject", serial.Subject, parallel.Subject)
	requireSameStats(t, "baseline-1", serial.B1, parallel.B1)
	requireSameStats(t, "random-walk", serial.RW, parallel.RW)
	if serial.RITimeVsB1 != parallel.RITimeVsB1 || serial.SignificantVsB1 != parallel.SignificantVsB1 {
		t.Error("derived sweep metrics diverge between serial and parallel")
	}
}

func TestCommRangeParallelDeterminism(t *testing.T) {
	h := harness(t)
	p := smallParams()
	p.Runs = 2
	factors := []float64{0, 3}

	ps := p
	ps.Parallel = 1
	serial, err := h.RunCommRange(context.Background(), ps, factors)
	if err != nil {
		t.Fatalf("serial RunCommRange: %v", err)
	}
	pp := p
	pp.Parallel = 8
	parallel, err := h.RunCommRange(context.Background(), pp, factors)
	if err != nil {
		t.Fatalf("parallel RunCommRange: %v", err)
	}
	for i := range serial {
		if serial[i].RangeFactor != parallel[i].RangeFactor {
			t.Fatalf("point %d factor order differs", i)
		}
		requireSameStats(t, "comm-range", serial[i].Subject, parallel[i].Subject)
	}
}

func TestAblationParallelDeterminism(t *testing.T) {
	h := harness(t)
	p := smallParams()
	p.Runs = 2

	ps := p
	ps.Parallel = 1
	serial, err := h.RunAblation(context.Background(), ps)
	if err != nil {
		t.Fatalf("serial RunAblation: %v", err)
	}
	pp := p
	pp.Parallel = 8
	parallel, err := h.RunAblation(context.Background(), pp)
	if err != nil {
		t.Fatalf("parallel RunAblation: %v", err)
	}
	for i := range serial {
		if serial[i].Variant != parallel[i].Variant {
			t.Fatalf("variant %d order differs", i)
		}
		requireSameStats(t, "ablation "+serial[i].Variant, serial[i].Stats, parallel[i].Stats)
	}
}

func TestRendezvousParallelDeterminism(t *testing.T) {
	h := harness(t)
	p := smallParams()
	p.Runs = 2

	ps := p
	ps.Parallel = 1
	serial, err := h.RunRendezvous(context.Background(), ps)
	if err != nil {
		t.Fatalf("serial RunRendezvous: %v", err)
	}
	pp := p
	pp.Parallel = 8
	parallel, err := h.RunRendezvous(context.Background(), pp)
	if err != nil {
		t.Fatalf("parallel RunRendezvous: %v", err)
	}
	for i := range serial {
		if serial[i].MeanDiscoveryFrac != parallel[i].MeanDiscoveryFrac {
			t.Errorf("%s discovery fraction diverges", serial[i].Algorithm)
		}
		requireSameStats(t, serial[i].Algorithm, serial[i].Stats, parallel[i].Stats)
	}
}

func TestFigure8ParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("mesh construction is slow; skipped with -short")
	}
	carib, err := grid.CaribbeanGrid(5)
	if err != nil {
		t.Fatalf("CaribbeanGrid: %v", err)
	}
	partner, err := grid.GenerateOceanMesh(grid.OceanMeshConfig{
		Name: "mini-shore", Region: carib.Bounds(), Nodes: 500, Edges: 1150, MaxOutDegree: 6, Seed: 9,
	})
	if err != nil {
		t.Fatalf("partner mesh: %v", err)
	}
	serial, err := RunFigure8(context.Background(), carib, partner, Figure8Options{Runs: 2, Seed: 7})
	if err != nil {
		t.Fatalf("serial RunFigure8: %v", err)
	}
	parallel, err := RunFigure8(context.Background(), carib, partner, Figure8Options{Runs: 2, Seed: 7, Parallel: 8})
	if err != nil {
		t.Fatalf("parallel RunFigure8: %v", err)
	}
	for i := range serial.Cells {
		s, q := serial.Cells[i], parallel.Cells[i]
		if s.TrainedOn != q.TrainedOn || s.EvaluatedOn != q.EvaluatedOn {
			t.Fatalf("cell %d order differs", i)
		}
		requireSameStats(t, s.TrainedOn+"->"+s.EvaluatedOn, s.Stats, q.Stats)
	}
}

// --- cancellation ------------------------------------------------------------

func TestEvaluateParallelCancellation(t *testing.T) {
	h := harness(t)
	p := smallParams()
	p.Parallel = 4
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := h.Evaluate(ctx, AlgoApprox, p)
	if err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("cancelled parallel Evaluate returned %v, want context.Canceled", err)
	}
}

package experiments

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"github.com/routeplanning/mamorl/internal/sim"
)

// mkStats builds a RunStats whose PerRun marks exactly the given run
// indices as found, with TTotal = 10*index + base so values identify their
// run.
func mkStats(runs int, base float64, found ...int) RunStats {
	isFound := map[int]bool{}
	for _, i := range found {
		isFound[i] = true
	}
	rs := RunStats{Runs: runs, PerRun: make([]RunValue, runs)}
	for i := 0; i < runs; i++ {
		rs.PerRun[i] = RunValue{Seed: int64(i)}
		if isFound[i] {
			v := base + 10*float64(i)
			rs.PerRun[i].Found = true
			rs.PerRun[i].TTotal = v
			rs.PerRun[i].FTotal = v * 2
			rs.FoundRuns++
		}
	}
	return rs
}

// foundT lists the T_total of rs's found runs in run order: what a naive
// zip of two algorithms' found runs would pair.
func foundT(rs RunStats) []float64 {
	var out []float64
	for _, v := range rs.PerRun {
		if v.Found {
			out = append(out, v.TTotal)
		}
	}
	return out
}

func TestPairedObjectivesIntersectsRunIndices(t *testing.T) {
	// The regression this guards: algorithm A fails on run 1, algorithm B
	// fails on run 3. Both found 3 runs, so an "equal found counts" guard
	// would have zipped them — pairing A's run 2 with B's run 1 and A's
	// run 3 with B's run 2, i.e. samples from different seeds. The
	// seed-aligned pairing keeps only runs 0 and 2.
	a := mkStats(4, 100, 0, 2, 3)
	b := mkStats(4, 200, 0, 1, 2)
	if a.FoundRuns != b.FoundRuns {
		t.Fatal("fixture must reproduce the equal-length trap")
	}

	aT, bT, aF, bF := PairedObjectives(a, b)
	if len(aT) != 2 || len(bT) != 2 {
		t.Fatalf("paired %d samples, want 2 (runs 0 and 2)", len(aT))
	}
	wantA := []float64{100, 120}
	wantB := []float64{200, 220}
	for i := range aT {
		if aT[i] != wantA[i] || bT[i] != wantB[i] {
			t.Errorf("pair %d = (%v, %v), want (%v, %v)", i, aT[i], bT[i], wantA[i], wantB[i])
		}
		if aF[i] != 2*wantA[i] || bF[i] != 2*wantB[i] {
			t.Errorf("fuel pair %d = (%v, %v)", i, aF[i], bF[i])
		}
	}

	// The naive zip of the found-only arrays would have produced a
	// different (wrong) second pair; make the distinction explicit.
	if foundT(a)[1] == aT[1] && foundT(b)[1] == bT[1] {
		t.Error("pairing degenerated to zipping the found-only arrays")
	}
}

func TestPairedObjectivesUnequalRuns(t *testing.T) {
	a := mkStats(2, 100, 0, 1)
	b := mkStats(5, 200, 0, 1, 2, 3, 4)
	aT, bT, _, _ := PairedObjectives(a, b)
	if len(aT) != 2 || len(bT) != 2 {
		t.Fatalf("paired %d samples across unequal Runs, want 2", len(aT))
	}
}

func TestPairedTTestTRequiresTwoPairs(t *testing.T) {
	// One overlapping run: the test is undefined and must be skipped.
	a := mkStats(3, 100, 0, 1)
	b := mkStats(3, 200, 1, 2)
	if _, ok := PairedTTestT(a, b); ok {
		t.Error("t-test reported ok with a single paired sample")
	}
	// No PerRun at all (a zero RunStats, e.g. an N/A algorithm).
	if _, ok := PairedTTestT(RunStats{}, mkStats(3, 1, 0, 1, 2)); ok {
		t.Error("t-test reported ok without PerRun records")
	}
	// Three overlapping runs with distinct differences: valid.
	c := mkStats(4, 100, 0, 1, 2)
	d := mkStats(4, 205, 0, 1, 2)
	d.PerRun[1].TTotal += 3 // break constant differences (zero variance)
	if _, ok := PairedTTestT(c, d); !ok {
		t.Error("t-test skipped despite three aligned pairs")
	}
}

func TestEvaluatePerRunSeedAlignment(t *testing.T) {
	h := harness(t)
	p := smallParams()

	serial, err := h.Evaluate(context.Background(), AlgoApprox, p)
	if err != nil {
		t.Fatalf("serial Evaluate: %v", err)
	}
	if len(serial.PerRun) != p.Runs {
		t.Fatalf("PerRun length %d, want %d", len(serial.PerRun), p.Runs)
	}
	for i, rv := range serial.PerRun {
		if rv.Seed != runSeed(p, i) {
			t.Errorf("PerRun[%d].Seed = %d, want %d", i, rv.Seed, runSeed(p, i))
		}
		if rv.Found && rv.TTotal <= 0 {
			t.Errorf("PerRun[%d] found with TTotal %v", i, rv.TTotal)
		}
	}
	if found := 0; true {
		for _, rv := range serial.PerRun {
			if rv.Found {
				found++
			}
		}
		if found != serial.FoundRuns {
			t.Errorf("PerRun found count %d != FoundRuns %d", found, serial.FoundRuns)
		}
	}

	// Parallel evaluation must land every outcome at the same run index,
	// regardless of completion order.
	pp := p
	pp.Parallel = 4
	parallel, err := h.Evaluate(context.Background(), AlgoApprox, pp)
	if err != nil {
		t.Fatalf("parallel Evaluate: %v", err)
	}
	if len(parallel.PerRun) != len(serial.PerRun) {
		t.Fatalf("parallel PerRun length %d", len(parallel.PerRun))
	}
	for i := range serial.PerRun {
		if serial.PerRun[i] != parallel.PerRun[i] {
			t.Errorf("run %d diverges: serial %+v, parallel %+v",
				i, serial.PerRun[i], parallel.PerRun[i])
		}
	}
}

func TestEvaluateCancellation(t *testing.T) {
	h := harness(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := h.Evaluate(ctx, AlgoApprox, smallParams())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCollectStatsContract pins the one fold every driver shares: each
// PerRun entry carries its run's seed, objective values come only from
// runs that found the destination without a collision abort (an unfound
// run keeps zero T and F), and NA names why nothing was found.
func TestCollectStatsContract(t *testing.T) {
	outs := []runOutcome{
		{seed: 10, res: sim.Result{Found: true, TTotal: 5, FTotal: 50}},
		{seed: 11, res: sim.Result{TTotal: 9, FTotal: 90}}, // timed out
		{seed: 12, res: sim.Result{Found: true, Aborted: true, Collisions: 1, TTotal: 7, FTotal: 70}},
		{seed: 13, res: sim.Result{Found: true, Collisions: 2, TTotal: 6, FTotal: 60}},
	}
	rs, err := collectStats("x", outs)
	if err != nil {
		t.Fatal(err)
	}
	want := RunStats{
		Algorithm: "x", Runs: 4,
		PerRun: []RunValue{
			{Seed: 10, Found: true, TTotal: 5, FTotal: 50},
			{Seed: 11}, {Seed: 12},
			{Seed: 13, Found: true, TTotal: 6, FTotal: 60},
		},
		FoundRuns: 2, CollidedRuns: 2, AbortedRuns: 1,
	}
	if !reflect.DeepEqual(rs, want) {
		t.Fatalf("fold:\n got %+v\nwant %+v", rs, want)
	}
	if rs.MeanT() != 5.5 || rs.MeanF() != 55 {
		t.Fatalf("means over the found runs: T %v F %v, want 5.5 and 55", rs.MeanT(), rs.MeanF())
	}

	rs, err = collectStats("x", outs[1:3])
	if err != nil {
		t.Fatal(err)
	}
	if !rs.NA || rs.NAReason != "collisions aborted 1/2 runs, rest timed out" || rs.FoundRuns != 0 || rs.MeanT() != 0 {
		t.Fatalf("no found run: NA=%v reason=%q found=%d meanT=%v", rs.NA, rs.NAReason, rs.FoundRuns, rs.MeanT())
	}
}

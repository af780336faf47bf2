package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func reportFixture(ns map[string]float64, allocs map[string]float64) Report {
	var rep Report
	for name, v := range ns {
		b := Benchmark{Name: name, Iterations: 100, Metrics: map[string]float64{"ns/op": v}}
		if a, ok := allocs[name]; ok {
			b.Metrics["allocs/op"] = a
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	return rep
}

func TestCompareReports(t *testing.T) {
	oldRep := reportFixture(
		map[string]float64{"Plan": 1000, "Train": 500, "Gone": 10},
		map[string]float64{"Plan": 10},
	)
	newRep := reportFixture(
		map[string]float64{"Plan": 1300, "Train": 450, "Fresh": 5},
		map[string]float64{"Plan": 12},
	)
	deltas := compareReports(oldRep, newRep)
	if len(deltas) != 2 {
		t.Fatalf("deltas = %d, want 2 (Gone and Fresh have no counterpart)", len(deltas))
	}
	// Name-sorted: Plan then Train.
	if deltas[0].Name != "Plan" || deltas[1].Name != "Train" {
		t.Fatalf("order: %s, %s", deltas[0].Name, deltas[1].Name)
	}
	if got := deltas[0].NsDeltaPct; got < 29.9 || got > 30.1 {
		t.Errorf("Plan Δns = %v%%, want ~+30%%", got)
	}
	if got := deltas[0].AllocsPct; got < 19.9 || got > 20.1 {
		t.Errorf("Plan Δallocs = %v%%, want ~+20%%", got)
	}
	if got := deltas[1].NsDeltaPct; got > -9.9 || got < -10.1 {
		t.Errorf("Train Δns = %v%%, want ~-10%%", got)
	}

	if n := countRegressions(deltas, 15); n != 1 {
		t.Errorf("regressions at 15%% = %d, want 1 (only Plan)", n)
	}
	if n := countRegressions(deltas, 50); n != 0 {
		t.Errorf("regressions at 50%% = %d, want 0", n)
	}
	// Alloc growth alone never trips the gate.
	allocOnly := compareReports(
		reportFixture(map[string]float64{"X": 100}, map[string]float64{"X": 1}),
		reportFixture(map[string]float64{"X": 100}, map[string]float64{"X": 5}),
	)
	if n := countRegressions(allocOnly, 15); n != 0 {
		t.Errorf("alloc-only change tripped the ns/op gate: %d", n)
	}
}

func TestPct(t *testing.T) {
	if got := pct(100, 130); got != 30 {
		t.Errorf("pct(100,130) = %v", got)
	}
	if got := pct(0, 5); got != 0 {
		t.Errorf("pct from zero = %v, want 0 (no meaningful ratio)", got)
	}
}

func writeReport(t *testing.T, dir, name string, rep Report) string {
	t.Helper()
	path := filepath.Join(dir, name)
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunCompare(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeReport(t, dir, "old.json", reportFixture(
		map[string]float64{"Plan": 1000}, map[string]float64{"Plan": 3}))
	newPath := writeReport(t, dir, "new.json", reportFixture(
		map[string]float64{"Plan": 1300}, map[string]float64{"Plan": 3}))

	var out strings.Builder
	n, err := runCompare(&out, oldPath, newPath, 15)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("regressions = %d, want 1", n)
	}
	if !strings.Contains(out.String(), "Plan") || !strings.Contains(out.String(), "+30.0%") {
		t.Errorf("table output:\n%s", out.String())
	}

	// A generous threshold passes the same pair.
	out.Reset()
	if n, err := runCompare(&out, oldPath, newPath, 50); err != nil || n != 0 {
		t.Errorf("threshold 50: n=%d err=%v", n, err)
	}

	// Missing file surfaces as an error, not a panic.
	if _, err := runCompare(&out, filepath.Join(dir, "absent.json"), newPath, 15); err == nil {
		t.Error("missing old report not rejected")
	}
	// Disjoint reports: no common benchmarks, no regressions.
	otherPath := writeReport(t, dir, "other.json", reportFixture(map[string]float64{"Else": 1}, nil))
	out.Reset()
	if n, err := runCompare(&out, oldPath, otherPath, 15); err != nil || n != 0 {
		t.Errorf("disjoint: n=%d err=%v", n, err)
	}
	if !strings.Contains(out.String(), "no common benchmarks") {
		t.Errorf("disjoint output: %s", out.String())
	}
}

// TestFoldRepeats folds the lines `go test -count=5` prints for one
// benchmark into a single entry with each metric's median, min and max,
// keeps a benchmark seen once as it was, and keeps first-appearance order.
func TestFoldRepeats(t *testing.T) {
	lines := []string{
		"BenchmarkTrain-2   16   67937102 ns/op   4879467 B/op   12226 allocs/op",
		"BenchmarkOnce-2   100   500 ns/op",
		"BenchmarkTrain-2   19   62242521 ns/op   4889719 B/op   12227 allocs/op",
		"BenchmarkTrain-2   18   50000000 ns/op   4889710 B/op   12226 allocs/op",
		"BenchmarkTrain-2   18   70000000 ns/op   4889710 B/op   12228 allocs/op",
		"BenchmarkTrain-2   17   64000000 ns/op   4889700 B/op   12226 allocs/op",
		"BenchmarkTrain-4   30   33000000 ns/op   4889700 B/op   12226 allocs/op",
	}
	var bs []Benchmark
	for _, l := range lines {
		b, ok := parseLine(l)
		if !ok {
			t.Fatalf("unparsed: %q", l)
		}
		bs = append(bs, b)
	}
	got := foldRepeats(bs)
	if len(got) != 3 || got[0].Name != "Train" || got[0].Procs != 2 || got[1].Name != "Once" || got[2].Procs != 4 {
		t.Fatalf("folded entries: %+v", got)
	}
	train := got[0]
	if train.Runs != 5 || train.Iterations != 88 {
		t.Errorf("Train runs=%d iterations=%d, want 5 and 88", train.Runs, train.Iterations)
	}
	if m := train.Metrics["ns/op"]; m != 64000000 {
		t.Errorf("median ns/op = %v, want 64000000", m)
	}
	if lo, hi := train.Min["ns/op"], train.Max["ns/op"]; lo != 50000000 || hi != 70000000 {
		t.Errorf("ns/op range = [%v, %v], want [50000000, 70000000]", lo, hi)
	}
	if m := train.Metrics["allocs/op"]; m != 12226 {
		t.Errorf("median allocs/op = %v, want 12226", m)
	}
	if once := got[1]; once.Runs != 0 || once.Min != nil || once.Metrics["ns/op"] != 500 {
		t.Errorf("a single run changed in the fold: %+v", once)
	}
	if m := median([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Errorf("even-count median = %v, want 2.5", m)
	}
}

// foldedFixture is a report of one benchmark folded from repeats with the
// given ns/op median and range.
func foldedFixture(name string, med, lo, hi float64) Report {
	return Report{Benchmarks: []Benchmark{{
		Name: name, Iterations: 50, Runs: 5,
		Metrics: map[string]float64{"ns/op": med},
		Min:     map[string]float64{"ns/op": lo},
		Max:     map[string]float64{"ns/op": hi},
	}}}
}

// TestCompareSpread: a median ns/op rise past the threshold regresses only
// when it also exceeds the larger of the two sides' max − min.
func TestCompareSpread(t *testing.T) {
	// +20% against a 30% swing on the old side: noise.
	noisy := compareReports(foldedFixture("Train", 100, 85, 115), foldedFixture("Train", 120, 110, 125))
	if n := countRegressions(noisy, 15); n != 0 {
		t.Errorf("a rise within the old side's spread regressed: %+v", noisy)
	}
	if noisy[0].NsSpread != 30 {
		t.Errorf("spread = %v, want 30 (the old side's, the larger)", noisy[0].NsSpread)
	}
	// +20% against swings of 5 and 8: a regression.
	steady := compareReports(foldedFixture("Train", 100, 97, 102), foldedFixture("Train", 120, 115, 123))
	if n := countRegressions(steady, 15); n != 1 {
		t.Errorf("a rise beyond both spreads did not regress: %+v", steady)
	}
	// Beyond the spread but within the threshold: no regression either.
	if n := countRegressions(steady, 25); n != 0 {
		t.Errorf("a rise within the threshold regressed: %+v", steady)
	}
	var out strings.Builder
	writeCompare(&out, noisy, 15)
	if !strings.Contains(out.String(), "+20.0%") || !strings.Contains(out.String(), "30.0%") || strings.Contains(out.String(), "!") {
		t.Errorf("table output:\n%s", out.String())
	}
}

// TestRunCompareFoldsOldRepeats: a report written before -o folded repeats
// holds one entry per line; -compare folds it on load, so the old side is
// the median of its repeats rather than whichever came last, and the new
// side gets one row.
func TestRunCompareFoldsOldRepeats(t *testing.T) {
	dir := t.TempDir()
	unfolded := Report{}
	for _, ns := range []float64{1000, 900, 1100, 2000} {
		unfolded.Benchmarks = append(unfolded.Benchmarks,
			Benchmark{Name: "Plan", Iterations: 10, Metrics: map[string]float64{"ns/op": ns}})
	}
	oldPath := writeReport(t, dir, "old.json", unfolded)
	newPath := writeReport(t, dir, "new.json", unfolded)
	var out strings.Builder
	n, err := runCompare(&out, oldPath, newPath, 15)
	if err != nil || n != 0 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if rows := strings.Count(out.String(), "Plan"); rows != 1 {
		t.Errorf("%d Plan rows, want 1:\n%s", rows, out.String())
	}
	rep, err := loadReport(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	if b := rep.Benchmarks; len(b) != 1 || b[0].Metrics["ns/op"] != 1050 || b[0].Runs != 4 {
		t.Errorf("loaded fold = %+v, want the median 1050 over 4 runs", b)
	}
}

// TestReadReportRecordsHost: -o records the CPU model go test prints and
// this host's core count beside it, and echoes the stream unchanged.
func TestReadReportRecordsHost(t *testing.T) {
	in := "goos: linux\ncpu: Intel(R) Xeon(R) CPU @ 2.20GHz\nBenchmarkTrain-2   16   67937102 ns/op\nPASS\n"
	var echo strings.Builder
	rep, err := readReport(strings.NewReader(in), &echo)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CPU != "Intel(R) Xeon(R) CPU @ 2.20GHz" || rep.NumCPU != runtime.NumCPU() || rep.GOOS != "linux" {
		t.Errorf("host = %q, %d cores, %q; want the cpu line, %d cores, linux", rep.CPU, rep.NumCPU, rep.GOOS, runtime.NumCPU())
	}
	if len(rep.Benchmarks) != 1 || rep.Benchmarks[0].Procs != 2 {
		t.Errorf("benchmarks = %+v", rep.Benchmarks)
	}
	if echo.String() != in {
		t.Errorf("echo = %q, want the input", echo.String())
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"num_cpu":`) {
		t.Errorf("report JSON lacks num_cpu: %s", data)
	}
}

// TestCompareHostWarning: -compare warns when the reports' CPU model or
// core count differ, and stays quiet when they agree or one does not say.
func TestCompareHostWarning(t *testing.T) {
	xeon2 := Report{CPU: "Xeon", NumCPU: 2}
	for _, c := range []struct {
		name     string
		old, new Report
		warn     bool
	}{
		{"same host", xeon2, xeon2, false},
		{"other model", xeon2, Report{CPU: "EPYC", NumCPU: 2}, true},
		{"other core count", xeon2, Report{CPU: "Xeon", NumCPU: 8}, true},
		{"core count unrecorded", Report{CPU: "Xeon"}, xeon2, false},
		{"nothing recorded", Report{}, xeon2, false},
	} {
		got := hostWarning(c.old, c.new)
		if (got != "") != c.warn {
			t.Errorf("%s: warning %q, want one: %v", c.name, got, c.warn)
		}
	}
	if got := hostWarning(xeon2, Report{CPU: "EPYC", NumCPU: 8}); !strings.Contains(got, "Xeon, 2 cores") || !strings.Contains(got, "EPYC, 8 cores") {
		t.Errorf("warning %q does not name both hosts", got)
	}

	dir := t.TempDir()
	oldRep, newRep := reportFixture(map[string]float64{"Plan": 1000}, nil), reportFixture(map[string]float64{"Plan": 900}, nil)
	oldRep.CPU, oldRep.NumCPU = "Xeon", 2
	newRep.CPU, newRep.NumCPU = "Xeon", 8
	var out strings.Builder
	if _, err := runCompare(&out, writeReport(t, dir, "old.json", oldRep), writeReport(t, dir, "new.json", newRep), 15); err != nil {
		t.Fatal(err)
	}
	if first, _, _ := strings.Cut(out.String(), "\n"); !strings.HasPrefix(first, "warning:") {
		t.Errorf("-compare across core counts does not open with a warning:\n%s", out.String())
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"

	"github.com/routeplanning/mamorl/internal/prof"
)

// tableFixture builds a cpu table whose flat shares are the given percents of
// a fixed 1e9 total.
func tableFixture(shares map[string]float64) prof.Table {
	t := prof.Table{Kind: "cpu", Unit: "nanoseconds", Total: 1e9, Samples: 100}
	for name, pct := range shares {
		t.Funcs = append(t.Funcs, prof.FuncStat{
			Name: name, Flat: int64(pct * 1e7), FlatPct: pct,
			Cum: int64(pct * 1e7), CumPct: pct,
		})
	}
	return t
}

func writeJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareProfTables(t *testing.T) {
	oldT := tableFixture(map[string]float64{"planner.Expand": 40, "gc": 10, "gone.Away": 5})
	newT := tableFixture(map[string]float64{"planner.Expand": 52, "gc": 9, "fresh.Hot": 8})
	deltas := compareProfTables(oldT, newT)
	if len(deltas) != 4 {
		t.Fatalf("deltas = %d, want 4 (union of both sides)", len(deltas))
	}
	// Sorted by delta descending: Expand +12, fresh +8, gc -1, gone -5.
	wantOrder := []string{"planner.Expand", "fresh.Hot", "gc", "gone.Away"}
	for i, want := range wantOrder {
		if deltas[i].Name != want {
			t.Fatalf("order[%d] = %s, want %s (%+v)", i, deltas[i].Name, want, deltas)
		}
	}
	if d := deltas[0].DeltaPts; d < 11.9 || d > 12.1 {
		t.Errorf("Expand delta = %.1f, want 12", d)
	}
	if d := deltas[3].DeltaPts; d > -4.9 || d < -5.1 {
		t.Errorf("gone delta = %.1f, want -5", d)
	}
	if n := countProfRegressions(deltas, 5); n != 2 {
		t.Errorf("regressions beyond 5 pts = %d, want 2 (Expand, fresh.Hot)", n)
	}
	if n := countProfRegressions(deltas, 15); n != 0 {
		t.Errorf("regressions beyond 15 pts = %d, want 0", n)
	}
}

// TestRunProfDiff drives the whole mode over the three accepted input
// formats: a bare table, a capture, and a capture list.
func TestRunProfDiff(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	writeJSON(t, oldPath, tableFixture(map[string]float64{"planner.Expand": 40, "gc": 10}))
	writeJSON(t, newPath, prof.Capture{
		ID: "c000002", State: "done",
		Tables: []prof.Table{tableFixture(map[string]float64{"planner.Expand": 52, "gc": 10})},
	})

	var out bytes.Buffer
	n, err := runProfDiff(&out, oldPath, newPath, "cpu", 5)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("regressions = %d, want 1:\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "planner.Expand") || !strings.Contains(out.String(), "!") {
		t.Fatalf("diff table lacks the flagged function:\n%s", out.String())
	}

	// The same comparison under a looser gate passes.
	if n, err := runProfDiff(&out, oldPath, newPath, "cpu", 20); err != nil || n != 0 {
		t.Fatalf("loose gate: n=%d err=%v", n, err)
	}

	// Capture-list input: newest finished first.
	listPath := filepath.Join(dir, "list.json")
	writeJSON(t, listPath, []prof.Capture{
		{ID: "c000009", State: "failed"},
		{ID: "c000003", State: "done",
			Tables: []prof.Table{tableFixture(map[string]float64{"planner.Expand": 41, "gc": 10})}},
	})
	if n, err := runProfDiff(&out, oldPath, listPath, "cpu", 5); err != nil || n != 0 {
		t.Fatalf("capture list: n=%d err=%v", n, err)
	}

	// Asking for a kind the file lacks is an error, not an empty diff.
	if _, err := runProfDiff(&out, oldPath, newPath, "heap", 5); err == nil {
		t.Fatal("missing kind accepted")
	}
}

// TestLoadProfTableRaw feeds a real gzipped pprof protobuf (a heap snapshot
// of this test process) through the raw branch.
func TestLoadProfTableRaw(t *testing.T) {
	path := filepath.Join(t.TempDir(), "heap.pb.gz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	// The snapshot reports live bytes at the last GC: pin some allocations so
	// inuse_space has something to attribute.
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 64<<10))
	}
	runtime.GC()
	if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(sink)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	tab, err := loadProfTable(path, "heap")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Kind != "heap" || tab.Unit != "bytes" || tab.Total <= 0 || len(tab.Funcs) == 0 {
		t.Fatalf("raw heap table = %+v", tab)
	}
}

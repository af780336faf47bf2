package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"github.com/routeplanning/mamorl/internal/prof"
)

// profDelta is the comparison of one function's flat share across two
// hot-function tables. Shares are percentages of each profile's own total, so
// two runs with different durations or sample counts still compare fairly.
type profDelta struct {
	Name           string
	OldPct, NewPct float64
	DeltaPts       float64 // NewPct - OldPct, in percentage points
}

// loadProfTable reads one side of a -profdiff comparison. Three formats are
// accepted: a raw pprof protobuf (gzipped or not, e.g. a /debug/prof
// ?format=raw download or a -cpuprofile file), a JSON capture or capture list
// (GET /debug/prof/{id}, experiments -profile-out), or a bare JSON table.
func loadProfTable(path, kind string) (prof.Table, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return prof.Table{}, err
	}
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) == 0 {
		return prof.Table{}, fmt.Errorf("%s: empty file", path)
	}
	if trimmed[0] != '{' && trimmed[0] != '[' {
		p, err := prof.Parse(data)
		if err != nil {
			return prof.Table{}, fmt.Errorf("%s: not JSON and not a pprof profile: %w", path, err)
		}
		// Fold as the profiler does, so a raw file aggregates the same
		// column as the JSON tables it is compared against.
		return prof.Fold(p, kind, 0), nil
	}

	pickTable := func(c prof.Capture) (prof.Table, bool) {
		for _, t := range c.Tables {
			if t.Kind == kind {
				return t, true
			}
		}
		return prof.Table{}, false
	}
	if trimmed[0] == '[' {
		var captures []prof.Capture
		if err := json.Unmarshal(data, &captures); err != nil {
			return prof.Table{}, fmt.Errorf("%s: parse capture list: %w", path, err)
		}
		// Lists are written newest-first; take the newest finished capture
		// that folded the requested kind.
		for _, c := range captures {
			if c.State != "done" {
				continue
			}
			if t, ok := pickTable(c); ok {
				return t, nil
			}
		}
		return prof.Table{}, fmt.Errorf("%s: no finished capture with a %q table", path, kind)
	}
	var c prof.Capture
	if err := json.Unmarshal(data, &c); err != nil {
		return prof.Table{}, fmt.Errorf("%s: parse capture: %w", path, err)
	}
	if t, ok := pickTable(c); ok {
		return t, nil
	}
	// Not a capture wrapping tables — maybe the file is one bare table.
	var t prof.Table
	if err := json.Unmarshal(data, &t); err == nil && t.Kind != "" {
		if t.Kind != kind {
			return prof.Table{}, fmt.Errorf("%s: table is kind %q, want %q", path, t.Kind, kind)
		}
		return t, nil
	}
	return prof.Table{}, fmt.Errorf("%s: no %q table in capture %s", path, kind, c.ID)
}

// compareProfTables unions the two function sets and computes the flat-share
// shift of every function, sorted by delta descending (worst growth first).
func compareProfTables(oldT, newT prof.Table) []profDelta {
	oldPct := make(map[string]float64, len(oldT.Funcs))
	for _, f := range oldT.Funcs {
		oldPct[f.Name] = f.FlatPct
	}
	byName := make(map[string]*profDelta, len(oldT.Funcs)+len(newT.Funcs))
	for _, f := range oldT.Funcs {
		byName[f.Name] = &profDelta{Name: f.Name, OldPct: f.FlatPct, DeltaPts: -f.FlatPct}
	}
	for _, f := range newT.Funcs {
		d := byName[f.Name]
		if d == nil {
			d = &profDelta{Name: f.Name}
			byName[f.Name] = d
		}
		d.NewPct = f.FlatPct
		d.DeltaPts = d.NewPct - d.OldPct
	}
	out := make([]profDelta, 0, len(byName))
	for _, d := range byName {
		out = append(out, *d)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].DeltaPts != out[j].DeltaPts {
			return out[i].DeltaPts > out[j].DeltaPts
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// countProfRegressions counts functions whose flat share grew by more than
// threshold percentage points — including functions new to the profile, whose
// whole share is growth.
func countProfRegressions(deltas []profDelta, threshold float64) int {
	n := 0
	for _, d := range deltas {
		if d.DeltaPts > threshold {
			n++
		}
	}
	return n
}

// writeProfDiff renders the shift table: every regressing function, plus any
// function holding at least half a point of flat share on either side.
func writeProfDiff(w io.Writer, kind string, deltas []profDelta, threshold float64) {
	fmt.Fprintf(w, "%-60s %9s %9s %9s\n", kind+" function (flat share)", "old", "new", "Δpts")
	for _, d := range deltas {
		if d.DeltaPts <= threshold && d.OldPct < 0.5 && d.NewPct < 0.5 {
			continue
		}
		mark := " "
		if d.DeltaPts > threshold {
			mark = "!"
		}
		fmt.Fprintf(w, "%-60s %8.1f%% %8.1f%% %+8.1f %s\n", d.Name, d.OldPct, d.NewPct, d.DeltaPts, mark)
	}
}

// runProfDiff loads both profiles, prints the flat-share shift table, and
// returns how many functions regressed beyond the threshold.
func runProfDiff(w io.Writer, oldPath, newPath, kind string, threshold float64) (int, error) {
	oldT, err := loadProfTable(oldPath, kind)
	if err != nil {
		return 0, err
	}
	newT, err := loadProfTable(newPath, kind)
	if err != nil {
		return 0, err
	}
	if oldT.Total == 0 || newT.Total == 0 {
		return 0, fmt.Errorf("empty profile: old total %d, new total %d", oldT.Total, newT.Total)
	}
	deltas := compareProfTables(oldT, newT)
	writeProfDiff(w, kind, deltas, threshold)
	return countProfRegressions(deltas, threshold), nil
}

package prof

import "sort"

// FuncStat is one row of a hot-function table.
type FuncStat struct {
	Name string `json:"name"`
	// Flat is the value attributed to samples whose leaf frame is this
	// function; Cum counts every sample the function appears anywhere in.
	Flat    int64   `json:"flat"`
	FlatPct float64 `json:"flat_pct"`
	Cum     int64   `json:"cum"`
	CumPct  float64 `json:"cum_pct"`
}

// Table is the bounded aggregation of one profile: the top-N functions by
// flat and by cumulative value (union of the two), plus totals.
type Table struct {
	Kind string `json:"kind"`
	// Type names the sample column folded (e.g. "cpu", "inuse_space").
	Type    string `json:"type"`
	Unit    string `json:"unit"`
	Samples int    `json:"samples"`
	Total   int64  `json:"total"`
	// DurationSeconds is the profile's own wall-clock window (CPU profiles
	// only; zero for snapshots).
	DurationSeconds float64    `json:"duration_seconds,omitempty"`
	Funcs           []FuncStat `json:"funcs"`
}

// ValueIndex picks which sample value column to aggregate: the first sample
// type whose name matches one of preferred, else the last column (pprof's
// conventional default).
func (p *Profile) ValueIndex(preferred ...string) int {
	for _, want := range preferred {
		for i, st := range p.SampleTypes {
			if st.Type == want {
				return i
			}
		}
	}
	return len(p.SampleTypes) - 1
}

// defaultValueType maps a capture kind to the sample-type preference used
// when folding its profile.
func defaultValueType(kind string) []string {
	switch kind {
	case "cpu":
		return []string{"cpu"}
	case "heap":
		return []string{"inuse_space"}
	case "mutex", "block":
		return []string{"delay"}
	case "goroutine":
		return []string{"goroutine"}
	default:
		return nil
	}
}

// Fold aggregates a profile of the given capture kind over the column
// defaultValueType prefers for it, except that a heap profile whose
// inuse_space totals zero folds alloc_space instead: in-use figures are
// those of the last completed GC, and at the default MemProfileRate a
// small process can have no sampled object live then. The table's Type
// says which column was folded.
func Fold(p *Profile, kind string, topN int) Table {
	t := Aggregate(p, kind, p.ValueIndex(defaultValueType(kind)...), topN)
	if kind == "heap" && t.Total == 0 {
		if alloc := Aggregate(p, kind, p.ValueIndex("alloc_space"), topN); alloc.Total > 0 {
			return alloc
		}
	}
	return t
}

// Aggregate folds a decoded profile into a hot-function table over the given
// value column, keeping the union of the top-N rows by flat and by cum.
// topN <= 0 keeps every function.
func Aggregate(p *Profile, kind string, valueIndex, topN int) Table {
	t := Table{Kind: kind, DurationSeconds: float64(p.DurationNanos) / 1e9}
	if valueIndex < 0 || valueIndex >= len(p.SampleTypes) {
		return t
	}
	t.Type, t.Unit = p.SampleTypes[valueIndex].Type, p.SampleTypes[valueIndex].Unit

	type stat struct{ flat, cum int64 }
	stats := make(map[string]*stat)
	get := func(name string) *stat {
		s := stats[name]
		if s == nil {
			s = &stat{}
			stats[name] = s
		}
		return s
	}
	// seen dedups functions within one sample so recursion doesn't multiply
	// cumulative attribution.
	seen := make(map[string]bool)
	for _, s := range p.Samples {
		v := s.Values[valueIndex]
		if v == 0 || len(s.LocationIDs) == 0 {
			continue
		}
		t.Samples++
		t.Total += v

		// Leaf frame: the innermost function of the first location.
		if loc := p.Locations[s.LocationIDs[0]]; loc != nil && len(loc.FunctionIDs) > 0 {
			if fn := p.Functions[loc.FunctionIDs[0]]; fn != nil && fn.Name != "" {
				get(fn.Name).flat += v
			}
		}
		clear(seen)
		for _, locID := range s.LocationIDs {
			loc := p.Locations[locID]
			if loc == nil {
				continue
			}
			for _, fnID := range loc.FunctionIDs {
				fn := p.Functions[fnID]
				if fn == nil || fn.Name == "" || seen[fn.Name] {
					continue
				}
				seen[fn.Name] = true
				get(fn.Name).cum += v
			}
		}
	}

	rows := make([]FuncStat, 0, len(stats))
	for name, s := range stats {
		rows = append(rows, FuncStat{Name: name, Flat: s.flat, Cum: s.cum})
	}
	if t.Total > 0 {
		for i := range rows {
			rows[i].FlatPct = 100 * float64(rows[i].Flat) / float64(t.Total)
			rows[i].CumPct = 100 * float64(rows[i].Cum) / float64(t.Total)
		}
	}
	t.Funcs = topUnion(rows, topN)
	return t
}

// topUnion keeps the union of the top-N rows by flat and by cum, sorted by
// flat desc (then cum desc, then name for determinism).
func topUnion(rows []FuncStat, topN int) []FuncStat {
	byFlat := func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Flat != b.Flat {
			return a.Flat > b.Flat
		}
		if a.Cum != b.Cum {
			return a.Cum > b.Cum
		}
		return a.Name < b.Name
	}
	sort.Slice(rows, byFlat)
	if topN <= 0 || len(rows) <= topN {
		return rows
	}
	keep := make(map[string]bool, 2*topN)
	for _, r := range rows[:topN] {
		keep[r.Name] = true
	}
	byCum := append([]FuncStat(nil), rows...)
	sort.Slice(byCum, func(i, j int) bool {
		a, b := byCum[i], byCum[j]
		if a.Cum != b.Cum {
			return a.Cum > b.Cum
		}
		if a.Flat != b.Flat {
			return a.Flat > b.Flat
		}
		return a.Name < b.Name
	})
	for _, r := range byCum[:topN] {
		keep[r.Name] = true
	}
	out := rows[:0]
	for _, r := range rows {
		if keep[r.Name] {
			out = append(out, r)
		}
	}
	return out
}

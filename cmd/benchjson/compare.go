package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchDelta is the comparison of one benchmark across two reports.
type benchDelta struct {
	Name string
	// OldNs/NewNs are ns/op; OldAllocs/NewAllocs are allocs/op: medians
	// for folded repeats. A metric absent from either report leaves the
	// pair at NaN-free zero and the delta unset (has* false).
	OldNs, NewNs          float64
	OldAllocs, NewAllocs  float64
	hasNs, hasAllocs      bool
	NsDeltaPct, AllocsPct float64
	// NsSpread is the larger of the two sides' ns/op max − min; zero
	// where neither side folded repeats.
	NsSpread float64
}

// loadReport reads a benchjson -o report file, folding any repeated
// entries: reports written before -o folded them hold one per line.
func loadReport(path string) (Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return Report{}, err
	}
	defer f.Close()
	var rep Report
	if err := json.NewDecoder(f).Decode(&rep); err != nil {
		return Report{}, fmt.Errorf("parse %s: %w", path, err)
	}
	rep.Benchmarks = foldRepeats(rep.Benchmarks)
	return rep, nil
}

// spread returns a benchmark's max − min of one metric, zero for a single
// run.
func spread(b Benchmark, unit string) float64 {
	lo, ok1 := b.Min[unit]
	hi, ok2 := b.Max[unit]
	if !ok1 || !ok2 {
		return 0
	}
	return hi - lo
}

// pct is the relative change from old to new, in percent. A zero old value
// has no meaningful ratio; report 0 so a 0→0 metric never trips thresholds.
func pct(oldV, newV float64) float64 {
	if oldV == 0 {
		return 0
	}
	return (newV - oldV) / oldV * 100
}

// compareReports matches benchmarks by name (a benchmark appearing in only
// one report is skipped — it has nothing to regress against) and computes
// per-benchmark ns/op and allocs/op deltas, name-sorted.
func compareReports(oldRep, newRep Report) []benchDelta {
	oldByName := make(map[string]Benchmark, len(oldRep.Benchmarks))
	for _, b := range oldRep.Benchmarks {
		oldByName[b.Name] = b
	}
	var out []benchDelta
	for _, nb := range newRep.Benchmarks {
		ob, ok := oldByName[nb.Name]
		if !ok {
			continue
		}
		d := benchDelta{Name: nb.Name}
		if oldNs, ok1 := ob.Metrics["ns/op"]; ok1 {
			if newNs, ok2 := nb.Metrics["ns/op"]; ok2 {
				d.OldNs, d.NewNs, d.hasNs = oldNs, newNs, true
				d.NsDeltaPct = pct(oldNs, newNs)
				d.NsSpread = max(spread(ob, "ns/op"), spread(nb, "ns/op"))
			}
		}
		if oldA, ok1 := ob.Metrics["allocs/op"]; ok1 {
			if newA, ok2 := nb.Metrics["allocs/op"]; ok2 {
				d.OldAllocs, d.NewAllocs, d.hasAllocs = oldA, newA, true
				d.AllocsPct = pct(oldA, newA)
			}
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// regressed reports whether d's median ns/op worsened beyond both
// threshold percent and the two sides' spread. Alloc growth alone is
// reported but does not trip the gate: alloc counts are exact and a
// deliberate +1 on a tiny benchmark would read as a huge percentage.
func (d benchDelta) regressed(threshold float64) bool {
	return d.hasNs && d.NsDeltaPct > threshold && d.NewNs-d.OldNs > d.NsSpread
}

// countRegressions counts the deltas that regressed beyond threshold.
func countRegressions(deltas []benchDelta, threshold float64) int {
	n := 0
	for _, d := range deltas {
		if d.regressed(threshold) {
			n++
		}
	}
	return n
}

// writeCompare renders the delta table. The spread column is NsSpread as a
// percentage of the old median.
func writeCompare(w io.Writer, deltas []benchDelta, threshold float64) {
	fmt.Fprintf(w, "%-40s %14s %14s %9s %8s %12s %9s\n",
		"benchmark", "old ns/op", "new ns/op", "Δns/op", "spread", "allocs/op", "Δallocs")
	for _, d := range deltas {
		mark := " "
		if d.regressed(threshold) {
			mark = "!"
		}
		ns, allocs, dNs, dAllocs, spr := "-", "-", "-", "-", "-"
		oldNs := "-"
		if d.hasNs {
			oldNs = fmt.Sprintf("%.1f", d.OldNs)
			ns = fmt.Sprintf("%.1f", d.NewNs)
			dNs = fmt.Sprintf("%+.1f%%", d.NsDeltaPct)
			spr = fmt.Sprintf("%.1f%%", pct(d.OldNs, d.OldNs+d.NsSpread))
		}
		if d.hasAllocs {
			allocs = fmt.Sprintf("%.0f→%.0f", d.OldAllocs, d.NewAllocs)
			dAllocs = fmt.Sprintf("%+.1f%%", d.AllocsPct)
		}
		fmt.Fprintf(w, "%-40s %14s %14s %9s %8s %12s %9s %s\n",
			d.Name, oldNs, ns, dNs, spr, allocs, dAllocs, mark)
	}
}

// hostWarning returns a warning line when the two reports name different
// CPU models or core counts, and "" when they agree or a report does not
// say (reports written before num_cpu was recorded carry no core count).
func hostWarning(oldRep, newRep Report) string {
	cpuDiffers := oldRep.CPU != "" && newRep.CPU != "" && oldRep.CPU != newRep.CPU
	coresDiffer := oldRep.NumCPU != 0 && newRep.NumCPU != 0 && oldRep.NumCPU != newRep.NumCPU
	if !cpuDiffers && !coresDiffer {
		return ""
	}
	return fmt.Sprintf("warning: the reports come from different hosts (old: %s; new: %s): an ns/op delta across hosts is not a result",
		host(oldRep), host(newRep))
}

// host describes a report's host as "<cpu>, <n> cores".
func host(r Report) string {
	cpu, cores := r.CPU, "unknown core count"
	if cpu == "" {
		cpu = "unknown CPU"
	}
	if r.NumCPU > 0 {
		cores = fmt.Sprintf("%d cores", r.NumCPU)
	}
	return cpu + ", " + cores
}

// runCompare loads both reports, prints the delta table, and returns how
// many benchmarks regressed beyond the threshold. A host warning, if any,
// comes first.
func runCompare(w io.Writer, oldPath, newPath string, threshold float64) (int, error) {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		return 0, err
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		return 0, err
	}
	if warning := hostWarning(oldRep, newRep); warning != "" {
		fmt.Fprintln(w, warning)
	}
	deltas := compareReports(oldRep, newRep)
	if len(deltas) == 0 {
		fmt.Fprintln(w, "no common benchmarks between the two reports")
		return 0, nil
	}
	writeCompare(w, deltas, threshold)
	return countRegressions(deltas, threshold), nil
}

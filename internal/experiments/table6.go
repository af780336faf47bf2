package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"github.com/routeplanning/mamorl/internal/core"
	"github.com/routeplanning/mamorl/internal/trace"
)

// Table6Scenario describes one scenario block of Table 6.
type Table6Scenario struct {
	Label  string
	Params Params
}

// Table6Scenarios returns the paper's four scenario blocks: (|V|, |N|,
// D_max) of (704, 2, 7), (400, 3, 9), (400, 2, 6) and (200, 2, 9), with
// Table 4's speed. Exact MaMoRL must come out N/A on the first two (memory)
// and run on the last two, reproducing the feasibility boundary.
func Table6Scenarios(base Params) []Table6Scenario {
	mk := func(label string, v, e, d, n int) Table6Scenario {
		p := base
		p.Nodes, p.Edges, p.MaxOutDegree, p.Assets = v, e, d, n
		return Table6Scenario{Label: label, Params: p}
	}
	return []Table6Scenario{
		mk("|V|=704 |N|=2 Dmax=7", 704, 1550, 7, 2),
		mk("|V|=400 |N|=3 Dmax=9", 400, 846, 9, 3),
		mk("|V|=400 |N|=2 Dmax=6", 400, 846, 6, 2),
		mk("|V|=200 |N|=2 Dmax=9", 200, 430, 9, 2),
	}
}

// Table6Row is one (scenario, algorithm) cell group.
type Table6Row struct {
	Scenario  string
	Algorithm string
	Stats     RunStats
}

// RunTable6 evaluates every algorithm on every Table 6 scenario. All
// scenario×algorithm cells are independent, so with base.Parallel > 1 they
// fan out concurrently, sharing one run budget with the per-cell run loops.
func (h *Harness) RunTable6(ctx context.Context, base Params) ([]Table6Row, error) {
	return h.runTable6(ctx, Table6Scenarios(withInstances(base)), limiterFor(base))
}

// runTable6 is RunTable6 over an explicit scenario list and budget (tests
// use reduced scenario sets). A block keeps the instance cache its Params
// carry (RunTable6 gives every block the call's) or gets its own, before
// its six algorithm cells fan out over it.
func (h *Harness) runTable6(ctx context.Context, scenarios []Table6Scenario, lim limiter) ([]Table6Row, error) {
	nAlgos := len(AllAlgorithms)
	blocks := make([]Params, len(scenarios))
	for i, sc := range scenarios {
		blocks[i] = withInstances(sc.Params)
	}
	return fanIndexed(lim, len(scenarios)*nAlgos, func(c int) (Table6Row, error) {
		sc, algo := scenarios[c/nAlgos], AllAlgorithms[c%nAlgos]
		cp, cell := startCell(blocks[c/nAlgos], "cell.table6",
			trace.String("scenario", sc.Label), trace.String("algorithm", algo))
		defer cell.End()
		rs, err := h.evaluateWith(ctx, algo, cp, lim)
		if err != nil {
			return Table6Row{}, fmt.Errorf("table 6, %s / %s: %w", sc.Label, algo, err)
		}
		return Table6Row{Scenario: sc.Label, Algorithm: algo, Stats: rs}, nil
	})
}

// FormatTable6 renders the rows the way the paper's Table 6 reads.
func FormatTable6(rows []Table6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %-38s %10s %14s %10s %14s\n",
		"Scenario", "Algorithm", "T_total", "F_total", "CPU Time", "Memory Usage")
	prev := ""
	for _, r := range rows {
		label := ""
		if r.Scenario != prev {
			label = r.Scenario
			prev = r.Scenario
		}
		t, f, cpu := "N/A", "N/A", "N/A"
		mem := core.FormatBytes(r.Stats.MemoryBytes)
		if !r.Stats.NA {
			t = fmt.Sprintf("%.2f", r.Stats.MeanT())
			f = fmt.Sprintf("%.1f", r.Stats.MeanF())
			cpu = formatDuration(r.Stats.CPUTime / time.Duration(max(1, r.Stats.Runs)))
		} else if r.Stats.MemoryBytes == 0 {
			mem = "N/A"
		}
		note := ""
		if r.Stats.NA {
			note = "  (" + r.Stats.NAReason + ")"
		}
		fmt.Fprintf(&b, "%-24s %-38s %10s %14s %10s %14s%s\n",
			label, r.Algorithm, t, f, cpu, mem, note)
	}
	return b.String()
}

// formatDuration renders a mean CPU time for the timing columns (Table 6,
// the ablation table, Figure 7). Sub-second times print in milliseconds to
// the microsecond, so the deployed planners' sub-millisecond runs stay
// apart.
func formatDuration(d time.Duration) string {
	switch {
	case d >= time.Minute:
		return fmt.Sprintf("%.1f min", d.Minutes())
	case d >= time.Second:
		return fmt.Sprintf("%.2f s", d.Seconds())
	default:
		return fmt.Sprintf("%.3f ms", float64(d)/float64(time.Millisecond))
	}
}

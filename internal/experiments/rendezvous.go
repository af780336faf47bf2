package experiments

import (
	"context"
	"fmt"
	"strings"

	"github.com/routeplanning/mamorl/internal/trace"
)

// The rendezvous study (ours, extending the paper): missions continue past
// discovery until the whole team gathers at the destination — Definition
// 2's makespan "for reaching the mission goal" taken literally, and the
// regime the β feature was designed for. It reports how much of the total
// makespan each algorithm spends searching versus converging.

// RendezvousRow is one algorithm's rendezvous outcome.
type RendezvousRow struct {
	Algorithm string
	Stats     RunStats
	// MeanDiscoveryFrac is the mean fraction of mission epochs spent before
	// discovery (the rest is the gathering phase).
	MeanDiscoveryFrac float64
}

// RunRendezvous evaluates the runnable algorithms with Scenario.Rendezvous
// enabled.
func (h *Harness) RunRendezvous(ctx context.Context, p Params) ([]RendezvousRow, error) {
	algos := []string{AlgoApprox, AlgoApproxPK, AlgoBaseline1, AlgoBaseline2}
	lim := limiterFor(p)
	p = withInstances(p)
	p.rendezvous = true
	return fanIndexed(lim, len(algos), func(k int) (RendezvousRow, error) {
		algo := algos[k]
		cp, cell := startCell(p, "cell.rendezvous", trace.String("algorithm", algo))
		defer cell.End()
		outs := runCell(ctx, cp, lim, algo, func(run int, sp *trace.Span) runOutcome {
			return h.runOne(ctx, algo, cp, run, sp)
		})
		rs, err := collectStats(algo, outs)
		if err != nil {
			return RendezvousRow{}, fmt.Errorf("rendezvous %s: %w", algo, err)
		}
		row := RendezvousRow{Algorithm: algo, Stats: rs}
		// The search share averages over the runs the fold counts as found;
		// a discovery at step 0 has no share.
		var fracSum float64
		var fracN int
		for _, o := range outs {
			if o.res.Found && !o.res.Aborted && o.res.Steps > 0 {
				fracSum += float64(o.res.DiscoverySteps) / float64(o.res.Steps)
				fracN++
			}
		}
		if fracN > 0 {
			row.MeanDiscoveryFrac = fracSum / float64(fracN)
		}
		return row, nil
	})
}

// FormatRendezvous renders the study.
func FormatRendezvous(rows []RendezvousRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Rendezvous: search + gather until the whole team reaches the goal\n")
	fmt.Fprintf(&b, "  %-38s %8s %10s %12s %14s\n",
		"algorithm", "found", "search%", "T_total", "F_total")
	for _, r := range rows {
		t, f := "N/A", "N/A"
		if !r.Stats.NA {
			t = fmt.Sprintf("%.2f", r.Stats.MeanT())
			f = fmt.Sprintf("%.1f", r.Stats.MeanF())
		}
		fmt.Fprintf(&b, "  %-38s %5d/%2d %9.0f%% %12s %14s\n",
			r.Algorithm, r.Stats.FoundRuns, r.Stats.Runs, 100*r.MeanDiscoveryFrac, t, f)
	}
	return b.String()
}

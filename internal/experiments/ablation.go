package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"github.com/routeplanning/mamorl/internal/approx"
	"github.com/routeplanning/mamorl/internal/sim"
	"github.com/routeplanning/mamorl/internal/trace"
)

// The ablation study measures what each deployment mechanism of the
// approximate planner contributes (DESIGN.md §2 documents why each exists).
// It is not in the paper — it justifies this implementation's resolutions
// of mechanics the paper leaves implicit.

// AblationVariant names a planner configuration.
type AblationVariant struct {
	Name string
	Opts approx.Options
}

// AblationVariants lists the full planner and one variant per disabled
// mechanism.
func AblationVariants() []AblationVariant {
	return []AblationVariant{
		{"full", approx.Options{}},
		{"no-frontier", approx.Options{NoFrontier: true}},
		{"no-voronoi", approx.Options{NoVoronoi: true}},
		{"no-right-of-way", approx.Options{NoRightOfWay: true}},
		{"no-watchdog", approx.Options{NoWatchdog: true}},
		{"no-tmm-blocking", approx.Options{NoTMMBlocking: true}},
	}
}

// AblationRow is one variant's outcome over the study's seeded runs.
type AblationRow struct {
	Variant string
	Stats   RunStats
}

// RunAblation evaluates every variant over p.Runs seeded instances (the
// same instances for every variant, so differences are attributable to the
// mechanism). Run `run` seeds its planner with p.Seed + 31·run.
func (h *Harness) RunAblation(ctx context.Context, p Params) ([]AblationRow, error) {
	variants := AblationVariants()
	lim := limiterFor(p)
	p = withInstances(p)
	return fanIndexed(lim, len(variants), func(k int) (AblationRow, error) {
		v := variants[k]
		name := "ablation/" + v.Name
		cp, cell := startCell(p, "cell.ablation", trace.String("variant", v.Name))
		defer cell.End()
		rs, err := collectStats(name, runCell(ctx, cp, lim, name, func(run int, sp *trace.Span) runOutcome {
			seed := cp.Seed + int64(run)*31
			sc, err := scenarioFor(cp, run)
			if err != nil {
				return runOutcome{seed: seed, err: err}
			}
			pl := approx.NewPlannerOpts(h.Linear, h.Pipe.Extractor, seed, v.Opts)
			start := time.Now()
			res, err := sim.RunContext(ctx, sc, pl, sim.RunOptions{TraceParent: sp})
			return runOutcome{seed: seed, res: res, cpu: time.Since(start), err: err}
		}))
		if err != nil {
			return AblationRow{}, fmt.Errorf("ablation %s: %w", v.Name, err)
		}
		return AblationRow{Variant: v.Name, Stats: rs}, nil
	})
}

// FormatAblation renders the study.
func FormatAblation(rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: Approx-MaMoRL deployment mechanisms (DESIGN.md §2)\n")
	fmt.Fprintf(&b, "  %-18s %8s %10s %12s %12s %10s\n",
		"variant", "found", "collided", "T_total", "F_total", "cpu/run")
	for _, r := range rows {
		rs := r.Stats
		t, f := "N/A", "N/A"
		if !rs.NA {
			t = fmt.Sprintf("%.2f", rs.MeanT())
			f = fmt.Sprintf("%.1f", rs.MeanF())
		}
		fmt.Fprintf(&b, "  %-18s %5d/%2d %7d/%2d %12s %12s %10s\n",
			r.Variant, rs.FoundRuns, rs.Runs, rs.CollidedRuns, rs.Runs, t, f,
			formatDuration(rs.CPUTime/time.Duration(max(1, rs.Runs))))
	}
	return b.String()
}

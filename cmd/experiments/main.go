// Command experiments regenerates every table and figure of the paper's
// evaluation section. By default it runs a reduced "quick" configuration
// (3 runs per cell, truncated sweeps) that finishes in a few minutes; pass
// -paperscale for the full 10-run protocol.
//
// Usage:
//
//	experiments                     # everything, quick
//	experiments -only table6,fig4   # a subset
//	experiments -paperscale         # full 10-run averaging, full sweeps
//	experiments -trace-out t.jsonl  # also record span traces of every run
//	experiments -dash :6061         # live dashboard at http://localhost:6061/debug/dash
//	experiments -curves-out c.csv   # per-episode learning curves (.json for JSON)
//
// On a terminal the suite shows a live progress line ([table6] 37/120 runs
// 4.1 runs/s  ETA 20s) on stderr; -quiet suppresses it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"github.com/routeplanning/mamorl/internal/approx"
	"github.com/routeplanning/mamorl/internal/experiments"
	"github.com/routeplanning/mamorl/internal/grid"
	"github.com/routeplanning/mamorl/internal/neural"
	"github.com/routeplanning/mamorl/internal/obs"
	"github.com/routeplanning/mamorl/internal/trace"
)

// logger is the process-wide structured logger; fatalf logs at error level
// and exits. Both are set in main before any driver runs.
var (
	logger *slog.Logger
	fatalf func(format string, args ...any)
)

func main() {
	var (
		only       = flag.String("only", "", "comma-separated subset: table2,table3,lemmas,table6,fig3,fig4,fig5,fig6,fig7,fig8,ablation,rendezvous,commrange")
		paperscale = flag.Bool("paperscale", false, "full 10-run averaging and full sweeps (slow)")
		seed       = flag.Int64("seed", 1, "base random seed")
		nnEpochs   = flag.Int("nn-epochs", 300, "NN-Approx training epochs; pass 10000 for the full Table 5 budget (slow)")
		csvDir     = flag.String("csv", "", "also write machine-readable CSVs of each experiment into this directory")
		parallel   = flag.Int("parallel", runtime.NumCPU(), "max concurrent mission runs across experiment cells; 1 disables parallelism")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the suite to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		traceOut   = flag.String("trace-out", "", "write completed spans (cells, runs, missions) as JSONL to this file")
		metricsOut = flag.String("metrics-out", "", "write the suite's metrics in Prometheus text format to this file on exit")
		curvesOut  = flag.String("curves-out", "", "write per-episode learning curves to this file (.json for JSON, else CSV)")
		dashAddr   = flag.String("dash", "", "serve the live dashboard (/debug/dash, /debug/metrics/stream, /metrics) on this address; disabled when empty")
		logFormat  = flag.String("log-format", "text", "log output format: text or json")
		quiet      = flag.Bool("quiet", false, "suppress the live progress line")
	)
	flag.Parse()

	switch *logFormat {
	case "", "text":
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	default:
		fmt.Fprintf(os.Stderr, "unknown -log-format %q (want text or json)\n", *logFormat)
		os.Exit(2)
	}
	if *nnEpochs < 1 {
		fmt.Fprintf(os.Stderr, "-nn-epochs %d: want at least 1\n", *nnEpochs)
		os.Exit(2)
	}
	fatalf = func(format string, args ...any) {
		logger.Error(fmt.Sprintf(format, args...))
		os.Exit(1)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatalf("memprofile: %v", err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fatalf("memprofile: %v", err)
			}
		}()
	}

	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			want[strings.TrimSpace(k)] = true
		}
	}
	run := func(k string) bool { return len(want) == 0 || want[k] }
	quick := !*paperscale

	// Ctrl-C stops the suite between missions instead of finishing all
	// seeds; the driver reports which experiment was interrupted.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	fail := func(what string, err error) {
		if errors.Is(err, context.Canceled) {
			fatalf("%s: interrupted by signal", what)
		}
		fatalf("%s: %v", what, err)
	}

	writeCSV := func(name string, fn func(io.Writer) error) {
		if *csvDir == "" {
			return
		}
		path := filepath.Join(*csvDir, name)
		f, err := os.Create(path)
		if err != nil {
			fatalf("csv %s: %v", name, err)
		}
		defer f.Close()
		if err := fn(f); err != nil {
			fatalf("csv %s: %v", name, err)
		}
		logger.Info("wrote csv", "path", path)
	}

	// Observability surface: metrics always accumulate (they are cheap and
	// -metrics-out decides whether they persist); the tracer exists only
	// when -trace-out asks for spans, so the default suite runs untraced.
	metrics := obs.New()
	experiments.RegisterMetricsHelp(metrics)

	var tracer *trace.Tracer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatalf("trace-out: %v", err)
		}
		jw := trace.NewJSONLWriter(f)
		defer func() {
			if err := jw.Flush(); err != nil {
				logger.Error("trace-out flush", "err", err)
			}
			if err := f.Close(); err != nil {
				logger.Error("trace-out close", "err", err)
			}
			logger.Info("wrote traces", "path", *traceOut)
		}()
		tracer = trace.New(jw, trace.NewHistogramSink(metrics))
	}
	if *metricsOut != "" {
		defer func() {
			f, err := os.Create(*metricsOut)
			if err != nil {
				logger.Error("metrics-out", "err", err)
				return
			}
			defer f.Close()
			if err := metrics.WritePrometheus(f); err != nil {
				logger.Error("metrics-out", "err", err)
				return
			}
			logger.Info("wrote metrics", "path", *metricsOut)
		}()
	}

	// Learning-curve telemetry: per-episode Q-learning signals plus model fit
	// losses. The recorder also mirrors onto the metrics registry, so the
	// dashboard shows the training curve live even without -curves-out.
	var curves *experiments.CurveRecorder
	if *curvesOut != "" || *dashAddr != "" {
		curves = experiments.NewCurveRecorder(metrics)
	}
	if *curvesOut != "" {
		defer func() {
			f, err := os.Create(*curvesOut)
			if err != nil {
				logger.Error("curves-out", "err", err)
				return
			}
			defer f.Close()
			recs := curves.Records()
			if err := experiments.WriteCurvesFile(f, *curvesOut, recs); err != nil {
				logger.Error("curves-out", "err", err)
				return
			}
			logger.Info("wrote learning curves", "path", *curvesOut, "records", len(recs))
		}()
	}

	// The live ops plane: a sampler over the suite's registry (plus Go
	// runtime telemetry) feeding an SSE stream and the self-contained HTML
	// dashboard. Pure observation — suite results are identical either way.
	if *dashAddr != "" {
		rc := obs.NewRuntimeCollector(metrics)
		sampler := obs.NewSampler(metrics, obs.SamplerOptions{OnTick: []func(){rc.Collect}})
		mux := http.NewServeMux()
		mux.Handle("GET /debug/dash", obs.DashHandler("/debug/metrics/stream", "", "", ""))
		mux.Handle("GET /debug/metrics/stream", obs.StreamHandler(sampler, 0))
		mux.Handle("GET /metrics", obs.Handler(metrics))
		dashSrv := &http.Server{Addr: *dashAddr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			logger.Info("dashboard listening", "addr", *dashAddr, "path", "/debug/dash")
			if err := dashSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("dashboard", "err", err)
			}
		}()
		defer dashSrv.Close()
		sampleCtx, stopSampler := context.WithCancel(context.Background())
		defer stopSampler()
		go sampler.Run(sampleCtx)
	}

	// The live progress line goes to stderr only when it is a terminal:
	// redirected logs see one status line per repaint otherwise.
	var progress *experiments.Progress
	if !*quiet {
		if fi, err := os.Stderr.Stat(); err == nil && fi.Mode()&os.ModeCharDevice != 0 {
			progress = experiments.NewProgress(os.Stderr, time.Second)
		}
	}
	defer progress.Finish()
	// step announces one driver: it labels the progress line and stamps the
	// driver key on the log record.
	step := func(driver, msg string) {
		progress.SetLabel(driver)
		logger.Info(msg, "driver", driver)
	}

	base := experiments.DefaultParams()
	base.Seed = *seed
	if quick {
		base = base.Quick()
	}
	base.Parallel = *parallel
	base.Tracer = tracer
	base.Progress = progress
	base.Metrics = metrics

	if run("table2") {
		printTable2()
	}
	if run("table3") {
		printTable3(*seed, quick)
	}
	if run("lemmas") {
		printLemmas()
	}

	needHarness := run("table6") || run("fig3") || run("fig4") || run("fig5") || run("fig6") || run("fig7") || run("ablation") || run("rendezvous") || run("commrange")
	var h *experiments.Harness
	if needHarness {
		logger.Info("training Approx-MaMoRL (Section 4.2 pipeline)")
		cfg := approx.TrainConfig{Seed: *seed, Tracer: tracer}
		if curves != nil {
			cfg.OnEpisode = curves.OnEpisode
		}
		var err error
		h, err = experiments.NewHarness(cfg)
		if err != nil {
			fatalf("harness: %v", err)
		}
		curves.RecordHarnessFits(h)
	}

	if run("table6") {
		step("table6", "running Table 6 (algorithm comparison; exact MaMoRL rows may take a while)")
		start := time.Now()
		rows, err := h.RunTable6(ctx, base)
		if err != nil {
			fail("table 6", err)
		}
		fmt.Println("=== Table 6: Comparison Among Implemented Algorithms ===")
		fmt.Print(experiments.FormatTable6(rows))
		writeCSV("table6.csv", func(w io.Writer) error { return experiments.WriteTable6CSV(w, rows) })
		logger.Info("table 6 done", "driver", "table6", "elapsed", time.Since(start))
	}

	if run("fig3") {
		step("fig3", "running Figure 3 (Approx vs NN-Approx)")
		p := base
		p.Nodes, p.Edges, p.MaxOutDegree, p.Assets, p.MaxSpeed = 200, 430, 8, 2, 3
		// Table 5's full budget is batch 1000 / 10000 epochs; -nn-epochs
		// bounds the run regardless of -paperscale so the suite stays
		// interactive (pass -nn-epochs 10000 for the full budget).
		opts := neural.TrainOptions{Epochs: *nnEpochs, BatchSize: 256, LearningRate: 0.05}
		if *paperscale {
			opts.BatchSize = neural.DefaultBatchSize
		}
		r, err := h.RunFigure3(ctx, p, opts, *seed)
		if err != nil {
			fail("figure 3", err)
		}
		curves.RecordFigure3Fits(r)
		fmt.Println("=== Figure 3 ===")
		fmt.Print(experiments.FormatFigure3(r))
	}

	if run("fig4") {
		step("fig4", "running Figure 4 (Pareto front)")
		r, err := h.RunFigure4(ctx, base)
		if err != nil {
			fail("figure 4", err)
		}
		fmt.Println("=== Figure 4 ===")
		fmt.Print(experiments.FormatFigure4(r))
		writeCSV("figure4_pareto.csv", func(w io.Writer) error { return experiments.WriteParetoCSV(w, r) })
	}

	var sweeps []experiments.SweepResult
	if run("fig5") || run("fig7") {
		step("fig5", "running Figure 5/7 sweeps (Approx-MaMoRL)")
		var err error
		sweeps, err = h.RunSweeps(ctx, experiments.AlgoApprox, base, quick)
		if err != nil {
			fail("figure 5/7 sweeps", err)
		}
	}
	if run("fig5") {
		fmt.Println("=== Figure 5 ===")
		fmt.Print(experiments.FormatSweeps("Figure 5", experiments.AlgoApprox, sweeps))
		writeCSV("figure5_7_sweeps.csv", func(w io.Writer) error {
			return experiments.WriteSweepsCSV(w, experiments.AlgoApprox, sweeps)
		})
	}
	if run("fig6") {
		step("fig6", "running Figure 6 sweeps (partial knowledge)")
		pkSweeps, err := h.RunSweeps(ctx, experiments.AlgoApproxPK, base, quick)
		if err != nil {
			fail("figure 6 sweeps", err)
		}
		fmt.Println("=== Figure 6 ===")
		fmt.Print(experiments.FormatSweeps("Figure 6", experiments.AlgoApproxPK, pkSweeps))
		writeCSV("figure6_sweeps.csv", func(w io.Writer) error {
			return experiments.WriteSweepsCSV(w, experiments.AlgoApproxPK, pkSweeps)
		})
	}
	if run("fig7") {
		fmt.Println("=== Figure 7 ===")
		fmt.Print(experiments.FormatFigure7(experiments.AlgoApprox, sweeps))
	}

	if run("rendezvous") {
		step("rendezvous", "running the rendezvous study (search + gather)")
		rows, err := h.RunRendezvous(ctx, base)
		if err != nil {
			fail("rendezvous", err)
		}
		fmt.Println("=== Rendezvous (ours; Definition 2 taken to the gathering point) ===")
		fmt.Print(experiments.FormatRendezvous(rows))
	}

	if run("commrange") {
		step("commrange", "running the comm-range study")
		points, err := h.RunCommRange(ctx, base, nil)
		if err != nil {
			fail("comm range", err)
		}
		fmt.Println("=== Comm range (ours; Section 2.4.1's limited communication) ===")
		fmt.Print(experiments.FormatCommRange(points))
	}

	if run("ablation") {
		step("ablation", "running the ablation study (deployment mechanisms)")
		p := base
		p.Assets = 6 // collision-relevant mechanisms need a crowd
		results, err := h.RunAblation(ctx, p)
		if err != nil {
			fail("ablation", err)
		}
		fmt.Println("=== Ablation (not in the paper; see DESIGN.md §2) ===")
		fmt.Print(experiments.FormatAblation(results))
	}

	if run("fig8") {
		step("fig8", "running Figure 8 (transfer learning; builds both basin meshes)")
		carib, err := grid.CaribbeanGrid(*seed)
		if err != nil {
			fatalf("caribbean: %v", err)
		}
		naShore, err := grid.NorthAmericaShoreGrid(*seed)
		if err != nil {
			fatalf("na shore: %v", err)
		}
		r, err := experiments.RunFigure8(ctx, carib, naShore, experiments.Figure8Options{
			Runs: base.Runs, Seed: *seed, Parallel: *parallel,
			Tracer: tracer, Progress: progress,
		})
		if err != nil {
			fail("figure 8", err)
		}
		fmt.Println("=== Figure 8 ===")
		fmt.Print(experiments.FormatFigure8(r))
		writeCSV("figure8_transfer.csv", func(w io.Writer) error { return experiments.WriteTransferCSV(w, r) })
	}
}

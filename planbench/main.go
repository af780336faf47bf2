// Command planbench is the repository's benchmark. It drives one workload
// in one process, checks every output, and prints every metric by name with
// its unit; the last line of standard output is the JSON result
// {"correct", "attempted", "failed", "metrics"}. Lines before it hold the
// report: host (GOMAXPROCS, NumCPU, Go version, CPU model), seed, plans
// attempted, percentile sample counts, the reference-slice time, the raw
// timing beside every host-normalized one, and a sha256 over all plan
// outputs, so two commits' outputs can be compared byte for byte. A failed
// output check makes the command exit 1.
//
// Usage, from the repository root:
//
//	bash planbench/run.sh --workload plan-hot --seed 1 --seconds 20 --trace 0
//
// # Workloads
//
// The code has two uses from the paper: the TMPLAR planning service
// (Section 4.7) and the Table 6 algorithm comparison. The workloads split
// the layers between them.
//
//   - plan-hot: one tenant, the 710-node Caribbean mesh (grid.CaribbeanGrid)
//     with the default model; approx plans only, teams of 2–6 assets, max
//     speed 3–5, sensing radius 1.2 mean edge weights, sources and
//     destination drawn per request. Both clients contend for one catalog
//     entry, so time sits in the entry's single planner lane (Entry.Do) and
//     in approx Decide, whose haversine radius queries dominate.
//   - plan-tenants: 12 synthetic planar grids of 200–800 nodes with D_max
//     6–9, more than tmplard's default catalog capacity of 8. Two hot
//     tenants take about two thirds of the requests; the others rotate, so
//     they miss. Mostly approx, plus approx-pk (region box around the
//     destination), baseline1 and baseline2. Missions are short, so time
//     is carried by the HTTP edge, Catalog.Acquire hits and misses,
//     Scenario.Validate and the frontier fallback; a catalog change that
//     makes loads dearer shows here. Like plan-hot's mesh, the grids are
//     the same for every seed; the seed draws the requests.
//   - table6-batch: experiments.NewHarness, then RunTable6 passes at
//     DefaultParams().Quick() with Parallel = nproc over the consecutive
//     experiment seeds 1..n, in an order the workload seed shuffles; each
//     pass runs all six algorithms on the four Table 6 blocks. It never
//     touches tmplar, the catalog or HTTP, so every serving-layer change
//     predicts no change here. Its time is exact MaMoRL training, synthetic
//     grid generation and how well the experiments executor uses the cores.
//
// Left out on purpose: the async job plane (no open item targets it, and
// status polling would quantize its latency) and serving random walks
// (table6-batch covers them, and their long missions bloat the heap).
//
// # Load model and timing
//
// Closed loop: the serving workloads run 2 clients on 2 keep-alive
// connections to an in-process server configured as tmplard's default
// flags configure it (request logger to io.Discard), over loopback HTTP
// with real JSON; table6-batch waits for each pass. Each seed fixes the
// request sequence and its length (a per-workload rate × --seconds), so
// quality metrics and the output digest repeat exactly across runs of one
// seed. Warm-up requests run before the timed window.
//
// Every timing is host-normalized. The sequence runs in segments; between
// segments nothing is in flight and the benchmark runs a reference slice,
// fixed allocation-free work independent of the program (see host.go).
// A segment's times are scaled by nominal ÷ the median slice time around
// it, so a slow host cancels out and a change to the program does not.
// table6-batch scales by the slice's compute part alone (see host.go).
//
// # End-to-end metrics
//
//	setup_s              s         serving: tmplar.NewServerOpts, POST /api/grids for every grid, the
//	                               first plan per tenant; table6-batch: experiments.NewHarness. Median
//	                               of several set-ups per run.
//	plans_per_s          1/s       completed plans per second of the timed window (an HTTP 200, or in
//	                               table6-batch one seeded run)
//	p50_ms, p99_ms       ms        client latency from send until the whole body is read; the report
//	                               states the sample count and how many lie beyond p99. In
//	                               table6-batch a sample is one pass, too few for ten beyond p99.
//	ok_frac              fraction  plans that returned 200 and passed the output check ÷ attempted
//	found_frac           fraction  plans that found the destination ÷ ok plans
//	collision_free_frac  fraction  plans with zero collisions ÷ ok plans
//	t_total_mean         sim_time  mean T_total (makespan, Definition 2) over found plans
//	f_total_mean         fuel      mean F_total (Definition 1) over found plans
//	rss_peak_mb          MiB       the median over the timed window's segments of each segment's peak
//	                               resident set (VmHWM, reset as the segment starts)
//
// rss_peak_mb is not VmHWM at exit: on table6-batch that single peak
// depends on which memory-heavy runs the executor happens to overlap, and
// spread 86–115 MiB over five seeds.
//
// The output check requires HTTP 200; one route per asset with one leg per
// step; legs chaining from each asset's source along grid edges; route
// time and fuel equal to the sums over their legs; t_total equal to the
// longest route time and f_total to the total route fuel. In table6-batch
// exact MaMoRL must be N/A for memory on exactly the two blocks
// EXPERIMENTS.md names.
//
// # Per-layer metrics
//
// --trace 1 adds a traced run that replays the same sequence with the same
// clients. For each approx request the benchmark calls the layers in the
// order Server.plan does: json.Unmarshal into tmplar.PlanRequest,
// Catalog.Acquire, Scenario.Validate, Entry.Do (its fn stamps the queue
// wait), sim.RunContext on approx.NewPlanner(Entry.Model(), Entry.Ext())
// wrapped in a timing planner and a counting model, Entry.Release. The
// replayed outcomes must equal the HTTP run's. Other algorithms are timed
// only at Handler().ServeHTTP, so the benchmark keeps no copy of the
// algorithm switch; their bodies must equal the HTTP run's byte for byte.
// The benchmark records the spans itself (name, start, end, parent,
// request), keeps them in memory and writes them to --out when the run
// ends. A span's self time is its duration minus the time its children
// cover. Each metric below names the end-to-end metric and workload it
// should move:
//
//	tmplar.serve_ms.p50          ServeHTTP per plan, no transport           p50_ms on plan-tenants
//	tmplar.resp_kb.mean          response body size                         p50_ms on plan-tenants
//	catalog.acquire_us.p50       Catalog.Acquire, hits                      p50_ms on plan-tenants
//	catalog.load_ms.p50          Catalog.Acquire, misses                    p50_ms on plan-tenants; setup_s
//	catalog.hit_frac             Stats() hits ÷ (hits + misses)             explains plan-tenants
//	catalog.loads_per_kplan      Stats().Loads per 1000 plans               plans_per_s on plan-tenants
//	catalog.wait_ms.p50, .p99    Entry.Do call until its fn starts          p50_ms, p99_ms, plans_per_s on
//	                                                                        plan-hot; ≈0 on plan-tenants
//	sim.validate_us.p50          Scenario.Validate                          p50_ms on plan-tenants
//	sim.mission_ms.p50           sim.RunContext                             p50_ms on both serving workloads
//	sim.self_ms.p50              RunContext minus its Decide calls          plans_per_s on plan-hot
//	sim.steps_per_plan           count                                      none; a change means the plans changed
//	approx.decide_us.p50, .p99   Planner.Decide via the timing planner      plans_per_s on plan-hot
//	approx.decides_per_plan      count                                      none
//	approx.decide_share          Decide time ÷ mission time                 plans_per_s on plan-hot
//	model.predicts_per_decide    counting model wrapper                     plans_per_s on plan-hot
//	model.predict_share          predict time ÷ Decide time                 plans_per_s on plan-hot
//	setup.server_s               tmplar.NewServerOpts                       setup_s on both serving workloads
//	setup.upload_s               POST /api/grids for all grids              setup_s on plan-tenants
//	setup.warm_s                 first plan per tenant                      setup_s on both serving workloads
//	setup.harness_s              experiments.NewHarness                     setup_s on table6-batch
//	experiments.busy_frac        Σ RunStats.CPUTime ÷ (wall × Parallel)     plans_per_s on table6-batch
//	experiments.cpu_s.{mamorl,approx,approx_pk,baseline1,baseline2,random}
//	                             RunStats.CPUTime per algorithm per pass    plans_per_s on table6-batch
//	grid.generate_ms.p50         GenerateSynthetic at Table 6's shapes      plans_per_s on table6-batch
//	runtime.alloc_kb_per_plan    TotalAlloc change per plan, untraced run   plans_per_s, rss_peak_mb on all
//	runtime.gc_cpu_frac          runtime/metrics GC CPU ÷ total CPU         plans_per_s on all three
//	host.ref_ms                  median reference-slice time                nothing; shows the host's state
//	bench.trace_overhead_frac    traced wall ÷ untraced wall − 1; negative  nothing
//	                             when the skipped transport outweighs spans
//
// Every per-layer metric is printed on every workload; one the workload
// does not cross reads 0, and the report's "unmeasured" field says which
// and why, including the metrics estimated rather than timed in place.
package main

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	rtmetrics "runtime/metrics"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 15

func main() {
	var (
		workload = flag.String("workload", "", "plan-hot, plan-tenants or table6-batch")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 20, "nominal length of the timed window")
		trace    = flag.Int("trace", 0, "1 adds the traced replay and prints the per-layer metrics")
		outDir   = flag.String("out", ".bench_build", "directory for the span dump")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "planbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	rep := newReport(*workload, *seed, *seconds, *trace == 1, *outDir)
	defer rep.clock.close()
	var err error
	switch *workload {
	case "plan-hot", "plan-tenants":
		err = runServing(*workload, *seed, *seconds, rep.traced, rep)
	case "table6-batch":
		err = runTable6Batch(*seed, *seconds, rep.traced, rep)
	default:
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "planbench:", err)
		os.Exit(1)
	}
	if err := rep.finish(); err != nil {
		fmt.Fprintln(os.Stderr, "planbench:", err)
		os.Exit(1)
	}
	if !rep.correct() {
		os.Exit(1)
	}
}

// perLayer lists every per-layer metric, in the order BENCHMARK.json
// declares them.
var perLayer = []struct{ name, unit string }{
	{"tmplar.serve_ms.p50", "ms"},
	{"tmplar.resp_kb.mean", "KiB"},
	{"catalog.acquire_us.p50", "us"},
	{"catalog.load_ms.p50", "ms"},
	{"catalog.hit_frac", "fraction"},
	{"catalog.loads_per_kplan", "count"},
	{"catalog.wait_ms.p50", "ms"},
	{"catalog.wait_ms.p99", "ms"},
	{"sim.validate_us.p50", "us"},
	{"sim.mission_ms.p50", "ms"},
	{"sim.self_ms.p50", "ms"},
	{"sim.steps_per_plan", "count"},
	{"approx.decide_us.p50", "us"},
	{"approx.decide_us.p99", "us"},
	{"approx.decides_per_plan", "count"},
	{"approx.decide_share", "fraction"},
	{"model.predicts_per_decide", "count"},
	{"model.predict_share", "fraction"},
	{"setup.server_s", "s"},
	{"setup.upload_s", "s"},
	{"setup.warm_s", "s"},
	{"setup.harness_s", "s"},
	{"experiments.busy_frac", "fraction"},
	{"experiments.cpu_s.mamorl", "s"},
	{"experiments.cpu_s.approx", "s"},
	{"experiments.cpu_s.approx_pk", "s"},
	{"experiments.cpu_s.baseline1", "s"},
	{"experiments.cpu_s.baseline2", "s"},
	{"experiments.cpu_s.random", "s"},
	{"grid.generate_ms.p50", "ms"},
	{"runtime.alloc_kb_per_plan", "KiB"},
	{"runtime.gc_cpu_frac", "fraction"},
	{"host.ref_ms", "ms"},
	{"bench.trace_overhead_frac", "fraction"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// report gathers a run's metrics and the context every report records.
type report struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   int      `json:"seconds"`
	Host      hostInfo `json:"host"`
	HostRefMS float64  `json:"host_ref_ms"`
	Slices    int      `json:"reference_slices"`
	Attempted int      `json:"plans_attempted"`
	Failed    int      `json:"plans_failed"`
	Digest    string   `json:"plans_sha256"`
	// Samples holds the sample count behind every percentile, and how many
	// samples lie beyond each p99.
	Samples map[string]int `json:"percentile_samples"`
	// Raw holds the raw counterpart of every host-normalized timing.
	Raw        metrics           `json:"raw"`
	EndToEnd   metrics           `json:"end_to_end"`
	PerLayer   metrics           `json:"per_layer,omitempty"`
	Unmeasured map[string]string `json:"unmeasured,omitempty"`
	SpansFile  string            `json:"spans_file,omitempty"`
	Errors     []string          `json:"errors,omitempty"`

	traced bool
	outDir string
	clock  *hostClock
}

func newReport(workload string, seed int64, seconds int, traced bool, outDir string) *report {
	r := &report{
		Workload: workload, Seed: seed, Seconds: seconds, Host: readHostInfo(),
		Samples: map[string]int{}, Raw: metrics{}, EndToEnd: metrics{},
		traced: traced, outDir: outDir, clock: newHostClock(workload == "table6-batch"),
	}
	if traced {
		r.PerLayer = metrics{}
	}
	return r
}

func (r *report) fail(err error) { r.Errors = append(r.Errors, err.Error()) }

func (r *report) correct() bool { return len(r.Errors) == 0 && r.Failed == 0 }

// timing records a host-normalized timing with its raw counterpart.
func (r *report) timing(m metrics, name, unit string, norm, raw float64) {
	m.set(name, unit, norm)
	r.Raw.set(name, unit, raw)
}

// latency records p50_ms and p99_ms over one window's samples.
func (r *report) latency(w window) {
	r.timing(r.EndToEnd, "p50_ms", "ms", median(w.latMS), median(w.rawMS))
	p99 := quantile(w.latMS, 0.99)
	r.timing(r.EndToEnd, "p99_ms", "ms", p99, quantile(w.rawMS, 0.99))
	r.Samples["p50_ms"] = len(w.latMS)
	r.Samples["p99_ms"] = len(w.latMS)
	r.Samples["p99_ms.beyond"] = beyond(w.latMS, p99)
}

// setup records setup_s, the median of a run's set-ups.
func (r *report) setup(w window) {
	r.timing(r.EndToEnd, "setup_s", "s", median(w.latMS)/1e3, median(w.rawMS)/1e3)
	r.Samples["setup_s"] = len(w.latMS)
}

// plans records throughput, latency, quality and memory of the timed
// window, in which completed plans completed.
func (r *report) plans(w window, q quality, completed int) {
	r.EndToEnd.set("rss_peak_mb", "MiB", median(w.rssMiB))
	r.Samples["rss_peak_mb"] = len(w.rssMiB)
	r.timing(r.EndToEnd, "plans_per_s", "1/s", float64(completed)/w.norm.Seconds(), float64(completed)/w.raw.Seconds())
	r.latency(w)
	q.metrics(r.EndToEnd)
	r.Attempted = q.attempted
	r.Failed = q.attempted - q.ok
	r.Digest = hex.EncodeToString(q.digest[:])
}

func (r *report) runtime(a, b runtimeSample, plans int) {
	if !r.traced {
		return
	}
	r.PerLayer.set("runtime.alloc_kb_per_plan", "KiB", safeDiv(float64(b.totalAlloc-a.totalAlloc)/1024, float64(plans)))
	r.PerLayer.set("runtime.gc_cpu_frac", "fraction", safeDiv(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU))
}

// unmeasured records why some per-layer metrics are 0 or estimated.
func (r *report) unmeasured(why map[string]string) {
	if r.Unmeasured == nil {
		r.Unmeasured = map[string]string{}
	}
	for k, v := range why {
		r.Unmeasured[k] = v
	}
}

// overhead records how much longer the traced replay took than the timed
// window it replays. It is negative where calling the layers directly
// saves more HTTP transport than the spans cost.
func (r *report) overhead(untraced, traced window) {
	r.PerLayer.set("bench.trace_overhead_frac", "fraction", safeDiv(traced.norm.Seconds(), untraced.norm.Seconds())-1)
}

// cpuClasses reads the runtime's estimate of GC CPU and total CPU seconds.
func cpuClasses() (gc, total float64) {
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() == rtmetrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == rtmetrics.KindFloat64 {
		total = s[1].Value.Float64()
	}
	return gc, total
}

// finish adds the metrics read at exit and prints the report, then the
// result line.
func (r *report) finish() error {
	r.HostRefMS = r.clock.refMS()
	r.Slices = len(r.clock.slices)
	if r.traced {
		r.PerLayer.set("host.ref_ms", "ms", r.HostRefMS)
		// Every per-layer metric is printed; one a workload does not cross
		// reads 0 and is named in Unmeasured.
		for _, pl := range perLayer {
			if _, ok := r.PerLayer[pl.name]; !ok {
				r.PerLayer.set(pl.name, pl.unit, 0)
			}
		}
	}
	pretty, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(pretty))
	res := struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, r.EndToEnd}
	if r.traced {
		res.Metrics = r.PerLayer
	}
	if res.Attempted < 1 {
		return errors.New("no plans attempted")
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

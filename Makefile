GO ?= go
# make bench writes its report under the ignored .bench_build/, so it never
# overwrites a stored BENCH_*.json baseline.
BENCH_OUT ?= .bench_build/bench.json
# bench-compare inputs: the stored baseline and the report to vet against it.
BENCH_OLD ?= BENCH_8.json
BENCH_NEW ?= $(BENCH_OUT)
BENCH_THRESHOLD ?= 15

.PHONY: build vet fmt-check test race race-exec loadgen-smoke bench-smoke fuzz-smoke experiments-smoke planbench-test check bench bench-compare

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt-check fails when any file is not gofmt-clean (prints the offenders).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/... .

# race-exec focuses the detector on the parallel experiment executor and the
# instance cache its leaf runs share (one per driver call: each seeded grid
# built once, by the first leaf to ask, while the others wait on its once),
# the simulator it fans out over, the lock-free trace ring they emit into,
# the metrics sampler/SSE fan-out, the SLO burn-rate engine, the async job
# queue, the resource-budget accounting, the model registry, the training
# stack (serial fits whose trained networks serve concurrent planner clones
# through neural's pooled inference scratch; flat sample tensors), the
# continuous profiler's capture ring, the tenant-aware planner catalog
# (single-flight loads, concurrent Do), the grid's sensing-ball tables
# (lazily filled on first query by whichever request gets there, published
# with atomic stores, tables added copy-on-write under a mutex) and its
# breadth-first order memo (each source's order filled as far as frontier
# walks search: an immutable prefix per source, extended under a mutex and
# read lock-free through one atomic pointer) — the packages with real
# concurrency.
race-exec:
	$(GO) test -race ./internal/experiments/... ./internal/sim/... ./internal/trace/... ./internal/obs/... ./internal/slo/... ./internal/jobs/... ./internal/limits/... ./internal/registry/... ./internal/neural/... ./internal/linreg/... ./internal/approx/... ./internal/tensor/... ./internal/prof/... ./internal/catalog/... ./internal/grid/...

# loadgen-smoke drives a short open-loop run (2s at 20 rps) against an
# in-process tmplard and fails if any default SLO breaches.
loadgen-smoke:
	$(GO) test ./cmd/loadgen/ -run 'TestSmoke|TestMultiTenantSmoke|TestFailsOnInducedBreach' -v

# bench-smoke runs the hot-path micro-benchmarks, the in-process HTTP plan
# benchmark and the serial NN trainer's benchmark once each, so benchmark
# set-up that panics fails the build.
bench-smoke:
	$(GO) test -run '^$$' -bench 'SensingQuery|ScenarioValidate|FrontierStep|HopOrderCold|ThetaContext|NavigatorStep|ApproxDecide|ExactDecide|ExactTrain|MissionStep|GenerateSynthetic|PlanResponseJSON|ServePlan|CatalogDecide|Table5NNTraining' -benchtime 1x .

# fuzz-smoke runs each fuzz target for 10 s: the plan response encoder
# against encoding/json, grid.Decode and grid.Subgraph on arbitrary input,
# grid.Beyond's key test against Distance on arbitrary two-node grids,
# grid.HopOrder's memoized breadth-first order (cap lowered so walks run
# past it) against a plain BFS on arbitrary small directed grids, exact
# MaMoRL's joint-state table against its map-based oracle, and slo.Parse
# on arbitrary SLO configs. -fuzz takes one target per invocation.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzPlanResponseJSON$$' -fuzztime 10s ./internal/tmplar
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s ./internal/grid
	$(GO) test -run '^$$' -fuzz '^FuzzSubgraph$$' -fuzztime 10s ./internal/grid
	$(GO) test -run '^$$' -fuzz '^FuzzBeyond$$' -fuzztime 10s ./internal/grid
	$(GO) test -run '^$$' -fuzz '^FuzzHopOrder$$' -fuzztime 10s ./internal/grid
	$(GO) test -run '^$$' -fuzz '^FuzzStateTable$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/slo

# experiments-smoke runs every experiment driver but the sweeps once at
# quick scale through the CLI, which has no tests of its own; it exits 1 if
# any driver fails.
experiments-smoke:
	$(GO) run ./cmd/experiments -only table6,fig3,fig4,rendezvous,commrange,ablation,fig8 -nn-epochs 20 -quiet -parallel 2

# planbench-test vets and tests the benchmark's own module, which the root
# `go test ./...` does not reach; it compiles against the root packages.
planbench-test:
	cd planbench && $(GO) vet ./... && $(GO) test ./...

# check is what CI runs (.github/workflows/ci.yml).
check: build vet fmt-check test race bench-smoke fuzz-smoke experiments-smoke loadgen-smoke planbench-test

# bench runs the full suite and writes a machine-readable report (ns/op,
# B/op, allocs/op and every custom metric) to $(BENCH_OUT).
bench:
	@mkdir -p $(dir $(BENCH_OUT))
	$(GO) test -bench=. -benchmem -run '^$$' . | $(GO) run ./cmd/benchjson -o $(BENCH_OUT)

# bench-compare diffs two bench reports and fails on ns/op regressions
# beyond $(BENCH_THRESHOLD) percent:
#   make bench-compare BENCH_OLD=BENCH_2.json BENCH_NEW=BENCH_3.json
bench-compare:
	$(GO) run ./cmd/benchjson -compare -threshold $(BENCH_THRESHOLD) $(BENCH_OLD) $(BENCH_NEW)

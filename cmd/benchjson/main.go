// Command benchjson converts `go test -bench -benchmem` text output into a
// machine-readable JSON report. It reads the benchmark stream on stdin,
// echoes it unchanged to stdout (so it can sit at the end of a pipe without
// hiding progress), and writes the parsed report to the -o file.
//
// Usage:
//
//	go test -bench=. -benchmem | benchjson -o BENCH.json
//	benchjson -compare old.json new.json
//	benchjson -compare -threshold 10 old.json new.json
//	benchjson -profdiff old-capture.json new-capture.json
//	benchjson -profdiff -kind heap -prof-threshold 3 old.pb.gz new.pb.gz
//
// Each "BenchmarkName-P  N  v1 unit1  v2 unit2 ..." line is parsed with
// every reported metric keyed by its unit (ns/op, B/op, allocs/op and any
// b.ReportMetric custom units). The repeats of one benchmark that `go test
// -count=N` prints fold into one entry holding each metric's median, min
// and max, so a report carries its own spread.
//
// A report records the host it ran on: the CPU model `go test` prints and
// the core count (num_cpu) of the machine benchjson runs on, which in a
// pipe is the benchmarks'. Each entry carries its GOMAXPROCS as procs.
//
// In -compare mode the command diffs two reports instead: for every
// benchmark present in both files it prints the median ns/op and allocs/op
// deltas, and exits nonzero when any ns/op regression exceeds both
// -threshold percent and the two sides' spread (each side's max − min) — a
// CI tripwire against silent performance drift that a noisy host's
// run-to-run swing does not trip. When the two reports name different CPU
// models or core counts it prints a warning first: a delta across hosts is
// not a result.
//
// In -profdiff mode the command diffs two profiles: each side may be a raw
// pprof protobuf (a /debug/prof ?format=raw download, a -cpuprofile file) or
// a capture JSON (GET /debug/prof/{id}). It prints
// how every function's flat share shifted and exits nonzero when any
// function grew by more than -prof-threshold percentage points — the same
// tripwire, aimed at where the time went rather than how much.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one benchmark's result: a parsed line, or the fold of its
// repeated lines. Metrics holds each metric's value, for a fold its median.
// A fold of Runs > 1 lines also records each metric's Min and Max, and
// Iterations totals its lines'; reports written before folding have one
// line per entry and none of these fields.
type Benchmark struct {
	Name       string             `json:"name"`
	Procs      int                `json:"procs,omitempty"`
	Iterations int64              `json:"iterations"`
	Runs       int                `json:"runs,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
	Min        map[string]float64 `json:"min,omitempty"`
	Max        map[string]float64 `json:"max,omitempty"`
}

// Report is the whole run.
type Report struct {
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	Package    string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	NumCPU     int         `json:"num_cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "output JSON file (required unless -compare/-profdiff)")
	compare := flag.Bool("compare", false, "compare two report files: benchjson -compare old.json new.json")
	threshold := flag.Float64("threshold", 15, "with -compare, exit nonzero when any ns/op regression exceeds this percentage")
	profDiff := flag.Bool("profdiff", false, "compare two profiles (raw pprof or capture JSON): benchjson -profdiff old new")
	profKind := flag.String("kind", "cpu", "with -profdiff, which profile kind to compare: cpu, heap, goroutine, mutex, block")
	profThreshold := flag.Float64("prof-threshold", 5, "with -profdiff, exit nonzero when any function's flat share grows by more than this many percentage points")
	flag.Parse()

	if *profDiff {
		if flag.NArg() != 2 {
			log.Fatal("benchjson: -profdiff wants exactly two arguments: old new")
		}
		regressions, err := runProfDiff(os.Stdout, flag.Arg(0), flag.Arg(1), *profKind, *profThreshold)
		if err != nil {
			log.Fatalf("benchjson: %v", err)
		}
		if regressions > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d function(s) grew beyond %.0f flat-share points\n", regressions, *profThreshold)
			os.Exit(1)
		}
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			log.Fatal("benchjson: -compare wants exactly two arguments: old.json new.json")
		}
		regressions, err := runCompare(os.Stdout, flag.Arg(0), flag.Arg(1), *threshold)
		if err != nil {
			log.Fatalf("benchjson: %v", err)
		}
		if regressions > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed beyond %.0f%%\n", regressions, *threshold)
			os.Exit(1)
		}
		return
	}
	if *out == "" {
		log.Fatal("benchjson: -o file is required")
	}

	rep, err := readReport(os.Stdin, os.Stdout)
	if err != nil {
		log.Fatalf("benchjson: read: %v", err)
	}

	f, err := os.Create(*out)
	if err != nil {
		log.Fatalf("benchjson: %v", err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		log.Fatalf("benchjson: write: %v", err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(rep.Benchmarks), *out)
}

// readReport parses a `go test -bench` stream, echoing each line to echo,
// into a report of this host with repeats folded.
func readReport(in io.Reader, echo io.Writer) (Report, error) {
	rep := Report{NumCPU: runtime.NumCPU()}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			rep.Package = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseLine(line); ok {
				rep.Benchmarks = append(rep.Benchmarks, b)
			}
		}
	}
	rep.Benchmarks = foldRepeats(rep.Benchmarks)
	return rep, sc.Err()
}

// foldRepeats merges the entries that share a name and procs into one, in
// order of first appearance: Metrics becomes each metric's median over the
// entries, Min and Max its extremes. A benchmark seen once keeps its entry
// unchanged.
func foldRepeats(bs []Benchmark) []Benchmark {
	type key struct {
		name  string
		procs int
	}
	groups := map[key][]Benchmark{}
	var order []key
	for _, b := range bs {
		k := key{b.Name, b.Procs}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], b)
	}
	out := make([]Benchmark, 0, len(order))
	for _, k := range order {
		g := groups[k]
		if len(g) == 1 {
			out = append(out, g[0])
			continue
		}
		f := Benchmark{Name: k.name, Procs: k.procs, Runs: len(g), Metrics: map[string]float64{},
			Min: map[string]float64{}, Max: map[string]float64{}}
		samples := map[string][]float64{}
		for _, b := range g {
			f.Iterations += b.Iterations
			for unit, v := range b.Metrics {
				samples[unit] = append(samples[unit], v)
			}
		}
		for unit, vs := range samples {
			sort.Float64s(vs)
			f.Metrics[unit] = median(vs)
			f.Min[unit], f.Max[unit] = vs[0], vs[len(vs)-1]
		}
		out = append(out, f)
	}
	return out
}

// median returns the middle value of the sorted vs (the mean of the two
// middle ones for an even count).
func median(vs []float64) float64 {
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// parseLine parses "BenchmarkFoo-8   123   45.6 ns/op   7 B/op ...".
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Metrics: map[string]float64{}}
	if i := strings.LastIndex(b.Name, "-"); i > 0 {
		if p, err := strconv.Atoi(b.Name[i+1:]); err == nil {
			b.Procs = p
			b.Name = b.Name[:i]
		}
	}
	b.Name = strings.TrimPrefix(b.Name, "Benchmark")
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b.Iterations = iters
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}

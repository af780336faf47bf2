package experiments

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/routeplanning/mamorl/internal/approx"
	"github.com/routeplanning/mamorl/internal/core"
	"github.com/routeplanning/mamorl/internal/obs"
)

// TestSamplerDeterminism pins the live ops plane's contract: running the
// time-series sampler (with the runtime collector) and serving a live SSE
// subscriber while an experiment evaluates must leave the seed-aligned
// PerRun records byte-identical to an unobserved run. Sampling only reads
// the registry; nothing feeds back into planning.
func TestSamplerDeterminism(t *testing.T) {
	h, err := NewHarness(approx.TrainConfig{
		GridNodes: 30, GridEdges: 55, SampleEpisodes: 2,
		Core: core.Config{Episodes: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := Params{
		Nodes: 60, Edges: 120, MaxOutDegree: 5, Assets: 2, MaxSpeed: 3,
		Episodes: 2, CommEvery: 3, Runs: 3, SensingRadiusFactor: 1.2, Seed: 7,
	}

	plain, err := h.Evaluate(context.Background(), AlgoApprox, p)
	if err != nil {
		t.Fatal(err)
	}

	// Second evaluation under full observation: metrics registry, sampler
	// ticking fast on the wall clock, runtime collector folding in
	// runtime/metrics, and a live SSE client consuming the stream.
	observed := p
	observed.Metrics = obs.New()
	RegisterMetricsHelp(observed.Metrics)
	rc := obs.NewRuntimeCollector(observed.Metrics)
	sampler := obs.NewSampler(observed.Metrics, obs.SamplerOptions{
		Interval: time.Millisecond, Capacity: 64, OnTick: []func(){rc.Collect},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go sampler.Run(ctx)

	srv := httptest.NewServer(obs.StreamHandler(sampler, 0))
	defer srv.Close()
	req, err := http.NewRequestWithContext(ctx, "GET", srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frames := make(chan string, 1)
	go func() {
		br := bufio.NewReader(resp.Body)
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				return
			}
			if strings.HasPrefix(line, "data: ") {
				select {
				case frames <- line:
				default:
				}
			}
		}
	}()

	withSampler, err := h.Evaluate(context.Background(), AlgoApprox, observed)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(plain.PerRun, withSampler.PerRun) {
		t.Fatalf("PerRun diverged under the sampler:\n%+v\nvs\n%+v", plain.PerRun, withSampler.PerRun)
	}
	if plain.FoundRuns != withSampler.FoundRuns || plain.MeanT() != withSampler.MeanT() {
		t.Fatalf("aggregates diverged: %+v vs %+v", plain, withSampler)
	}

	// The plane actually observed: the stream delivered at least one frame
	// carrying the run counter, and the sampler retained history.
	select {
	case frame := <-frames:
		if !strings.Contains(frame, "experiments_runs_total") && !strings.Contains(frame, "go_goroutines") {
			t.Errorf("SSE frame carries no expected series: %s", frame)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no SSE frame within 5s of an observed evaluation")
	}
	if len(sampler.History()) == 0 {
		t.Error("sampler retained no history")
	}
	if got := observed.Metrics.CounterValue("experiments_runs_total", "algorithm", AlgoApprox); got != uint64(p.Runs) {
		t.Errorf("runs_total = %d, want %d", got, p.Runs)
	}
}

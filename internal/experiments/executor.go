package experiments

import "sync"

// This file is the experiment executor: every driver in the package fans
// its independent cells (scenario × algorithm, sweep points, comm-range
// factors, ablation variants, train/eval basins) through these two
// primitives instead of hand-rolling goroutine pools.
//
// The concurrency budget is a single limiter derived from Params.Parallel
// and shared by a whole driver invocation. Only leaf mission runs — the
// per-seed executions inside runCell, where all the CPU time is spent —
// consume budget tokens; coordination-level fan-out (a Table 6 cell, a
// sweep point) runs unbudgeted goroutines that spend their life waiting on
// their leaf runs. Taking tokens at both levels would deadlock as soon as
// cells outnumber the budget: every token would be held by a coordinator
// blocked on leaf runs that can never get one.
//
// Determinism contract: results are written to fixed indices, so the output
// is identical whatever the completion order, and every leaf run derives
// its randomness from its run index alone, through its driver's seed
// schedule. PerRun[i] therefore holds the same bytes at Parallel=8 as at
// Parallel=1 (the *ParallelDeterminism tests pin this), which is what keeps
// the seed-paired t-tests valid under parallel execution.

// limiter bounds concurrent leaf runs. A nil limiter means serial: the
// caller's loop runs inline with zero goroutines, exactly the pre-parallel
// code path, so wall-clock-timing studies (Figure 7) stay contention-free
// at the default Parallel ≤ 1.
type limiter chan struct{}

// limiterFor derives the shared run budget from Params.Parallel.
func limiterFor(p Params) limiter {
	if p.Parallel <= 1 {
		return nil
	}
	return make(limiter, p.Parallel)
}

// runIndexed evaluates fn(i) for i in [0, n), each result at its fixed slot
// out[i]. This is the leaf level: with a limiter, each item runs in its own
// goroutine and holds one budget token while computing.
func runIndexed[T any](lim limiter, n int, fn func(int) T) []T {
	out := make([]T, n)
	if lim == nil {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lim <- struct{}{}
			defer func() { <-lim }()
			out[i] = fn(i)
		}(i)
	}
	wg.Wait()
	return out
}

// fanIndexed evaluates coordination-level cells concurrently without
// consuming budget tokens (see the package comment above for why). With a
// nil limiter, cells run serially in index order. Every cell runs; the
// first error in cell order, whatever order the cells finished in, is
// returned in place of the results.
func fanIndexed[T any](lim limiter, n int, fn func(int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	if lim == nil {
		for i := 0; i < n; i++ {
			out[i], errs[i] = fn(i)
		}
	} else {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				out[i], errs[i] = fn(i)
			}(i)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

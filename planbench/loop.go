package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// window is the timing of one closed-loop pass over a request sequence.
type window struct {
	norm, raw time.Duration // summed segment times, host-normalized and raw
	latMS     []float64     // per-request latency, host-normalized, ms
	rawMS     []float64     // the same, raw
	factor    []float64     // per-request host factor (nominal ÷ measured)
	rssMiB    []float64     // peak resident set of each segment
}

// closedLoop runs do(client, i) for every i in [0, n) on `clients`
// goroutines. Each client sends its next request only after the previous one
// returns, taking the next index from a shared counter. The sequence runs in
// segments of segLen requests; between segments nothing is in flight:
// settle(lo, hi) checks the segment's outputs, then the host clock runs a
// reference slice. A segment's times are scaled by the factor of the slices
// around it.
func (c *hostClock) closedLoop(n, segLen, clients int, do func(client, i int), settle func(lo, hi int) error) (window, error) {
	w := window{latMS: make([]float64, n), rawMS: make([]float64, n), factor: make([]float64, n)}
	raw := make([]time.Duration, n)
	var segs []time.Duration
	slices := []time.Duration{c.measure()}
	for lo := 0; lo < n; lo += segLen {
		hi := min(lo+segLen, n)
		if err := resetPeakRSS(); err != nil {
			return w, err
		}
		var next atomic.Int64
		next.Store(int64(lo))
		var wg sync.WaitGroup
		t0 := time.Now()
		for cl := 0; cl < clients; cl++ {
			wg.Add(1)
			go func(cl int) {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= hi {
						return
					}
					s := time.Now()
					do(cl, i)
					raw[i] = time.Since(s)
				}
			}(cl)
		}
		wg.Wait()
		segs = append(segs, time.Since(t0))
		rss, err := peakRSSMiB()
		if err != nil {
			return w, err
		}
		w.rssMiB = append(w.rssMiB, rss)
		if err := settle(lo, hi); err != nil {
			return w, err
		}
		slices = append(slices, c.measure())
	}
	for k, f := range factors(c.nominal(), slices) {
		lo := k * segLen
		for i := lo; i < min(lo+segLen, n); i++ {
			w.rawMS[i] = float64(raw[i]) / 1e6
			w.latMS[i] = w.rawMS[i] * f
			w.factor[i] = f
		}
		w.raw += segs[k]
		w.norm += time.Duration(float64(segs[k]) * f)
	}
	return w, nil
}

// repeat runs fn n times, one call per segment; after(i) runs untimed
// once call i has returned.
func (c *hostClock) repeat(n int, fn, after func(i int) error) (window, error) {
	errs := make([]error, n)
	return c.closedLoop(n, 1, 1, func(_, i int) { errs[i] = fn(i) }, func(i, _ int) error {
		if errs[i] != nil {
			return errs[i]
		}
		return after(i)
	})
}

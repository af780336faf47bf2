package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// The reference slice is fixed work that does not depend on the program
// under test. It has two parts, because this host slows down in two ways
// that hit the serving path differently:
//
//   - compute: every GOMAXPROCS worker at once chases pointers through a
//     256 KiB cyclic permutation with integer hashing and a Newton square
//     root, tracking how fast a busy core runs;
//   - hand-off: two goroutines bounce a token over unbuffered channels,
//     tracking how quickly a parked goroutine (and an idle core) wakes up,
//     which dominates a closed loop of short requests.
//
// Timings are scaled by nominal ÷ the median slice time around them, so a
// slow or busy host cancels out while a change to the program does not.
// The serving workloads use both parts. table6-batch uses the compute part
// alone: its passes keep both cores computing and rarely park a goroutine,
// and over five seeds the hand-off part moved its normalized throughput by
// 6% where the compute part alone left 1.4%.
const (
	refEntries  = 1 << 16 // 256 KiB of uint32
	refIters    = 40000   // chase steps per worker per slice
	refHandoffs = 2000    // round trips per slice
	// The nominal slice times are typical of a 2-core Xeon VM, so that
	// normalized and raw figures read alike there.
	nominalRef     = 3500 * time.Microsecond // both parts
	nominalCompute = 2500 * time.Microsecond // compute part alone
	// refWindow is how many slices around a segment set its factor: the
	// median of three on each side rejects a single disturbed slice but
	// follows drifts lasting a few segments.
	refWindow = 3
)

// refPerm is one cycle through every entry (Sattolo's algorithm), built at
// start-up, so the chase never settles into a short loop.
var refPerm = func() []uint32 {
	p := make([]uint32, refEntries)
	for i := range p {
		p[i] = uint32(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := refEntries - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		p[i], p[j] = p[j], p[i]
	}
	return p
}()

// refWork runs one worker's share of the compute part from start. It
// allocates nothing; the result only keeps the loop from being discarded.
func refWork(start uint32) uint64 {
	h := uint64(14695981039346656037)
	f := 1.0
	idx := start
	for i := 0; i < refIters; i++ {
		idx = refPerm[idx]
		h = (h ^ uint64(idx)) * 1099511628211
		f = sqrt(f*1.0000001 + float64(h&1023))
	}
	return h + uint64(f)
}

// sqrt is Newton's method to a fixed count, so the slice does not depend on
// how the standard library or the CPU implements square roots.
func sqrt(v float64) float64 {
	x := v/2 + 1
	for k := 0; k < 4; k++ {
		x = (x + v/x) / 2
	}
	return x
}

// hostClock owns the persistent goroutines of the reference slice and
// every slice time it measured.
type hostClock struct {
	computeOnly bool // time the compute part alone

	start  []chan uint32
	done   chan struct{}
	sinks  []uint64 // one per worker, written only by that worker
	ping   chan int
	pong   chan int
	slices []time.Duration
}

func newHostClock(computeOnly bool) *hostClock {
	n := runtime.GOMAXPROCS(0)
	c := &hostClock{computeOnly: computeOnly, done: make(chan struct{}), sinks: make([]uint64, n), ping: make(chan int), pong: make(chan int)}
	for w := 0; w < n; w++ {
		ch := make(chan uint32)
		c.start = append(c.start, ch)
		go func(w int) {
			for s := range ch {
				c.sinks[w] = refWork(s)
				c.done <- struct{}{}
			}
		}(w)
	}
	go func() {
		for v := range c.ping {
			c.pong <- v
		}
	}()
	c.slices = make([]time.Duration, 0, 1<<14)
	// The first slices of a process run on cold caches and a cold
	// scheduler; they are not kept.
	for i := 0; i < 8; i++ {
		c.measure()
	}
	c.slices = c.slices[:0]
	return c
}

// measure runs one reference slice and returns the time of the parts the
// clock uses. Nothing else of the benchmark may be running when it is
// called. It allocates nothing.
func (c *hostClock) measure() time.Duration {
	t0 := time.Now()
	for w, ch := range c.start {
		ch <- uint32(w * (refEntries / len(c.start)))
	}
	for range c.start {
		<-c.done
	}
	d := time.Since(t0)
	if !c.computeOnly {
		for i := 0; i < refHandoffs; i++ {
			c.ping <- i
			<-c.pong
		}
		d = time.Since(t0)
	}
	if len(c.slices) < cap(c.slices) {
		c.slices = append(c.slices, d)
	}
	return d
}

// nominal is the slice time the clock's factors scale to.
func (c *hostClock) nominal() time.Duration {
	if c.computeOnly {
		return nominalCompute
	}
	return nominalRef
}

// factors returns the host factor (nominal ÷ measured) of each of the
// segments between consecutive slices in s: segment k lies between s[k]
// and s[k+1], and its factor uses the median of the refWindow slices on
// each side of it.
func factors(nominal time.Duration, s []time.Duration) []float64 {
	f := make([]float64, max(0, len(s)-1))
	win := make([]float64, 0, 2*refWindow)
	for k := range f {
		win = win[:0]
		for j := max(0, k+1-refWindow); j <= min(len(s)-1, k+refWindow); j++ {
			win = append(win, float64(s[j]))
		}
		f[k] = float64(nominal) / median(win)
	}
	return f
}

// close stops the slice goroutines; measure must not be called afterwards.
func (c *hostClock) close() {
	for _, ch := range c.start {
		close(ch)
	}
	close(c.ping)
}

// refMS is the median slice time in milliseconds.
func (c *hostClock) refMS() float64 {
	v := make([]float64, len(c.slices))
	for i, d := range c.slices {
		v[i] = float64(d) / 1e6
	}
	return median(v)
}

// hostInfo is what every report records about the machine it ran on.
type hostInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func readHostInfo() hostInfo {
	h := hostInfo{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
	}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			h.CPUModel = strings.TrimSpace(v)
			break
		}
	}
	return h
}

// resetPeakRSS restarts the kernel's peak resident set (VmHWM) count for
// this process at the current resident set.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMiB reads VmHWM, the process's peak resident set, in MiB.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, os.ErrNotExist
}

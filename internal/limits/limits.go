// Package limits is resource-budget accounting for served plans: a Budget
// counts the nodes a planner expands and the approximate bytes a mission
// allocates against per-resource limits, and latches a typed ErrOverBudget
// the moment any limit is crossed. The serving layer builds one Budget per
// plan request and renders its exhaustion as a 429.
//
// The design mirrors internal/trace: a nil *Budget is the "no limits"
// configuration and every method on it is a constant-time, allocation-free
// no-op, so the hot path (approx.Planner.Decide) charges unconditionally
// without branching on configuration. Charging is safe for concurrent use
// and is pure accounting: it never perturbs planning decisions, so a plan
// is byte-identical with a budget on or off as long as no limit is
// exhausted (pinned for every served planner by internal/algo's
// TestBudgetDeterminism).
//
// Exhaustion is cooperative, not preemptive. Charge keeps counting past the
// limit (the totals then report true demand) and latches the first
// violation; code with an error return propagates Charge's result directly,
// while hot paths without one (Decide) rely on the mission loop polling
// Err() once per epoch and aborting the run.
package limits

import (
	"fmt"
	"sync/atomic"
)

// Resource identifies one budgeted resource dimension.
type Resource uint8

// The budgeted resources.
const (
	// Nodes counts search-tree/action-candidate expansions: every legal
	// action a planner evaluates for an asset (its own moves and the
	// teammate-model rollouts) is one node.
	Nodes Resource = iota
	// Bytes counts the approximate heap bytes of a mission's state. It is
	// an accounting estimate, not an allocator measurement.
	Bytes

	numResources
)

// String returns the wire name used in 429 bodies and metric labels.
func (r Resource) String() string {
	switch r {
	case Nodes:
		return "nodes"
	case Bytes:
		return "bytes"
	default:
		return fmt.Sprintf("resource(%d)", uint8(r))
	}
}

// ErrOverBudget reports the first limit a Budget crossed. Use errors.As to
// recover it through wrapped returns; the serving layer renders it as a
// structured 429.
type ErrOverBudget struct {
	Resource Resource
	Limit    int64
	Used     int64
}

func (e *ErrOverBudget) Error() string {
	return fmt.Sprintf("limits: %s budget exhausted (used %d of %d)", e.Resource, e.Used, e.Limit)
}

// Limits is the per-resource ceiling set for New. A zero (or negative)
// field leaves that resource unlimited; the zero value Limits{} builds a
// Budget that only counts.
type Limits struct {
	Nodes int64
	Bytes int64
}

// Budget tracks per-resource usage against fixed limits. The zero-value
// pointer (nil) is valid and free: every method returns immediately. A
// non-nil Budget is safe for concurrent use by any number of goroutines.
type Budget struct {
	limit [numResources]int64
	used  [numResources]atomic.Int64
	// err latches the first violation so every later Charge/Err observes
	// the same ErrOverBudget — the error a request is answered with names
	// the resource that actually tripped first.
	err atomic.Pointer[ErrOverBudget]
}

// New builds a Budget enforcing l. Limits <= 0 are unenforced (the usage
// counters still run, so Used reports demand either way).
func New(l Limits) *Budget {
	b := &Budget{}
	b.limit[Nodes] = l.Nodes
	b.limit[Bytes] = l.Bytes
	return b
}

// Charge adds n to r's usage and returns the latched ErrOverBudget if the
// budget is (now or previously) exhausted. On a nil Budget or n <= 0 it
// does nothing and returns nil; callers on hot paths may ignore the return
// and rely on Err polling instead.
func (b *Budget) Charge(r Resource, n int64) error {
	if b == nil || n <= 0 {
		return nil
	}
	used := b.used[r].Add(n)
	if lim := b.limit[r]; lim > 0 && used > lim {
		// Only the first CompareAndSwap wins; concurrent violators all
		// surface that first error.
		b.err.CompareAndSwap(nil, &ErrOverBudget{Resource: r, Limit: lim, Used: used})
	}
	return b.Err()
}

// Err returns the latched first violation, or nil while the budget holds.
// It is the per-epoch abort check of the mission loop: allocation-free and
// a single atomic load on the happy path.
func (b *Budget) Err() error {
	if b == nil {
		return nil
	}
	if e := b.err.Load(); e != nil {
		return e
	}
	return nil
}

// Used returns the amount charged against r so far (0 on a nil Budget).
func (b *Budget) Used(r Resource) int64 {
	if b == nil {
		return 0
	}
	return b.used[r].Load()
}

// Resources lists every resource dimension, in wire order; the serving
// layer ranges over it to export usage metrics.
func Resources() [numResources]Resource { return [numResources]Resource{Nodes, Bytes} }

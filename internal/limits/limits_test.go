package limits

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestNilBudgetIsFree(t *testing.T) {
	var b *Budget
	if err := b.Charge(Nodes, 100); err != nil {
		t.Fatalf("nil budget Charge: %v", err)
	}
	if err := b.Err(); err != nil {
		t.Fatalf("nil budget Err: %v", err)
	}
	if b.Used(Nodes) != 0 {
		t.Fatal("nil budget should report zero usage")
	}
}

// The hot paths charge unconditionally; a nil budget (and a non-nil one)
// must not allocate per charge, or ApproxDecide's 1 alloc/op pin breaks.
func TestChargeAllocs(t *testing.T) {
	var nilB *Budget
	if n := testing.AllocsPerRun(1000, func() {
		_ = nilB.Charge(Nodes, 7)
		_ = nilB.Err()
	}); n != 0 {
		t.Fatalf("nil budget charge allocates %v per op, want 0", n)
	}
	b := New(Limits{}) // counting only, never exhausted
	if n := testing.AllocsPerRun(1000, func() {
		_ = b.Charge(Nodes, 7)
		_ = b.Err()
	}); n != 0 {
		t.Fatalf("unlimited budget charge allocates %v per op, want 0", n)
	}
}

func TestChargeWithinLimit(t *testing.T) {
	b := New(Limits{Nodes: 10, Bytes: 5})
	for i := 0; i < 10; i++ {
		if err := b.Charge(Nodes, 1); err != nil {
			t.Fatalf("charge %d within limit: %v", i, err)
		}
	}
	if b.Used(Nodes) != 10 {
		t.Fatalf("Used(Nodes) = %d, want 10", b.Used(Nodes))
	}
	if b.Err() != nil {
		t.Fatal("budget at exactly its limit must not be exceeded")
	}
}

func TestOverBudgetLatchesFirstViolation(t *testing.T) {
	b := New(Limits{Nodes: 10, Bytes: 100})
	_ = b.Charge(Nodes, 10)
	err := b.Charge(Nodes, 1)
	if err == nil {
		t.Fatal("charge past limit returned nil")
	}
	var ob *ErrOverBudget
	if !errors.As(err, &ob) {
		t.Fatalf("error %T is not *ErrOverBudget", err)
	}
	if ob.Resource != Nodes || ob.Limit != 10 || ob.Used != 11 {
		t.Fatalf("got %+v, want {Nodes 10 11}", ob)
	}
	// A later violation of a different resource still reports the first.
	_ = b.Charge(Bytes, 1000)
	var again *ErrOverBudget
	if !errors.As(b.Err(), &again) || again.Resource != Nodes {
		t.Fatalf("latched error changed: %v", b.Err())
	}
	// And the typed error survives fmt.Errorf %w wrapping.
	wrapped := fmt.Errorf("plan aborted: %w", b.Err())
	var ob2 *ErrOverBudget
	if !errors.As(wrapped, &ob2) || ob2.Resource != Nodes {
		t.Fatalf("errors.As through wrap failed: %v", wrapped)
	}
}

func TestZeroLimitIsUnlimited(t *testing.T) {
	b := New(Limits{Bytes: 3})
	if err := b.Charge(Nodes, 1<<40); err != nil {
		t.Fatalf("unlimited resource tripped: %v", err)
	}
	if err := b.Charge(Bytes, 4); err == nil {
		t.Fatal("limited resource did not trip")
	}
}

func TestResourceString(t *testing.T) {
	want := map[Resource]string{Nodes: "nodes", Bytes: "bytes"}
	for r, s := range want {
		if r.String() != s {
			t.Fatalf("%d.String() = %q, want %q", r, r.String(), s)
		}
	}
	if Resource(200).String() != "resource(200)" {
		t.Fatalf("unknown resource string: %q", Resource(200).String())
	}
}

// Concurrent charging must total exactly and latch exactly one first error;
// run under -race this also proves the accounting is data-race free (the
// parallel executor and job workers share budgets).
func TestConcurrentCharge(t *testing.T) {
	const goroutines, perG = 16, 1000
	b := New(Limits{Nodes: goroutines * perG}) // exactly at the limit
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				_ = b.Charge(Nodes, 1)
				_ = b.Err()
				_ = b.Used(Nodes)
			}
		}()
	}
	wg.Wait()
	if got := b.Used(Nodes); got != goroutines*perG {
		t.Fatalf("Used = %d, want %d", got, goroutines*perG)
	}
	if b.Err() != nil {
		t.Fatal("budget at its exact limit reported exceeded")
	}
	if err := b.Charge(Nodes, 1); err == nil {
		t.Fatal("one more charge should trip")
	}
}

func TestConcurrentOverBudgetLatchesOnce(t *testing.T) {
	b := New(Limits{Bytes: 1})
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = b.Charge(Bytes, 10)
		}(g)
	}
	wg.Wait()
	var first *ErrOverBudget
	if !errors.As(b.Err(), &first) {
		t.Fatalf("no latched error: %v", b.Err())
	}
	for g, err := range errs {
		var ob *ErrOverBudget
		if !errors.As(err, &ob) {
			t.Fatalf("goroutine %d got %v", g, err)
		}
		if ob != first {
			t.Fatalf("goroutine %d observed a different error instance", g)
		}
	}
}

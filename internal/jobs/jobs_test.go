package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitTerminal polls a job until it reaches a terminal state.
func waitTerminal(t *testing.T, q *Queue, id string) View {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		v, ok := q.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if v.State.Terminal() {
			return v
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s did not settle", id)
	return View{}
}

func TestSubmitRunsToDone(t *testing.T) {
	q := New(Options{Workers: 2})
	defer q.Close()
	v, err := q.Submit(Request{Kind: "plan", Fn: func(ctx context.Context) (any, error) {
		return 42, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateQueued && v.State != StateRunning {
		t.Fatalf("fresh job in state %s", v.State)
	}
	final := waitTerminal(t, q, v.ID)
	if final.State != StateDone || final.Result != 42 {
		t.Fatalf("final view: %+v", final)
	}
	if final.Error != "" || final.FinishedAt == nil || final.StartedAt == nil {
		t.Fatalf("done job missing bookkeeping: %+v", final)
	}
}

func TestJobErrorSettlesFailed(t *testing.T) {
	q := New(Options{Workers: 1})
	defer q.Close()
	v, err := q.Submit(Request{Fn: func(ctx context.Context) (any, error) {
		return nil, errors.New("boom")
	}})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, q, v.ID)
	if final.State != StateFailed || final.Error != "boom" {
		t.Fatalf("final view: %+v", final)
	}
}

func TestJobPanicSettlesFailed(t *testing.T) {
	q := New(Options{Workers: 1})
	defer q.Close()
	v, err := q.Submit(Request{Fn: func(ctx context.Context) (any, error) {
		panic("kaboom")
	}})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, q, v.ID)
	if final.State != StateFailed {
		t.Fatalf("panicking job settled %s, want failed", final.State)
	}
	// The pool must survive the panic and run the next job.
	v2, err := q.Submit(Request{Fn: func(ctx context.Context) (any, error) { return "ok", nil }})
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, q, v2.ID); final.State != StateDone {
		t.Fatalf("job after panic settled %s, want done", final.State)
	}
}

func TestCancelWhileQueued(t *testing.T) {
	q := New(Options{Workers: 1, QueueDepth: 4})
	defer q.Close()

	// Occupy the only worker so the next job stays queued.
	block := make(chan struct{})
	if _, err := q.Submit(Request{Fn: func(ctx context.Context) (any, error) {
		<-block
		return nil, nil
	}}); err != nil {
		t.Fatal(err)
	}

	var ran atomic.Bool
	v, err := q.Submit(Request{Fn: func(ctx context.Context) (any, error) {
		ran.Store(true)
		return nil, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	cv, ok := q.Cancel(v.ID)
	if !ok {
		t.Fatal("Cancel: unknown job")
	}
	if cv.State != StateCanceled {
		t.Fatalf("canceled queued job in state %s", cv.State)
	}
	close(block)

	// The canceled job must never execute even after the worker frees up.
	time.Sleep(20 * time.Millisecond)
	if ran.Load() {
		t.Fatal("canceled-while-queued job still ran")
	}
	if final, _ := q.Get(v.ID); final.State != StateCanceled {
		t.Fatalf("canceled job resettled to %s", final.State)
	}
}

func TestCancelWhileRunning(t *testing.T) {
	q := New(Options{Workers: 1})
	defer q.Close()

	started := make(chan struct{})
	v, err := q.Submit(Request{Fn: func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if cv, ok := q.Cancel(v.ID); !ok || cv.State != StateRunning {
		t.Fatalf("cancel of running job: ok=%v state=%s", ok, cv.State)
	}
	final := waitTerminal(t, q, v.ID)
	if final.State != StateCanceled {
		t.Fatalf("canceled running job settled %s: %+v", final.State, final)
	}
}

func TestCancelTerminalIsNoop(t *testing.T) {
	q := New(Options{Workers: 1})
	defer q.Close()
	v, err := q.Submit(Request{Fn: func(ctx context.Context) (any, error) { return 1, nil }})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, q, v.ID)
	if cv, ok := q.Cancel(v.ID); !ok || cv.State != StateDone {
		t.Fatalf("cancel of done job: ok=%v state=%s", ok, cv.State)
	}
}

func TestIdempotencyKeyDeduplicates(t *testing.T) {
	q := New(Options{Workers: 1})
	defer q.Close()

	var runs atomic.Int32
	fn := func(ctx context.Context) (any, error) {
		runs.Add(1)
		return "first", nil
	}
	a, err := q.Submit(Request{IdempotencyKey: "k1", Fn: fn})
	if err != nil {
		t.Fatal(err)
	}
	b, err := q.Submit(Request{IdempotencyKey: "k1", Fn: func(ctx context.Context) (any, error) {
		runs.Add(1)
		return "second", nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if b.ID != a.ID {
		t.Fatalf("duplicate key got a new job: %s vs %s", b.ID, a.ID)
	}
	final := waitTerminal(t, q, a.ID)
	if final.Result != "first" || runs.Load() != 1 {
		t.Fatalf("dedup executed the duplicate: result=%v runs=%d", final.Result, runs.Load())
	}

	// A different key is a different job.
	c, err := q.Submit(Request{IdempotencyKey: "k2", Fn: fn})
	if err != nil {
		t.Fatal(err)
	}
	if c.ID == a.ID {
		t.Fatal("distinct keys shared a job")
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	q := New(Options{Workers: 1, QueueDepth: 1})
	defer q.Close()

	block := make(chan struct{})
	defer close(block)
	// Buffered: the first blocker may reach its non-blocking send before
	// the test waits on the channel.
	started := make(chan struct{}, 1)
	blocker := func(ctx context.Context) (any, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil, nil
	}
	// First job occupies the worker, second fills the depth-1 queue.
	if _, err := q.Submit(Request{Fn: blocker}); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := q.Submit(Request{Fn: blocker}); err != nil {
		t.Fatal(err)
	}
	_, err := q.Submit(Request{Fn: blocker})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: %v, want ErrQueueFull", err)
	}
	if ra := q.RetryAfter(); ra < time.Second {
		t.Fatalf("RetryAfter %v, want >= 1s", ra)
	}
}

func TestPerJobDeadline(t *testing.T) {
	q := New(Options{Workers: 1})
	defer q.Close()
	v, err := q.Submit(Request{Timeout: 10 * time.Millisecond, Fn: func(ctx context.Context) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, q, v.ID)
	// A deadline expiry is a failure, not a cancellation: nobody asked for it.
	if final.State != StateFailed {
		t.Fatalf("deadline-expired job settled %s: %+v", final.State, final)
	}
}

func TestDrainFinishesRunningRejectsNew(t *testing.T) {
	q := New(Options{Workers: 1})

	release := make(chan struct{})
	started := make(chan struct{})
	v, err := q.Submit(Request{Fn: func(ctx context.Context) (any, error) {
		close(started)
		<-release
		return "finished", nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	done := make(chan error, 1)
	go func() { done <- q.Drain(context.Background()) }()
	// Give Drain a moment to flip the queue into draining mode.
	deadline := time.Now().Add(time.Second)
	for {
		if _, err := q.Submit(Request{Fn: func(ctx context.Context) (any, error) { return nil, nil }}); errors.Is(err, ErrDraining) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never started rejecting submissions")
		}
		time.Sleep(time.Millisecond)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if final, _ := q.Get(v.ID); final.State != StateDone || final.Result != "finished" {
		t.Fatalf("running job not finished by drain: %+v", final)
	}
}

func TestDrainDeadlineCancelsStuckJobs(t *testing.T) {
	q := New(Options{Workers: 1})
	started := make(chan struct{})
	v, err := q.Submit(Request{Fn: func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done() // only the queue shutdown can stop this job
		return nil, ctx.Err()
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := q.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain: %v, want DeadlineExceeded", err)
	}
	final, _ := q.Get(v.ID)
	if final.State != StateCanceled {
		t.Fatalf("shutdown-aborted job settled %s: %+v", final.State, final)
	}
}

func TestWatchSeesTransitions(t *testing.T) {
	q := New(Options{Workers: 1})
	defer q.Close()

	release := make(chan struct{})
	v, err := q.Submit(Request{Fn: func(ctx context.Context) (any, error) {
		<-release
		return "ok", nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	cur, ch, cancel, ok := q.Watch(v.ID)
	if !ok {
		t.Fatal("Watch: unknown job")
	}
	defer cancel()
	close(release)

	states := []State{cur.State}
	for w := range ch {
		states = append(states, w.State)
	}
	last := states[len(states)-1]
	if last != StateDone {
		t.Fatalf("watch ended on %s (saw %v), want done", last, states)
	}
}

func TestWatchTerminalJobClosesImmediately(t *testing.T) {
	q := New(Options{Workers: 1})
	defer q.Close()
	v, err := q.Submit(Request{Fn: func(ctx context.Context) (any, error) { return 1, nil }})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, q, v.ID)
	cur, ch, cancel, ok := q.Watch(v.ID)
	if !ok || !cur.State.Terminal() {
		t.Fatalf("Watch on settled job: ok=%v state=%s", ok, cur.State)
	}
	defer cancel()
	if _, open := <-ch; open {
		t.Fatal("terminal job's watch channel stayed open")
	}
}

// TestWorkerBudgetUnderConcurrentSubmit floods the queue from many
// goroutines and asserts the executing concurrency never exceeds the
// worker-pool size (run with -race in CI).
func TestWorkerBudgetUnderConcurrentSubmit(t *testing.T) {
	const workers = 3
	q := New(Options{Workers: workers, QueueDepth: 256})
	defer q.Close()

	var inflight, peak atomic.Int32
	var ids sync.Map
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 16; j++ {
				v, err := q.Submit(Request{
					IdempotencyKey: fmt.Sprintf("k-%d-%d", n, j),
					Fn: func(ctx context.Context) (any, error) {
						cur := inflight.Add(1)
						for {
							p := peak.Load()
							if cur <= p || peak.CompareAndSwap(p, cur) {
								break
							}
						}
						time.Sleep(time.Millisecond)
						inflight.Add(-1)
						return nil, nil
					},
				})
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				ids.Store(v.ID, struct{}{})
			}
		}(i)
	}
	wg.Wait()
	ids.Range(func(k, _ any) bool {
		waitTerminal(t, q, k.(string))
		return true
	})
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent executions, worker budget is %d", p, workers)
	}
	if g := q.Metrics().Gauge("jobs_inflight").Value(); g != 0 {
		t.Fatalf("jobs_inflight gauge settled at %v, want 0", g)
	}
}

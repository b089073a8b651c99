package admit

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// collectOrder drives the queue with one worker slot and records the
// order in which waiters are granted.
type orderRecorder struct {
	mu    sync.Mutex
	order []string
}

func (r *orderRecorder) note(tag string) {
	r.mu.Lock()
	r.order = append(r.order, tag)
	r.mu.Unlock()
}

func (r *orderRecorder) snapshot() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.order...)
}

// TestQueueFIFOWithinLane: one client's requests must be granted in
// submission order, whatever the concurrency.
func TestQueueFIFOWithinLane(t *testing.T) {
	q := NewQueue(QueueConfig{Concurrency: 1})
	rec := &orderRecorder{}

	// Occupy the only slot so every submission below must queue.
	if err := q.Acquire(context.Background(), "holder"); err != nil {
		t.Fatal(err)
	}

	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Serialize enqueue order: each goroutine signals once its
			// Acquire is registered as a waiter.
			if err := q.Run(context.Background(), "alice", func() error {
				rec.note(fmt.Sprintf("alice-%d", i))
				return nil
			}); err != nil {
				t.Errorf("alice-%d: %v", i, err)
			}
		}()
		// Wait until the waiter is queued before launching the next, so
		// submission order is deterministic.
		waitForQueued(t, q, i+1)
	}
	q.Release() // free the held slot; the lane drains in order
	wg.Wait()

	got := rec.snapshot()
	for i, tag := range got {
		if want := fmt.Sprintf("alice-%d", i); tag != want {
			t.Fatalf("lane order[%d] = %s, want %s (full order %v)", i, tag, want, got)
		}
	}
}

// waitForQueued spins until the queue holds exactly n waiters.
func waitForQueued(t *testing.T, q *Queue, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for q.Stats().Queued != n {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d waiters (at %d)", n, q.Stats().Queued)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestQueueRoundRobinNoStarvation: with a bulk client flooding the queue,
// an interactive client's lone request must be granted within one
// round-robin cycle — not after the whole bulk backlog.
func TestQueueRoundRobinNoStarvation(t *testing.T) {
	q := NewQueue(QueueConfig{Concurrency: 1})
	rec := &orderRecorder{}

	if err := q.Acquire(context.Background(), "holder"); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	const bulk = 20
	for i := 0; i < bulk; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = q.Run(context.Background(), "bulk", func() error {
				rec.note(fmt.Sprintf("bulk-%d", i))
				return nil
			})
		}()
		waitForQueued(t, q, i+1)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = q.Run(context.Background(), "interactive", func() error {
			rec.note("interactive")
			return nil
		})
	}()
	waitForQueued(t, q, bulk+1)

	q.Release()
	wg.Wait()

	got := rec.snapshot()
	pos := -1
	for i, tag := range got {
		if tag == "interactive" {
			pos = i
			break
		}
	}
	if pos < 0 {
		t.Fatal("interactive request never ran")
	}
	// Round-robin across two lanes: the interactive request is granted
	// first or second, never behind the 20-deep bulk lane.
	if pos > 1 {
		t.Errorf("interactive request ran at position %d of %d, want <= 1 (starved by bulk lane)", pos, len(got))
	}
}

// TestQueueShedsAtBounds: total and per-lane bounds shed immediately with
// the right reasons, and other clients keep queueing past a full lane.
func TestQueueShedsAtBounds(t *testing.T) {
	q := NewQueue(QueueConfig{Concurrency: 1, MaxQueued: 4, MaxPerClient: 2})
	if err := q.Acquire(context.Background(), "holder"); err != nil {
		t.Fatal(err)
	}

	// Two bulk waiters fill bulk's lane.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = q.Run(context.Background(), "bulk", func() error { return nil })
		}()
		waitForQueued(t, q, i+1)
	}
	var shed *ShedError
	if err := q.Acquire(context.Background(), "bulk"); !errors.As(err, &shed) || shed.Reason != ReasonLaneFull {
		t.Fatalf("third bulk acquire = %v, want ShedError(lane_full)", err)
	}
	// Another client still queues.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = q.Run(context.Background(), "other", func() error { return nil })
		}()
		waitForQueued(t, q, 3+i)
	}
	// Total bound reached: even a fresh client sheds queue_full.
	if err := q.Acquire(context.Background(), "fresh"); !errors.As(err, &shed) || shed.Reason != ReasonQueueFull {
		t.Fatalf("acquire past MaxQueued = %v, want ShedError(queue_full)", err)
	}
	st := q.Stats()
	if st.ShedLaneFull != 1 || st.ShedQueueFull != 1 {
		t.Errorf("shed counters = lane %d queue %d, want 1/1", st.ShedLaneFull, st.ShedQueueFull)
	}
	q.Release() // free holder so the waiters drain
	wg.Wait()
}

// TestQueueCancelUnlinksWaiter: a waiter whose context ends leaves the
// queue (no slot held, lane cleaned up) and returns the context error.
func TestQueueCancelUnlinksWaiter(t *testing.T) {
	q := NewQueue(QueueConfig{Concurrency: 1})
	if err := q.Acquire(context.Background(), "holder"); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- q.Acquire(ctx, "impatient") }()
	waitForQueued(t, q, 1)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire = %v, want context.Canceled", err)
	}
	st := q.Stats()
	if st.Queued != 0 || st.Lanes != 0 {
		t.Errorf("after cancel: queued %d lanes %d, want 0/0 (waiter must unlink)", st.Queued, st.Lanes)
	}
	q.Release()
	// The queue must still grant slots normally afterwards.
	if err := q.Run(context.Background(), "impatient", func() error { return nil }); err != nil {
		t.Fatalf("post-cancel run: %v", err)
	}
}

// TestQueueBoundedMemoryUnderLaneChurn: thousands of one-shot clients
// must not leave lanes or unbounded per-client state behind.
func TestQueueBoundedMemoryUnderLaneChurn(t *testing.T) {
	q := NewQueue(QueueConfig{Concurrency: 2, MaxQueued: 64})
	var wg sync.WaitGroup
	for i := 0; i < 2000; i++ {
		wg.Add(1)
		client := fmt.Sprintf("client-%d", i)
		go func() {
			defer wg.Done()
			_ = q.Run(context.Background(), client, func() error { return nil })
		}()
		if i%64 == 0 {
			wg.Wait() // periodic drain keeps the queue under MaxQueued
		}
	}
	wg.Wait()
	st := q.Stats()
	if st.Queued != 0 || st.Lanes != 0 || st.Running != 0 {
		t.Errorf("after churn: queued %d lanes %d running %d, want all 0", st.Queued, st.Lanes, st.Running)
	}
	// Cumulative per-client counters are bounded: 2000 distinct clients
	// fold into at most maxTrackedClients + the overflow bucket.
	if n := len(st.Clients); n > maxTrackedClients+1 {
		t.Errorf("tracked clients = %d, want <= %d (bounded-memory invariant)", n, maxTrackedClients+1)
	}
	var overflow bool
	var total uint64
	for _, c := range st.Clients {
		total += c.Admitted
		if c.Client == overflowClient {
			overflow = true
		}
	}
	if !overflow {
		t.Error("overflow bucket missing after exceeding the tracking bound")
	}
	if total != st.Admitted || st.Admitted != 2000 {
		t.Errorf("admitted = %d (per-client sum %d), want 2000", st.Admitted, total)
	}
}

// TestQueueAdversarialArrivals is a quick-style invariant check: random
// bursts from a skewed client population, random cancellations, and
// assertions that the scheduler neither exceeds its bounds nor strands
// waiters. Runs several seeded trials.
func TestQueueAdversarialArrivals(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			conc := 1 + rng.Intn(4)
			q := NewQueue(QueueConfig{Concurrency: conc, MaxQueued: 16, MaxPerClient: 8})

			var mu sync.Mutex
			maxRunning := 0
			running := 0
			var wg sync.WaitGroup
			for i := 0; i < 300; i++ {
				client := fmt.Sprintf("c%d", rng.Intn(1+rng.Intn(6))) // skewed population
				withCancel := rng.Intn(4) == 0
				// rng is not goroutine-safe: draw the timeout here, not
				// inside the worker.
				timeout := time.Duration(1 + rng.Int63n(int64(200*time.Microsecond)))
				wg.Add(1)
				go func() {
					defer wg.Done()
					ctx := context.Background()
					if withCancel {
						var cancel context.CancelFunc
						ctx, cancel = context.WithTimeout(ctx, timeout)
						defer cancel()
					}
					_ = q.Run(ctx, client, func() error {
						mu.Lock()
						running++
						if running > maxRunning {
							maxRunning = running
						}
						mu.Unlock()
						time.Sleep(50 * time.Microsecond)
						mu.Lock()
						running--
						mu.Unlock()
						return nil
					})
				}()
				if rng.Intn(8) == 0 {
					time.Sleep(time.Duration(rng.Int63n(int64(100 * time.Microsecond))))
				}
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("scheduler deadlocked under adversarial arrivals")
			}
			if maxRunning > conc {
				t.Errorf("observed %d concurrent runs, bound is %d", maxRunning, conc)
			}
			st := q.Stats()
			if st.Queued != 0 || st.Running != 0 || st.Lanes != 0 {
				t.Errorf("after drain: queued %d running %d lanes %d, want all 0", st.Queued, st.Running, st.Lanes)
			}
			if st.PeakQueued > 16 {
				t.Errorf("peak queued %d exceeded MaxQueued 16", st.PeakQueued)
			}
		})
	}
}

// TestQueueCountersMatchStats: Counters is Stats' scalar half. Every read
// taken while arrivals race into a full queue keeps the queue's bounds, and
// once the queue settles — full, then drained — Counters equals Stats with
// the lane and client lists left out.
func TestQueueCountersMatchStats(t *testing.T) {
	const conc, n = 2, 24
	q := NewQueue(QueueConfig{Concurrency: conc, MaxQueued: 64, MaxPerClient: 16})
	check := func(c QueueStats) {
		t.Helper()
		if c.LaneStats != nil || c.Clients != nil {
			t.Fatalf("Counters copied the lists: %+v", c)
		}
		if c.Concurrency != conc || c.Running < 0 || c.Running > conc || c.Queued < 0 ||
			c.Lanes > c.Queued || c.Queued+c.Running > n || c.Admitted > n ||
			(c.Queued > 0 && c.Running != conc) {
			t.Fatalf("Counters out of bounds: %+v", c)
		}
	}
	scalars := func() QueueStats {
		st := q.Stats()
		st.LaneStats, st.Clients = nil, nil
		return st
	}

	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		client := fmt.Sprintf("c%d", i%5)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := q.Run(context.Background(), client, func() error { <-release; return nil }); err != nil {
				t.Errorf("%s: %v", client, err)
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		c := q.Counters()
		check(c)
		if c.Queued == n-conc {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: %+v", c)
		}
		runtime.Gosched()
	}
	if got, want := q.Counters(), scalars(); !reflect.DeepEqual(got, want) {
		t.Errorf("full queue: Counters %+v, Stats %+v", got, want)
	}

	close(release)
	wg.Wait()
	got, want := q.Counters(), scalars()
	check(got)
	if !reflect.DeepEqual(got, want) || got.Admitted != n || got.Running != 0 || got.Queued != 0 {
		t.Errorf("drained queue: Counters %+v, Stats %+v", got, want)
	}
}

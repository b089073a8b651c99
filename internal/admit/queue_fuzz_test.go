package admit

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// clientTotal sums one client's cumulative admissions and sheds plus its
// live lane depth — a monotone-under-dispatch progress measure used to
// detect when a submission has registered with the queue.
func clientTotal(q *Queue, client string) uint64 {
	st := q.Stats()
	var total uint64
	for _, c := range st.Clients {
		if c.Client == client {
			total += c.Admitted + c.Shed
		}
	}
	for _, l := range st.LaneStats {
		if l.Client == client {
			total += uint64(l.Queued)
		}
	}
	return total
}

// FuzzQueue interprets the fuzz input as a program over a small Queue:
// each byte encodes an operation (enqueue for one of 8 clients, cancel a
// pending waiter, release capacity by letting work finish). After the
// program runs and the queue drains, the scheduler's invariants must
// hold: bounds were respected, FIFO order within every lane, accounting
// balances, and nothing is left queued or running.
func FuzzQueue(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 0, 9, 17, 3})
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 15, 15})
	f.Add([]byte{0, 8, 16, 24, 32, 40, 48, 56, 1, 9, 17, 25})
	f.Add([]byte("adversarial arrivals"))

	f.Fuzz(func(t *testing.T, program []byte) {
		// Concurrency 1 so execution order observed inside fn equals
		// dispatch order — with more slots, two concurrently-granted
		// waiters would race to record and FIFO would be unobservable.
		const (
			concurrency  = 1
			maxQueued    = 8
			maxPerClient = 3
		)
		q := NewQueue(QueueConfig{
			Concurrency:  concurrency,
			MaxQueued:    maxQueued,
			MaxPerClient: maxPerClient,
		})

		// Admitted work blocks on gate until the program releases it, so
		// the fuzzer controls when capacity frees up.
		gate := make(chan struct{}, len(program)+8)
		var mu sync.Mutex
		granted := map[string][]int{} // client -> seq numbers in grant order
		seq := map[string]int{}
		var cancels []context.CancelFunc
		var wg sync.WaitGroup
		var expectDone int

		enqueue := func(client string, cancellable bool) {
			mu.Lock()
			n := seq[client]
			seq[client]++
			mu.Unlock()
			ctx := context.Background()
			var cancel context.CancelFunc
			if cancellable {
				ctx, cancel = context.WithCancel(ctx)
				mu.Lock()
				cancels = append(cancels, cancel)
				mu.Unlock()
			}
			before := clientTotal(q, client)
			wg.Add(1)
			expectDone++
			go func() {
				defer wg.Done()
				err := q.Run(ctx, client, func() error {
					mu.Lock()
					granted[client] = append(granted[client], n)
					mu.Unlock()
					<-gate
					return nil
				})
				var shed *ShedError
				if err != nil && !errors.As(err, &shed) && !errors.Is(err, context.Canceled) {
					t.Errorf("unexpected Run error: %v", err)
				}
			}()
			// Wait until this submission registered (admitted, queued, or
			// shed) so the program's op order is the queue's arrival order.
			// The per-client total is immune to concurrent async activity:
			// dispatch moves queued -> admitted (sum unchanged) and only a
			// new submission of the same client — ours — increments it. A
			// racing cancel can mask the increment, so a timeout backstops
			// the loop; by then the waiter is registered or gone either way.
			deadline := time.Now().Add(2 * time.Second)
			for clientTotal(q, client) <= before && !time.Now().After(deadline) {
				time.Sleep(20 * time.Microsecond)
			}
		}

		for _, op := range program {
			switch {
			case op < 64: // enqueue, client = op%8, cancellable on high bit of mid nibble
				enqueue(fmt.Sprintf("c%d", op%8), op&0x20 != 0)
			case op < 96: // cancel the oldest still-pending cancel handle
				mu.Lock()
				if len(cancels) > 0 {
					cancels[0]()
					cancels = cancels[1:]
				}
				mu.Unlock()
			default: // let one admitted unit of work finish
				gate <- struct{}{}
			}
			if st := q.Stats(); st.Queued > maxQueued {
				t.Fatalf("queued %d exceeded bound %d mid-program", st.Queued, maxQueued)
			}
		}

		// Drain: release everything, cancel leftovers, wait with a deadlock
		// budget.
		for i := 0; i < expectDone+8; i++ {
			gate <- struct{}{}
		}
		mu.Lock()
		for _, c := range cancels {
			c()
		}
		mu.Unlock()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			t.Fatal("queue failed to drain: waiter stranded or dispatcher deadlocked")
		}

		st := q.Stats()
		if st.Queued != 0 || st.Running != 0 || st.Lanes != 0 {
			t.Errorf("after drain: queued %d running %d lanes %d, want all 0", st.Queued, st.Running, st.Lanes)
		}
		if st.PeakQueued > maxQueued {
			t.Errorf("peak queued %d exceeded bound %d", st.PeakQueued, maxQueued)
		}
		// FIFO within each lane: grant order must be a subsequence-ordered
		// (strictly increasing) view of submission order, cancellations
		// only ever removing elements.
		mu.Lock()
		defer mu.Unlock()
		var ran uint64
		for client, grants := range granted {
			ran += uint64(len(grants))
			for i := 1; i < len(grants); i++ {
				if grants[i] <= grants[i-1] {
					t.Errorf("lane %s violated FIFO: grant order %v", client, grants)
					break
				}
			}
		}
		// Accounting: every admission either ran or was cancelled between
		// dispatch and fn; admitted can exceed ran but never the reverse.
		if ran > st.Admitted {
			t.Errorf("%d executions exceed %d admissions", ran, st.Admitted)
		}
	})
}

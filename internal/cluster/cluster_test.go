package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func makeJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		v := float64(i)
		jobs[i] = Job{
			ID:  fmt.Sprintf("job-%04d", i),
			Run: func() (float64, error) { return v, nil },
		}
	}
	return jobs
}

func TestSubmitAllSucceedWithoutFailures(t *testing.T) {
	c := New(Config{FailureRate: 0})
	jobs := makeJobs(100)
	results, st := c.Submit(jobs)
	if st.Succeeded != 100 || st.Failed != 0 || st.Retries != 0 {
		t.Errorf("stats = %+v", st)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Errorf("job %d failed: %v", i, r.Err)
		}
		if r.Value != float64(i) {
			t.Errorf("job %d value = %v (results out of order?)", i, r.Value)
		}
		if r.Attempts != 1 {
			t.Errorf("job %d attempts = %d", i, r.Attempts)
		}
	}
}

func TestSubmitRunsConcurrently(t *testing.T) {
	// Two jobs rendezvous: each waits until the other has started, which
	// only completes if the pool really runs jobs in parallel. A timeout
	// converts a (buggy) serial pool into a test failure, not a deadlock.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	c := New(Config{})
	var arrived int32
	release := make(chan struct{})
	var once sync.Once
	var timedOut int32
	rendezvous := func() (float64, error) {
		if atomic.AddInt32(&arrived, 1) >= 2 {
			once.Do(func() { close(release) })
		}
		select {
		case <-release:
		case <-time.After(5 * time.Second):
			atomic.StoreInt32(&timedOut, 1)
		}
		return 0, nil
	}
	jobs := []Job{
		{ID: "a", Run: rendezvous},
		{ID: "b", Run: rendezvous},
	}
	c.Submit(jobs)
	if timedOut != 0 {
		t.Error("jobs never overlapped: pool appears serial")
	}
}

func TestFailureInjectionAndRetry(t *testing.T) {
	c := New(Config{FailureRate: 0.3, MaxRetries: 5, Seed: 42})
	jobs := makeJobs(500)
	results, st := c.Submit(jobs)
	if st.Retries == 0 {
		t.Error("30% failure rate should force retries")
	}
	// With 5 retries at 30%, nearly everything eventually succeeds.
	if st.Succeeded < 490 {
		t.Errorf("succeeded = %d, want >= 490", st.Succeeded)
	}
	for _, r := range results {
		if r.Err == nil && r.Value < 0 {
			t.Errorf("bad value %v", r.Value)
		}
	}
}

func TestFailureExhaustion(t *testing.T) {
	// FailureRate 1.0: every attempt fails, all jobs exhaust retries.
	c := New(Config{FailureRate: 1.0, MaxRetries: 2, Seed: 7})
	jobs := makeJobs(10)
	results, st := c.Submit(jobs)
	if st.Failed != 10 || st.Succeeded != 0 {
		t.Errorf("stats = %+v", st)
	}
	for _, r := range results {
		if !errors.Is(r.Err, ErrNodeFailure) {
			t.Errorf("error = %v, want ErrNodeFailure", r.Err)
		}
		if r.Attempts != 3 { // 1 + 2 retries
			t.Errorf("attempts = %d, want 3", r.Attempts)
		}
	}
}

func TestRealErrorsNotRetried(t *testing.T) {
	bad := errors.New("kernel does not build")
	calls := int32(0)
	c := New(Config{FailureRate: 0, MaxRetries: 5})
	jobs := []Job{{
		ID: "broken",
		Run: func() (float64, error) {
			atomic.AddInt32(&calls, 1)
			return 0, bad
		},
	}}
	results, st := c.Submit(jobs)
	if calls != 1 {
		t.Errorf("broken job ran %d times, want 1", calls)
	}
	if !errors.Is(results[0].Err, bad) {
		t.Errorf("err = %v", results[0].Err)
	}
	if st.Failed != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestDeterministicAcrossRuns: a campaign's results and stats are a
// function of its seed, run after run and at any GOMAXPROCS (the node
// count).
func TestDeterministicAcrossRuns(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	run := func(procs int) ([]Result, Stats) {
		runtime.GOMAXPROCS(procs)
		c := New(Config{FailureRate: 0.4, MaxRetries: 3, Seed: 123})
		return c.Submit(makeJobs(200))
	}
	r1, s1 := run(1)
	for _, procs := range []int{1, 2, 4} {
		r2, s2 := run(procs)
		if s1 != s2 {
			t.Errorf("GOMAXPROCS %d: stats differ: %+v vs %+v", procs, s1, s2)
		}
		for i := range r1 {
			if (r1[i].Err == nil) != (r2[i].Err == nil) || r1[i].Attempts != r2[i].Attempts || r1[i].Value != r2[i].Value {
				t.Errorf("GOMAXPROCS %d: job %d differs: %+v vs %+v", procs, i, r1[i], r2[i])
			}
		}
	}
}

func TestSeedChangesFailures(t *testing.T) {
	submit := func(seed int64) Stats {
		c := New(Config{FailureRate: 0.5, MaxRetries: 1, Seed: seed})
		_, st := c.Submit(makeJobs(300))
		return st
	}
	if submit(1) == submit(2) {
		t.Error("different seeds gave identical campaign stats (suspicious)")
	}
}

func TestDefaults(t *testing.T) {
	c := New(Config{})
	results, st := c.Submit(makeJobs(10))
	if st.Succeeded != 10 {
		t.Errorf("stats = %+v", st)
	}
	if len(results) != 10 {
		t.Errorf("results = %d", len(results))
	}
}

func TestEmptySubmit(t *testing.T) {
	c := New(Config{})
	results, st := c.Submit(nil)
	if len(results) != 0 || st.Submitted != 0 {
		t.Errorf("empty submit: %v %+v", results, st)
	}
}

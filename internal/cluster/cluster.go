// Package cluster simulates the batch-scheduled data collection the paper
// describes in §IV-A.3: jobs submitted to HPC cluster nodes, sporadic node
// failures and time limits forcing resubmission, and bookkeeping of which
// measurements succeeded. The dataset generator runs every simulated
// measurement through this substrate, exercising the same
// submit/fail/retry/collect control flow the authors had on Summit and
// Corona — with deterministic, seeded failures.
package cluster

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sync"
)

// Job is one unit of work (in this repository: one runtime measurement).
type Job struct {
	ID  string
	Run func() (float64, error)
}

// Result is the outcome of a job after retries.
type Result struct {
	JobID    string
	Value    float64
	Err      error // non-nil when the job exhausted its retries
	Attempts int   // total attempts, including the successful one
}

// Config describes the simulated cluster. Its nodes are GOMAXPROCS
// workers: which attempts fail depends on the job ID, the attempt and the
// seed alone, so the node count moves no result.
type Config struct {
	// FailureRate is the per-attempt probability of a simulated node
	// failure (the paper: "our job would not run for long due to node
	// failure or time constraints"). Deterministic per job ID and attempt.
	FailureRate float64
	// Seed makes failures reproducible.
	Seed int64
}

// maxRetries is how many times a job that hit a node failure is
// resubmitted.
const maxRetries = 3

// ErrNodeFailure is the simulated infrastructure failure injected by the
// cluster; it is retryable.
var ErrNodeFailure = errors.New("cluster: node failure")

// Stats aggregates a submission campaign.
type Stats struct {
	Submitted int
	Succeeded int
	Failed    int // exhausted retries
	Retries   int // attempts beyond the first, summed over jobs
}

// Cluster runs jobs on simulated nodes.
type Cluster struct {
	cfg Config
}

// New returns a cluster with the given configuration.
func New(cfg Config) *Cluster { return &Cluster{cfg: cfg} }

// Submit runs all jobs across the cluster's nodes and returns their results
// in job order, plus campaign statistics. Jobs run concurrently (one worker
// per node); each failed attempt is retried up to maxRetries times.
// Injected node failures and real job errors are distinguished: a job whose
// Run returns an error is NOT retried (a broken kernel stays broken), while
// node failures are.
func (c *Cluster) Submit(jobs []Job) ([]Result, Stats) {
	nodes := runtime.GOMAXPROCS(0)
	results := make([]Result, len(jobs))
	var wg sync.WaitGroup
	work := make(chan int)

	wg.Add(nodes)
	for range nodes {
		go func() {
			defer wg.Done()
			for idx := range work {
				results[idx] = c.runJob(jobs[idx])
			}
		}()
	}
	for i := range jobs {
		work <- i
	}
	close(work)
	wg.Wait()

	var st Stats
	st.Submitted = len(jobs)
	for _, r := range results {
		if r.Err == nil {
			st.Succeeded++
		} else {
			st.Failed++
		}
		st.Retries += r.Attempts - 1
	}
	return results, st
}

// runJob attempts one job with retries on injected node failures.
func (c *Cluster) runJob(j Job) Result {
	res := Result{JobID: j.ID}
	for attempt := 0; attempt <= maxRetries; attempt++ {
		res.Attempts = attempt + 1
		if c.injectFailure(j.ID, attempt) {
			res.Err = fmt.Errorf("%w (job %s, attempt %d)", ErrNodeFailure, j.ID, attempt+1)
			continue
		}
		v, err := j.Run()
		if err != nil {
			// Real job error: no point resubmitting.
			res.Err = err
			return res
		}
		res.Value = v
		res.Err = nil
		return res
	}
	return res
}

// injectFailure decides deterministically whether attempt k of job id hits a
// simulated node failure.
func (c *Cluster) injectFailure(id string, attempt int) bool {
	if c.cfg.FailureRate <= 0 {
		return false
	}
	h := fnv.New64a()
	h.Write([]byte(id))
	h.Write([]byte{byte(attempt)})
	rng := rand.New(rand.NewSource(int64(h.Sum64()) ^ c.cfg.Seed))
	return rng.Float64() < c.cfg.FailureRate
}

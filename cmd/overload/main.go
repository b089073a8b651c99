// Command overload drives a running serve instance past its evaluation
// capacity and checks the admission-control contract from the outside: a
// bulk class floods cold advise evaluations (distinct cache keys, no
// deadline, one client identity per worker), while an interactive class
// repeats a warm key under a deadline header and measures its latency.
//
// The generator validates every response against the published overload
// surface — sheds must be 503 with an integral Retry-After >= 1 and a
// JSON error body, everything else must be 200 — and aggregates per-class
// latency quantiles and goodput (successful responses per second). Bulk
// workers are polite clients: a shed's Retry-After is honored, capped at
// -backoff-cap so a server asking for long waits cannot idle the probe
// (0 disables backoff and hammers through sheds, the old behaviour).
// Assertions are opt-in flags so the same binary works as a chaos probe
// (just observe) or a CI gate (fail the build):
//
//	overload -target http://host:8080 -duration 10s \
//	         -bulk 16 -interactive 2 -deadline 2s -backoff-cap 1s \
//	         -require-shed -max-interactive-p99 500ms -out report.json
//
// Exit codes: 0 pass, 1 contract violation or failed assertion, 2 usage
// or transport failure.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "overload:", err)
	}
	os.Exit(code)
}

// adviseRequest mirrors the serve wire format; the generator speaks plain
// JSON over HTTP like any external client, so a drifted contract fails
// here instead of being papered over by shared types.
type adviseRequest struct {
	Kernel   string             `json:"kernel"`
	Machine  string             `json:"machine"`
	Bindings map[string]float64 `json:"bindings,omitempty"`
	Space    *spaceSpec         `json:"space,omitempty"`
	Top      int                `json:"top,omitempty"`
}

type spaceSpec struct {
	GPUTeams   []int `json:"gpu_teams,omitempty"`
	GPUThreads []int `json:"gpu_threads,omitempty"`
	CPUThreads []int `json:"cpu_threads,omitempty"`
}

// classReport is the aggregated outcome of one request class.
type classReport struct {
	Requests int `json:"requests"`
	OK       int `json:"ok"`
	Shed     int `json:"shed"`
	Other    int `json:"other"`
	// GoodputRPS is successful (200) responses per second of wall clock —
	// the number that matters under overload: sheds and retries are free,
	// completed work is not.
	GoodputRPS float64 `json:"goodput_rps"`
	P50MS      float64 `json:"p50_ms"`
	P90MS      float64 `json:"p90_ms"`
	P99MS      float64 `json:"p99_ms"`
	MaxMS      float64 `json:"max_ms"`
}

// report is the JSON document written by -out and summarized on stdout.
type report struct {
	Target      string          `json:"target"`
	DurationS   float64         `json:"duration_s"`
	Bulk        classReport     `json:"bulk"`
	Interactive classReport     `json:"interactive"`
	Violations  []string        `json:"violations,omitempty"`
	ServerStats json.RawMessage `json:"server_stats,omitempty"`
}

// sample is one completed request as a worker saw it.
type sample struct {
	status     int
	elapsed    time.Duration
	retryAfter time.Duration // from a valid shed's Retry-After; 0 otherwise
	violation  string        // "" = contract held
}

// run writes the report summary to w and flag errors and usage to stderr.
func run(args []string, w, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("overload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	target := fs.String("target", "", "base URL of the serve instance (required)")
	duration := fs.Duration("duration", 10*time.Second, "how long to sustain the load")
	bulk := fs.Int("bulk", 8, "bulk workers flooding cold evaluations without deadlines")
	interactive := fs.Int("interactive", 2, "interactive workers repeating a warm key under a deadline")
	deadline := fs.Duration("deadline", 2*time.Second, "X-Paragraph-Deadline sent by interactive workers")
	pace := fs.Duration("interactive-pace", 10*time.Millisecond, "gap between interactive requests per worker")
	kernel := fs.String("kernel", "matmul", "kernel name sent in advise requests")
	machine := fs.String("machine", "NVIDIA V100 (GPU)", "machine name sent in advise requests")
	backoffCap := fs.Duration("backoff-cap", time.Second, "cap on honoring a shed's Retry-After before the next bulk request (0 = no backoff)")
	requireShed := fs.Bool("require-shed", false, "fail unless the bulk class saw at least one 503 shed")
	maxP99 := fs.Duration("max-interactive-p99", 0, "fail if the interactive p99 exceeds this (0 = no gate)")
	outPath := fs.String("out", "", "also write the JSON report to this file")
	if err := fs.Parse(args); err != nil {
		return 2, nil
	}
	if *target == "" {
		fs.Usage()
		return 2, fmt.Errorf("-target is required")
	}
	if *bulk < 0 || *interactive < 0 || *bulk+*interactive == 0 {
		return 2, fmt.Errorf("need at least one worker (-bulk %d -interactive %d)", *bulk, *interactive)
	}

	client := &http.Client{Timeout: *duration + 30*time.Second}

	// Warm the interactive key once so that class measures the cache-hit
	// path the admission layer promises to keep shed-free.
	warmKey := adviseRequest{
		Kernel: *kernel, Machine: *machine,
		Bindings: map[string]float64{"n": 64},
		Space:    &spaceSpec{GPUTeams: []int{64}, GPUThreads: []int{128}},
	}
	if st, _, _, err := post(client, *target, warmKey, nil); err != nil {
		return 2, fmt.Errorf("warm-up request: %w", err)
	} else if st != http.StatusOK {
		return 2, fmt.Errorf("warm-up request answered %d", st)
	}

	stop := time.Now().Add(*duration)
	var seq atomic.Int64
	bulkSamples := make([][]sample, *bulk)
	interSamples := make([][]sample, *interactive)
	var wg sync.WaitGroup
	for i := 0; i < *bulk; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			headers := map[string]string{"X-Paragraph-Client": fmt.Sprintf("bulk-%d", i)}
			for time.Now().Before(stop) {
				// A fresh binding per request defeats the cache: every bulk
				// request is a real evaluation competing for the pool.
				req := adviseRequest{
					Kernel: *kernel, Machine: *machine,
					Bindings: map[string]float64{"n": float64(1000 + seq.Add(1))},
					Space:    &spaceSpec{GPUTeams: []int{64}, GPUThreads: []int{128}},
				}
				s := doOne(client, *target, req, headers)
				bulkSamples[i] = append(bulkSamples[i], s)
				// A shed is the server saying "come back later" — honor it
				// (capped, and never past the test window) instead of
				// hammering straight back into the queue it just shed from.
				if s.retryAfter > 0 && *backoffCap > 0 {
					wait := s.retryAfter
					if wait > *backoffCap {
						wait = *backoffCap
					}
					if until := time.Until(stop); wait > until {
						wait = until
					}
					if wait > 0 {
						time.Sleep(wait)
					}
				}
			}
		}(i)
	}
	for i := 0; i < *interactive; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			headers := map[string]string{
				"X-Paragraph-Client":   fmt.Sprintf("interactive-%d", i),
				"X-Paragraph-Deadline": deadline.String(),
			}
			for time.Now().Before(stop) {
				interSamples[i] = append(interSamples[i], doOne(client, *target, warmKey, headers))
				time.Sleep(*pace)
			}
		}(i)
	}
	wg.Wait()

	rep := report{Target: *target, DurationS: duration.Seconds()}
	rep.Bulk = aggregate(flatten(bulkSamples), *duration, &rep.Violations)
	rep.Interactive = aggregate(flatten(interSamples), *duration, &rep.Violations)
	if body, err := get(client, *target+"/v1/stats"); err == nil && json.Valid(body) {
		rep.ServerStats = body
	}

	failed := len(rep.Violations) > 0
	if *requireShed && rep.Bulk.Shed == 0 {
		rep.Violations = append(rep.Violations, "required at least one bulk shed, saw none")
		failed = true
	}
	if *maxP99 > 0 && rep.Interactive.P99MS > float64(maxP99.Milliseconds()) {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("interactive p99 %.1fms exceeds gate %v", rep.Interactive.P99MS, *maxP99))
		failed = true
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return 2, err
	}
	if *outPath != "" {
		blob, _ := json.MarshalIndent(rep, "", "  ")
		if err := os.WriteFile(*outPath, append(blob, '\n'), 0o644); err != nil {
			return 2, err
		}
	}
	if failed {
		return 1, fmt.Errorf("%d violation(s)", len(rep.Violations))
	}
	return 0, nil
}

// doOne sends one advise request and classifies the response against the
// overload contract.
func doOne(client *http.Client, target string, req adviseRequest, headers map[string]string) sample {
	start := time.Now()
	status, hdr, body, err := post(client, target, req, headers)
	s := sample{status: status, elapsed: time.Since(start)}
	switch {
	case err != nil:
		s.status = 0
		s.violation = fmt.Sprintf("transport: %v", err)
	case status == http.StatusServiceUnavailable:
		if v := checkShed(hdr, body); v != "" {
			s.violation = v
		} else if secs, err := strconv.Atoi(hdr.Get("Retry-After")); err == nil {
			s.retryAfter = time.Duration(secs) * time.Second
		}
	case status != http.StatusOK:
		s.violation = fmt.Sprintf("unexpected status %d", status)
	}
	return s
}

// checkShed validates the 503 surface: integral Retry-After >= 1 and a
// JSON error body. Returns "" when the contract holds.
func checkShed(hdr http.Header, body []byte) string {
	ra := hdr.Get("Retry-After")
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		return fmt.Sprintf("shed Retry-After = %q, want integer >= 1", ra)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		return fmt.Sprintf("shed body not a JSON error: %.100s", body)
	}
	return ""
}

func post(client *http.Client, target string, req adviseRequest, headers map[string]string) (int, http.Header, []byte, error) {
	blob, err := json.Marshal(req)
	if err != nil {
		return 0, nil, nil, err
	}
	hreq, err := http.NewRequest(http.MethodPost, target+"/v1/advise", bytes.NewReader(blob))
	if err != nil {
		return 0, nil, nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		hreq.Header.Set(k, v)
	}
	resp, err := client.Do(hreq)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, body, nil
}

func get(client *http.Client, url string) (json.RawMessage, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(io.LimitReader(resp.Body, 1<<20))
}

func flatten(perWorker [][]sample) []sample {
	var all []sample
	for _, ss := range perWorker {
		all = append(all, ss...)
	}
	return all
}

// aggregate folds a class's samples into counts, goodput over the load
// window, and OK-latency quantiles, appending at most a handful of
// distinct contract violations.
func aggregate(samples []sample, window time.Duration, violations *[]string) classReport {
	var rep classReport
	var okMS []float64
	seen := map[string]bool{}
	for _, s := range samples {
		rep.Requests++
		switch {
		case s.violation != "" && s.status != http.StatusServiceUnavailable:
			rep.Other++
		case s.status == http.StatusServiceUnavailable:
			rep.Shed++
		default:
			rep.OK++
			okMS = append(okMS, float64(s.elapsed.Nanoseconds())/1e6)
		}
		if s.violation != "" && !seen[s.violation] && len(seen) < 8 {
			seen[s.violation] = true
			*violations = append(*violations, s.violation)
		}
	}
	if window > 0 {
		rep.GoodputRPS = float64(rep.OK) / window.Seconds()
	}
	sort.Float64s(okMS)
	rep.P50MS = quantile(okMS, 0.50)
	rep.P90MS = quantile(okMS, 0.90)
	rep.P99MS = quantile(okMS, 0.99)
	if n := len(okMS); n > 0 {
		rep.MaxMS = okMS[n-1]
	}
	return rep
}

// quantile reads q from an ascending-sorted slice (nearest-rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"paragraph/internal/serve"
)

// referenceEvery is the oracle's sampling stride: every 50th answer a
// client reads is decoded in full and, if it completed inside a round, kept
// for comparison with the serial reference. Every answer is scanned (see
// scanResponse); decoding every one costs the client ~40 µs and a few
// hundred allocations per operation, and on a two-core box that — the
// client's garbage collector competing with the server — moved advise_warm's
// throughput by ±20 % between identical runs, against ±1 % with the scan.
const referenceEvery = 50

// loadSpec describes one closed-loop run against a serving child.
type loadSpec struct {
	target  string // base URL every client talks to
	clients int
	// next returns client c's t-th request. Sequences are generated before
	// the clock starts; next only indexes them.
	next   func(c, t int) *request
	expect expect

	warmup time.Duration // discarded
	round  time.Duration
	rounds int
	// traced reports whether round r records a client span per request;
	// nil means no round does (the timed run records latencies only).
	traced func(r int) bool
}

// stashed is a measured response kept for the reference comparison, which
// runs after the clock stops so it cannot disturb the measurement.
type stashed struct {
	req  *request
	resp *serve.AdviseResponse
}

// loadResult is what the clients observed.
type loadResult struct {
	rounds    [][]float64 // per round: latencies (ms) of the verified operations that completed in it
	attempted int         // every request sent, warm-up included
	failed    int
	firstErr  error
	stash     []stashed
	spans     []span // client spans of the traced rounds
}

// newClient returns an HTTP client that owns exactly one keep-alive
// connection, so a closed-loop client is one connection as a real caller's
// would be.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        1,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}

// post sends one advise request and reads the whole answer into buf.
func post(ctx context.Context, client *http.Client, url string, body []byte, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := io.Copy(buf, resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// runLoad drives spec.clients closed-loop clients for warm-up plus rounds.
// Each client sends its next request only after the previous answer has
// been read and checked. An operation's latency spans send to last byte;
// the check runs outside that window but inside the loop, so throughput is
// that of a caller who looks at its answers. Operations are assigned to the
// round they complete in; those completing in the warm-up or after the
// last round are checked but not measured.
func runLoad(ctx context.Context, spec loadSpec) loadResult {
	type clientOut struct {
		rounds    [][]float64
		attempted int
		failed    int
		firstErr  error
		stash     []stashed
		spans     []span
	}
	outs := make([]clientOut, spec.clients)
	// The load generator runs on one P: on a two-core box a client process
	// free to use both cores crowds the server and its throughput wanders
	// by a fifth between identical runs; confined, it repeats within 2 %.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	url := spec.target + "/v1/advise"
	tokens := spec.expect.tokens()
	measureStart := time.Now().Add(spec.warmup)
	end := measureStart.Add(time.Duration(spec.rounds) * spec.round)

	var wg sync.WaitGroup
	for c := 0; c < spec.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &outs[c]
			out.rounds = make([][]float64, spec.rounds)
			if spec.traced != nil {
				out.spans = make([]span, 0, 1<<16)
			}
			for r := range out.rounds {
				out.rounds[r] = make([]float64, 0, 1<<15) // no growth pauses inside a round
			}
			client := newClient()
			defer client.CloseIdleConnections()
			var buf bytes.Buffer
			for t := 0; ctx.Err() == nil; t++ {
				req := spec.next(c, t)
				t0 := time.Now()
				if !t0.Before(end) {
					return
				}
				status, err := post(ctx, client, url, req.Body, &buf)
				t1 := time.Now()
				out.attempted++
				var resp *serve.AdviseResponse
				sampled := t%referenceEvery == 0
				switch {
				case err != nil:
				case sampled:
					resp, err = checkResponse(req, status, buf.Bytes(), spec.expect)
				default:
					err = scanResponse(req, status, buf.Bytes(), tokens)
				}
				if err != nil {
					out.failed++
					if out.firstErr == nil {
						out.firstErr = fmt.Errorf("client %d request %d: %w", c, t, err)
					}
					continue
				}
				if t1.Before(measureStart) || !t1.Before(end) {
					continue
				}
				r := int(t1.Sub(measureStart) / spec.round)
				out.rounds[r] = append(out.rounds[r], float64(t1.Sub(t0))/float64(time.Millisecond))
				if sampled {
					out.stash = append(out.stash, stashed{req: req, resp: resp})
				}
				if spec.traced != nil && spec.traced(r) {
					// The request id is filled in after the loop: formatting
					// it here would be tracing overhead of the benchmark's
					// own making.
					out.spans = append(out.spans, span{Name: "client.request", ID: t, Start: t0, End: t1})
				}
			}
		}(c)
	}
	wg.Wait()

	res := loadResult{rounds: make([][]float64, spec.rounds)}
	for c, out := range outs {
		for r, lat := range out.rounds {
			res.rounds[r] = append(res.rounds[r], lat...)
		}
		res.attempted += out.attempted
		res.failed += out.failed
		if res.firstErr == nil {
			res.firstErr = out.firstErr
		}
		res.stash = append(res.stash, out.stash...)
		for _, sp := range out.spans {
			sp.Request, sp.ID = fmt.Sprintf("c%d-%d", c, sp.ID), 0
			res.spans = append(res.spans, sp)
		}
	}
	for _, lat := range res.rounds {
		sort.Float64s(lat)
	}
	return res
}

package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"paragraph/internal/gnn"
	"paragraph/internal/hw"
)

// The overload harness: these tests drive the server well past its
// evaluation capacity and assert the admission-control contract — bounded
// queues shed with 503 + Retry-After instead of queueing without limit,
// deadline-carrying requests never hang past their budget, cache hits
// stay fast for interactive traffic throughout, and the whole system
// drains back to idle when the flood stops.

// slowModel evaluates like the oracle but costs a fixed wall-clock delay
// per batch, so latency histograms — and the drain estimates built on
// them — have real signal.
type slowModel struct{ delay time.Duration }

func (m slowModel) PredictBatch(ss []*gnn.Sample) []float64 {
	time.Sleep(m.delay)
	return oracleModel{}.PredictBatch(ss)
}

// newOverloadServer serves the V100 profile from model under opts.
func newOverloadServer(t *testing.T, model BatchPredictor, opts Options) *Server {
	t.Helper()
	s, err := NewServer([]Backend{
		{Machine: hw.V100(), Model: model, Prep: testPrep()},
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// doH is do with request headers.
func doH(t *testing.T, s *Server, method, path string, body any, headers map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// overloadReq is an advise request over a single-point GPU space whose
// cache key varies with n, so each call is a distinct cold evaluation.
func overloadReq(n int) AdviseRequest {
	return AdviseRequest{
		Kernel:   "matmul",
		Machine:  "NVIDIA V100 (GPU)",
		Bindings: map[string]float64{"n": float64(n)},
		Space:    &SpaceSpec{GPUTeams: []int{64}, GPUThreads: []int{128}},
	}
}

// checkRetryAfter asserts a shed response carries a positive integral
// Retry-After and a JSON error body.
func checkRetryAfter(t *testing.T, rec *httptest.ResponseRecorder) {
	t.Helper()
	ra := rec.Header().Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Errorf("shed Retry-After = %q, want an integer >= 1", ra)
	}
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Errorf("shed body not a JSON error: %s", rec.Body.String())
	}
}

// TestOverloadShedsAtQueueBounds floods a wedged server far past its
// bounded backlog: the excess sheds immediately with 503 + Retry-After,
// health stays green throughout, and once the flood drains the queue
// returns to exactly zero.
func TestOverloadShedsAtQueueBounds(t *testing.T) {
	model := &blockingModel{release: make(chan struct{})}
	s := newOverloadServer(t, model, Options{
		PoolSize: 2, QueueLimit: 2, QueuePerClient: 2,
	})
	released := false
	release := func() {
		if !released {
			released = true
			close(model.release)
		}
	}
	defer release()

	const flood = 10
	codes := make([]int, flood)
	recs := make([]*httptest.ResponseRecorder, flood)
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := do(t, s, http.MethodPost, "/v1/advise", overloadReq(i), nil)
			codes[i] = rec.Code
			recs[i] = rec
		}(i)
	}

	// With the model wedged, the system must settle at exactly capacity:
	// PoolSize running, QueueLimit queued, everything else shed.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.admit.Stats()
		if st.Running == 2 && st.Queued == 2 && st.ShedQueueFull+st.ShedLaneFull == flood-4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never settled at capacity: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}

	// A wedged evaluation path must not take health down with it.
	if rec := do(t, s, http.MethodGet, "/v1/healthz", nil, nil); rec.Code != http.StatusOK {
		t.Errorf("healthz under overload = %d, want 200", rec.Code)
	}

	release()
	wg.Wait()

	ok, shed := 0, 0
	for i, code := range codes {
		switch code {
		case http.StatusOK:
			ok++
		case http.StatusServiceUnavailable:
			shed++
			checkRetryAfter(t, recs[i])
		default:
			t.Errorf("request %d: unexpected status %d: %s", i, code, recs[i].Body.String())
		}
	}
	if ok != 4 || shed != flood-4 {
		t.Errorf("ok/shed = %d/%d, want 4/%d", ok, shed, flood-4)
	}

	st := s.admit.Stats()
	if st.Running != 0 || st.Queued != 0 || st.Lanes != 0 {
		t.Errorf("queue did not drain to idle: %+v", st)
	}
	if st.Admitted != 4 {
		t.Errorf("admitted = %d, want 4", st.Admitted)
	}
	if st.PeakQueued != 2 {
		t.Errorf("peak queued = %d, want the configured bound 2", st.PeakQueued)
	}

	var stats Stats
	do(t, s, http.MethodGet, "/v1/stats", nil, &stats)
	var total uint64
	for _, n := range stats.Shed {
		total += n
	}
	if total != flood-4 {
		t.Errorf("/v1/stats shed total = %d, want %d (%v)", total, flood-4, stats.Shed)
	}
}

// TestOverloadDeadlineShedding: once the latency histograms carry signal,
// a request whose budget cannot cover the predicted drain is rejected up
// front — instantly, with a Retry-After — while budget-less bulk traffic
// keeps queueing and cache hits keep serving interactive traffic fast.
func TestOverloadDeadlineShedding(t *testing.T) {
	s := newOverloadServer(t, slowModel{delay: 30 * time.Millisecond}, Options{
		PoolSize: 1,
	})

	// Warm-up: a cold server never sheds on a guess, so this must succeed
	// and seed the per-prediction latency histogram (~30ms median).
	if rec := do(t, s, http.MethodPost, "/v1/advise", overloadReq(0), nil); rec.Code != http.StatusOK {
		t.Fatalf("warm-up advise: %d %s", rec.Code, rec.Body.String())
	}

	// Bulk flood: budget-less cold evaluations that occupy the single slot
	// and build a backlog.
	var wg sync.WaitGroup
	for i := 1; i <= 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if rec := do(t, s, http.MethodPost, "/v1/advise", overloadReq(i), nil); rec.Code != http.StatusOK {
				t.Errorf("bulk request %d: %d %s", i, rec.Code, rec.Body.String())
			}
		}(i)
	}

	// Interactive misses with a 5ms budget: the drain estimate (>= one
	// 4-point evaluation at ~30ms/point) dwarfs it, so they shed now, not
	// after blocking through the backlog.
	for i := 0; i < 5; i++ {
		start := time.Now()
		rec := doH(t, s, http.MethodPost, "/v1/advise", overloadReq(100+i),
			map[string]string{"X-Paragraph-Deadline": "5ms"})
		elapsed := time.Since(start)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("deadlined miss %d = %d, want 503: %s", i, rec.Code, rec.Body.String())
		}
		checkRetryAfter(t, rec)
		if elapsed > 3*time.Second {
			t.Errorf("deadlined miss %d took %v; shedding must not wait through the backlog", i, elapsed)
		}
	}

	// An already-expired budget sheds as "expired", same surface.
	rec := doH(t, s, http.MethodPost, "/v1/advise", overloadReq(200),
		map[string]string{"X-Paragraph-Deadline": "1ns"})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("expired deadline = %d, want 503: %s", rec.Code, rec.Body.String())
	}
	checkRetryAfter(t, rec)

	// A malformed deadline is the client's error, not a shed.
	if rec := doH(t, s, http.MethodPost, "/v1/advise", overloadReq(201),
		map[string]string{"X-Paragraph-Deadline": "soon"}); rec.Code != http.StatusBadRequest {
		t.Errorf("malformed deadline = %d, want 400", rec.Code)
	}

	// Interactive traffic on warm keys rides the cache and is never shed,
	// whatever its budget — the p99 bound under flood comes from here.
	var worst time.Duration
	for i := 0; i < 20; i++ {
		start := time.Now()
		rec := doH(t, s, http.MethodPost, "/v1/advise", overloadReq(0),
			map[string]string{"X-Paragraph-Deadline": "50ms"})
		if rec.Code != http.StatusOK {
			t.Fatalf("interactive cache hit %d = %d: %s", i, rec.Code, rec.Body.String())
		}
		if d := time.Since(start); d > worst {
			worst = d
		}
	}
	if worst > 2*time.Second {
		t.Errorf("interactive worst-case latency %v under flood; cache hits must bypass admission", worst)
	}

	wg.Wait()

	var stats Stats
	do(t, s, http.MethodGet, "/v1/stats", nil, &stats)
	if stats.Shed["deadline"] < 5 {
		t.Errorf("shed[deadline] = %d, want >= 5", stats.Shed["deadline"])
	}
	if stats.Shed["expired"] < 1 {
		t.Errorf("shed[expired] = %d, want >= 1", stats.Shed["expired"])
	}
}

// TestOverloadDeadlineHonoredInQueue: a request that passes the up-front
// check (cold histograms estimate zero drain) but whose budget expires
// while it waits in the fair queue is released at its deadline with a
// 503 — queued work is abandoned, not hung.
func TestOverloadDeadlineHonoredInQueue(t *testing.T) {
	model := &blockingModel{release: make(chan struct{})}
	s := newOverloadServer(t, model, Options{PoolSize: 1})
	defer close(model.release)

	// Wedge the single slot with a budget-less request.
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(started)
		do(t, s, http.MethodPost, "/v1/advise", overloadReq(0), nil)
	}()
	<-started
	deadline := time.Now().Add(10 * time.Second)
	for s.admit.Stats().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("wedge request never acquired the slot")
		}
		time.Sleep(time.Millisecond)
	}

	const budget = 150 * time.Millisecond
	start := time.Now()
	rec := doH(t, s, http.MethodPost, "/v1/advise", overloadReq(1),
		map[string]string{"X-Paragraph-Deadline": budget.String()})
	elapsed := time.Since(start)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("queued deadlined request = %d, want 503: %s", rec.Code, rec.Body.String())
	}
	checkRetryAfter(t, rec)
	if elapsed < budget {
		t.Errorf("request returned in %v, before its %v budget — shed up front with cold histograms?", elapsed, budget)
	}
	if slack := 5 * time.Second; elapsed > budget+slack {
		t.Errorf("request hung %v past its %v budget", elapsed-budget, budget)
	}

	var stats Stats
	do(t, s, http.MethodGet, "/v1/stats", nil, &stats)
	if stats.Shed["expired"] != 1 {
		t.Errorf("shed[expired] = %d, want 1", stats.Shed["expired"])
	}
}

// TestAdmissionMetricsExposition: the overload-control series — shed
// counters by reason, queue gauges, per-client counters — appear in
// /metrics, and /v1/stats carries the same numbers.
func TestAdmissionMetricsExposition(t *testing.T) {
	s := newOverloadServer(t, slowModel{delay: 20 * time.Millisecond}, Options{
		PoolSize: 1,
	})

	// Two successful evaluations (the first seeds histograms) around one
	// deadline shed.
	if rec := do(t, s, http.MethodPost, "/v1/advise", overloadReq(0), nil); rec.Code != http.StatusOK {
		t.Fatalf("warm-up: %d %s", rec.Code, rec.Body.String())
	}
	if rec := doH(t, s, http.MethodPost, "/v1/advise", overloadReq(1),
		map[string]string{"X-Paragraph-Deadline": "1ms"}); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("deadline shed: %d", rec.Code)
	}
	if rec := do(t, s, http.MethodPost, "/v1/advise", overloadReq(2), nil); rec.Code != http.StatusOK {
		t.Fatalf("second evaluation: %d %s", rec.Code, rec.Body.String())
	}

	out := scrapeMetrics(t, s)
	for _, want := range []string{
		"# TYPE serve_shed_total counter",
		`serve_shed_total{reason="deadline"} 1`,
		`serve_shed_total{reason="queue_full"} 0`,
		`serve_shed_total{reason="lane_full"} 0`,
		`serve_shed_total{reason="expired"} 0`,
		"serve_admit_queued 0",
		"serve_admit_running 0",
		"serve_admit_lanes 0",
		"serve_admit_admitted_total 2",
		`serve_admit_client_admitted_total{client="192.0.2.1"} 2`,
		`serve_batcher_cancelled_total{platform="NVIDIA V100 (GPU)",model="default"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	var st Stats
	do(t, s, http.MethodGet, "/v1/stats", nil, &st)
	if st.Admit.Concurrency != 1 || st.Admit.Admitted != 2 {
		t.Errorf("stats admit = %+v", st.Admit)
	}
	for _, reason := range []string{"queue_full", "lane_full", "deadline", "expired"} {
		if _, ok := st.Shed[reason]; !ok {
			t.Errorf("stats shed map missing reason %q: %v", reason, st.Shed)
		}
	}
	if st.Shed["deadline"] != 1 {
		t.Errorf("stats shed[deadline] = %d, want 1", st.Shed["deadline"])
	}
}

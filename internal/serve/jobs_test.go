package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"paragraph/internal/admit"
	"paragraph/internal/hw"
)

// jobPoll is the client-side view of one GET /v1/jobs/{id} response,
// with the result kept raw for per-test re-decoding.
type jobPoll struct {
	JobID     string          `json:"job_id"`
	Status    string          `json:"status"`
	ElapsedMS float64         `json:"elapsed_ms"`
	Error     string          `json:"error"`
	Result    json.RawMessage `json:"result"`
}

// submitAsync posts an advise request with ?async=1 and decodes the 202.
func submitAsync(t *testing.T, s *Server, req AdviseRequest) JobSubmitResponse {
	t.Helper()
	rec := do(t, s, http.MethodPost, "/v1/advise?async=1", req, nil)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("async submit = %d, want 202: %s", rec.Code, rec.Body.String())
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
		t.Fatalf("decoding submit response: %v\n%s", err, rec.Body.String())
	}
	if sub.JobID == "" || sub.Status != "pending" || sub.Poll != "/v1/jobs/"+sub.JobID {
		t.Fatalf("submit response = %+v", sub)
	}
	return sub
}

// waitJob polls a job until it reaches wantStatus (within 10s).
func waitJob(t *testing.T, s *Server, poll, wantStatus string) jobPoll {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		rec := do(t, s, http.MethodGet, poll, nil, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", poll, rec.Code, rec.Body.String())
		}
		var jp jobPoll
		if err := json.Unmarshal(rec.Body.Bytes(), &jp); err != nil {
			t.Fatalf("decoding job poll: %v\n%s", err, rec.Body.String())
		}
		if jp.Status == wantStatus {
			return jp
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never reached %q: %+v", wantStatus, jp)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestAsyncJobRoundTrip: submit → poll → result, and the async ranking is
// byte-equal to what the synchronous path serves for the same request.
func TestAsyncJobRoundTrip(t *testing.T) {
	s := newTestServer(t)

	var sync AdviseResponse
	if rec := do(t, s, http.MethodPost, "/v1/advise", adviseReq("NVIDIA V100 (GPU)"), &sync); rec.Code != http.StatusOK {
		t.Fatalf("sync advise: %d %s", rec.Code, rec.Body.String())
	}

	sub := submitAsync(t, s, adviseReq("NVIDIA V100 (GPU)"))
	jp := waitJob(t, s, sub.Poll, "done")
	if jp.Error != "" {
		t.Fatalf("job error = %q", jp.Error)
	}
	var async AdviseResponse
	if err := json.Unmarshal(jp.Result, &async); err != nil {
		t.Fatalf("decoding job result: %v\n%s", err, jp.Result)
	}
	if !async.Cached {
		t.Error("async repeat of a warm key not served from cache")
	}
	if len(async.Recommendations) != len(sync.Recommendations) {
		t.Fatalf("async ranking has %d recommendations, sync %d",
			len(async.Recommendations), len(sync.Recommendations))
	}
	for i := range sync.Recommendations {
		if async.Recommendations[i] != sync.Recommendations[i] {
			t.Errorf("rec %d differs: async %+v vs sync %+v",
				i, async.Recommendations[i], sync.Recommendations[i])
		}
	}
}

// TestAsyncJobStream: a finished job streams as NDJSON — a header line
// with the ranking metadata, then one line per recommendation.
func TestAsyncJobStream(t *testing.T) {
	s := newTestServer(t)
	sub := submitAsync(t, s, adviseReq("NVIDIA V100 (GPU)"))
	waitJob(t, s, sub.Poll, "done")

	rec := do(t, s, http.MethodGet, sub.Poll+"?stream=1", nil, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stream = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type = %q", ct)
	}
	lines := strings.Split(strings.TrimRight(rec.Body.String(), "\n"), "\n")
	if len(lines) != 9 { // header + 8 recommendations (4 kinds × 2 teams)
		t.Fatalf("stream has %d lines, want 9:\n%s", len(lines), rec.Body.String())
	}
	var head jobPoll
	if err := json.Unmarshal([]byte(lines[0]), &head); err != nil || head.Status != "done" {
		t.Fatalf("stream header = %q (%v)", lines[0], err)
	}
	var headResp AdviseResponse
	if err := json.Unmarshal(head.Result, &headResp); err != nil {
		t.Fatalf("stream header result: %v", err)
	}
	if len(headResp.Recommendations) != 0 {
		t.Error("stream header repeats the recommendation rows")
	}
	prev := -1.0
	for _, line := range lines[1:] {
		var r Recommendation
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("stream row %q: %v", line, err)
		}
		if r.PredictedUS < prev {
			t.Error("streamed rows not sorted fastest-first")
		}
		prev = r.PredictedUS
	}
}

// TestAsyncJobStoreBounds: the job store sheds at capacity with the same
// 503 + Retry-After surface as the queue, and recovers once jobs expire
// or finish being consumed.
func TestAsyncJobStoreBounds(t *testing.T) {
	model := &blockingModel{release: make(chan struct{})}
	s, err := NewServer([]Backend{
		{Machine: hw.V100(), Model: model, Prep: testPrep()},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.jobs.Close()
	s.jobs = admit.NewStore(1, jobTTL)
	released := false
	release := func() {
		if !released {
			released = true
			close(model.release)
		}
	}
	defer s.Close() // runs after release: Close waits out the running job
	defer release()

	sub := submitAsync(t, s, overloadReq(1))

	rec := do(t, s, http.MethodPost, "/v1/advise?async=1", overloadReq(2), nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit beyond capacity = %d, want 503: %s", rec.Code, rec.Body.String())
	}
	checkRetryAfter(t, rec)

	release()
	jp := waitJob(t, s, sub.Poll, "done")
	if jp.Error != "" {
		t.Errorf("job failed: %q", jp.Error)
	}
	if st := s.jobs.Stats(); st.Rejected != 1 || st.Submitted != 1 {
		t.Errorf("job store stats = %+v", st)
	}
}

// TestAsyncJobDeadline: a deadline header bounds the background
// evaluation — the job fails at its budget instead of running forever.
// The budget is honoured wherever a job can wait (the admission queue,
// between grid points, before the model call), not inside a running forward
// pass, so the job here sits behind a wedged evaluation slot.
func TestAsyncJobDeadline(t *testing.T) {
	model := &blockingModel{release: make(chan struct{})}
	s, err := NewServer([]Backend{
		{Machine: hw.V100(), Model: model, Prep: testPrep()},
	}, Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	released := false
	release := func() {
		if !released {
			released = true
			close(model.release)
		}
	}
	defer s.Close()
	defer release()

	wedge := submitAsync(t, s, overloadReq(0))
	for deadline := time.Now().Add(10 * time.Second); s.admit.Stats().Running == 0; {
		if time.Now().After(deadline) {
			t.Fatal("wedge job never acquired the slot")
		}
		time.Sleep(time.Millisecond)
	}

	rec := doH(t, s, http.MethodPost, "/v1/advise?async=1", overloadReq(1),
		map[string]string{"X-Paragraph-Deadline": "30ms"})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("async submit = %d: %s", rec.Code, rec.Body.String())
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	jp := waitJob(t, s, sub.Poll, "failed")
	if jp.Error == "" {
		t.Error("failed job carries no error")
	}

	release()
	waitJob(t, s, wedge.Poll, "done")

	// A malformed deadline rejects the submission itself.
	if rec := doH(t, s, http.MethodPost, "/v1/advise?async=1", overloadReq(3),
		map[string]string{"X-Paragraph-Deadline": "whenever"}); rec.Code != http.StatusBadRequest {
		t.Errorf("malformed async deadline = %d, want 400", rec.Code)
	}
}

// TestAsyncJobExpires: finished jobs are reclaimed TTL after completion;
// a poll past that is an honest 404, not unbounded memory.
func TestAsyncJobExpires(t *testing.T) {
	s, err := NewServer([]Backend{
		{Machine: hw.V100(), Model: oracleModel{}, Prep: testPrep()},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.jobs.Close()
	s.jobs = admit.NewStore(jobLimit, 100*time.Millisecond)
	t.Cleanup(s.Close)

	sub := submitAsync(t, s, overloadReq(1))
	waitJob(t, s, sub.Poll, "done")

	// The sweeper runs at max(ttl/4, 1s); well within 10s the job is gone.
	deadline := time.Now().Add(10 * time.Second)
	for {
		rec := do(t, s, http.MethodGet, sub.Poll, nil, nil)
		if rec.Code == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never expired: still %d", rec.Code)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if st := s.jobs.Stats(); st.Expired != 1 {
		t.Errorf("expired = %d, want 1", st.Expired)
	}
}

// TestJobsEndpointErrors: the poll endpoint's error surface.
func TestJobsEndpointErrors(t *testing.T) {
	s := newTestServer(t)
	if rec := do(t, s, http.MethodGet, "/v1/jobs/no-such-job", nil, nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", rec.Code)
	}
	if rec := do(t, s, http.MethodGet, "/v1/jobs/", nil, nil); rec.Code != http.StatusNotFound {
		t.Errorf("missing id = %d, want 404", rec.Code)
	}
	if rec := do(t, s, http.MethodPost, "/v1/jobs/x", nil, nil); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST jobs = %d, want 405", rec.Code)
	}
}

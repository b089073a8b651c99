package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"paragraph/internal/obs"
)

// metricsLine matches one sample line of the Prometheus text exposition
// format (comment lines are matched separately).
var metricsLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)

// scrapeMetrics GETs /metrics and validates every line of the exposition.
func scrapeMetrics(t *testing.T, s *Server) string {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: %d %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q, want text exposition 0.0.4", ct)
	}
	out := rec.Body.String()
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !metricsLine.MatchString(line) {
			t.Errorf("unparseable exposition line: %q", line)
		}
	}
	return out
}

func TestMetricsExposition(t *testing.T) {
	s := newTestServer(t)
	// One cold advise (evaluates through admission and batcher) and one warm
	// repeat (response-cache hit) give every request-path series a value.
	do(t, s, http.MethodPost, "/v1/advise", adviseReq("NVIDIA V100 (GPU)"), nil)
	do(t, s, http.MethodPost, "/v1/advise", adviseReq("NVIDIA V100 (GPU)"), nil)

	out := scrapeMetrics(t, s)
	for _, want := range []string{
		"# TYPE serve_requests_total counter",
		`serve_requests_total{endpoint="advise"} 2`,
		`serve_request_duration_seconds_bucket{endpoint="advise",le="+Inf"} 2`,
		`serve_request_duration_seconds_count{endpoint="advise"} 2`,
		"serve_advise_cache_hits_total 1",
		`serve_cache_entries{cache="advise"} 1`,
		`serve_cache_hits_total{cache="advise"} 1`,
		"serve_admit_admitted_total 1",
		"# TYPE serve_batcher_latency_seconds histogram",
		`serve_batcher_latency_seconds_count{platform="NVIDIA V100 (GPU)",model="default"}`,
		`serve_batch_size_bucket{platform="NVIDIA V100 (GPU)",model="default",le="+Inf"}`,
		`serve_batcher_batches_total{platform="NVIDIA V100 (GPU)",model="default"} 1`,
		`serve_advise_eval_seconds_count{platform="NVIDIA V100 (GPU)",model="default"} 1`,
		`serve_model_advise_total{platform="NVIDIA V100 (GPU)",model="default"} 2`,
		"serve_traces_started_total 2",
		"serve_uptime_seconds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// A non-cluster server must not advertise cluster series.
	if strings.Contains(out, "serve_cluster_") {
		t.Error("cluster series exposed outside cluster mode")
	}
}

func TestMetricsRejectsPost(t *testing.T) {
	s := newTestServer(t)
	if rec := do(t, s, http.MethodPost, "/metrics", nil, nil); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics = %d, want 405", rec.Code)
	}
}

// doTraced posts one request carrying an explicit trace id and returns the
// recorder.
func doTraced(t *testing.T, s *Server, path string, body any, traceID string) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, &buf)
	req.Header.Set(obs.TraceHeader, traceID)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

func TestTraceCapturesRequestSpans(t *testing.T) {
	s := newTestServer(t)
	rec := doTraced(t, s, "/v1/advise", adviseReq("NVIDIA V100 (GPU)"), "trace-advise-1")
	if rec.Code != http.StatusOK {
		t.Fatalf("advise: %d %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(obs.TraceHeader); got != "trace-advise-1" {
		t.Errorf("response trace header = %q, want the ingress id echoed", got)
	}

	var ft obs.FinishedTrace
	if r := do(t, s, http.MethodGet, "/v1/trace?id=trace-advise-1", nil, &ft); r.Code != http.StatusOK {
		t.Fatalf("GET /v1/trace?id=: %d %s", r.Code, r.Body.String())
	}
	if ft.Endpoint != "advise" || ft.Status != http.StatusOK {
		t.Errorf("trace = endpoint %q status %d, want advise/200", ft.Endpoint, ft.Status)
	}
	count, detail := map[string]int{}, map[string]string{}
	for _, sp := range ft.Spans {
		count[sp.Name]++
		detail[sp.Name] = sp.Detail
		if sp.DurUS < 0 {
			t.Errorf("span %q has negative duration %d", sp.Name, sp.DurUS)
		}
	}
	// A cold advise runs the full path: decode, response-cache lookup, pool
	// admission, then one span per phase — the front end over the whole grid
	// (4 GPU kinds × 2 teams × 1 threads), the single model call, the rank.
	for _, want := range []string{"decode", "cache_lookup", "pool_wait", "encode", "predict", "rank"} {
		if count[want] != 1 {
			t.Errorf("trace has %d %q spans, want 1 (got %v)", count[want], want, count)
		}
	}
	if count["queue_wait"] != 0 {
		t.Error("trace still carries a queue_wait span; there is no queue")
	}
	if detail["encode"] != "points=8" || detail["predict"] != "batch=8" {
		t.Errorf("encode/predict details = %q/%q, want points=8/batch=8", detail["encode"], detail["predict"])
	}
}

func TestTraceListingAndErrors(t *testing.T) {
	s := newTestServer(t)
	doTraced(t, s, "/v1/advise", adviseReq("NVIDIA V100 (GPU)"), "list-a")
	doTraced(t, s, "/v1/predict", PredictRequest{
		Kernel: "matmul", Machine: "NVIDIA V100 (GPU)",
		Variant: "gpu_collapse", Teams: 64, Threads: 128,
		Bindings: map[string]float64{"n": 256},
	}, "list-b")

	var list TraceListResponse
	do(t, s, http.MethodGet, "/v1/trace", nil, &list)
	if len(list.Traces) != 2 {
		t.Fatalf("retained %d traces, want 2", len(list.Traces))
	}
	if list.Traces[0].ID != "list-b" || list.Traces[1].ID != "list-a" {
		t.Errorf("traces not newest-first: %q then %q", list.Traces[0].ID, list.Traces[1].ID)
	}

	var one TraceListResponse
	do(t, s, http.MethodGet, "/v1/trace?n=1", nil, &one)
	if len(one.Traces) != 1 || one.Traces[0].ID != "list-b" {
		t.Errorf("?n=1 returned %d traces, want the newest only", len(one.Traces))
	}

	if rec := do(t, s, http.MethodGet, "/v1/trace?n=zero", nil, nil); rec.Code != http.StatusBadRequest {
		t.Errorf("bad ?n= returned %d, want 400", rec.Code)
	}
	if rec := do(t, s, http.MethodGet, "/v1/trace?id=never-seen", nil, nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown ?id= returned %d, want 404", rec.Code)
	}
}

func TestErrorAccountingByEndpointAndClass(t *testing.T) {
	s := newTestServer(t)
	// Two distinct 4xx failures against /v1/advise: a malformed body and a
	// wrong method.
	req := httptest.NewRequest(http.MethodPost, "/v1/advise", strings.NewReader("{not json"))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed advise = %d, want 400", rec.Code)
	}
	if r := do(t, s, http.MethodGet, "/v1/advise", nil, nil); r.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET advise = %d, want 405", r.Code)
	}

	out := scrapeMetrics(t, s)
	if want := `serve_errors_total{endpoint="advise",code="4xx"} 2`; !strings.Contains(out, want) {
		t.Errorf("exposition missing %q", want)
	}

	var st Stats
	do(t, s, http.MethodGet, "/v1/stats", nil, &st)
	if st.Requests.Errors != 2 {
		t.Errorf("stats errors = %d, want 2", st.Requests.Errors)
	}
	if st.Requests.Advise != 2 {
		t.Errorf("stats advise requests = %d, want 2 (failed requests count as received)", st.Requests.Advise)
	}
}

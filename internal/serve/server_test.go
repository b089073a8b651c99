package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paragraph/internal/dataset"
	"paragraph/internal/gnn"
	"paragraph/internal/hw"
	"paragraph/internal/paragraph"
	"paragraph/internal/registry"
)

// oracleModel is a deterministic stand-in for a trained GNN: it predicts
// from the graph's total log-weight and the scaled thread feature, so
// rankings are stable without training.
type oracleModel struct{}

func (oracleModel) PredictBatch(ss []*gnn.Sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		var total float64
		for _, rel := range s.G.Rels {
			for _, w := range rel.LogW {
				total += w
			}
		}
		out[i] = total/1e4 - 0.1*s.Feats[1]
	}
	return out
}

func testPrep() *dataset.Prepared {
	return &dataset.Prepared{
		TargetScaler: dataset.Scaler{Min: math.Log(10), Max: math.Log(1e6)},
		TeamScaler:   dataset.Scaler{Min: 0, Max: 256},
		ThreadScaler: dataset.Scaler{Min: 1, Max: 256},
		WScale:       10,
	}
}

// newTestServer serves a CPU and a GPU profile from oracle models.
func newTestServer(t testing.TB) *Server {
	t.Helper()
	s, err := NewServer([]Backend{
		{Machine: hw.Power9(), Model: oracleModel{}, Prep: testPrep()},
		{Machine: hw.V100(), Model: oracleModel{}, Prep: testPrep()},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// do posts (or gets) one request against the handler and decodes the reply.
func do(t *testing.T, s *Server, method, path string, body any, out any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if out != nil && rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("decoding %s response: %v\n%s", path, err, rec.Body.String())
		}
	}
	return rec
}

func adviseReq(machine string) AdviseRequest {
	return AdviseRequest{
		Kernel:   "matmul",
		Machine:  machine,
		Bindings: map[string]float64{"n": 256},
		Space: &SpaceSpec{
			CPUThreads: []int{2, 8},
			GPUTeams:   []int{64, 128},
			GPUThreads: []int{128},
		},
	}
}

// pointReq is a one-point advise — how a client asks for one variant's
// runtime: one team and thread count, one point of each of matmul's four
// GPU variant kinds.
func pointReq() AdviseRequest {
	req := adviseReq("NVIDIA V100 (GPU)")
	req.Space = &SpaceSpec{GPUTeams: []int{64}, GPUThreads: []int{128}}
	return req
}

func TestAdviseColdThenCached(t *testing.T) {
	s := newTestServer(t)

	var cold AdviseResponse
	if rec := do(t, s, http.MethodPost, "/v1/advise", adviseReq("NVIDIA V100 (GPU)"), &cold); rec.Code != http.StatusOK {
		t.Fatalf("cold advise: %d %s", rec.Code, rec.Body.String())
	}
	if cold.Cached {
		t.Error("first request claims cached")
	}
	if len(cold.Recommendations) != 8 { // 4 GPU kinds × 2 teams × 1 threads
		t.Fatalf("recommendations = %d, want 8", len(cold.Recommendations))
	}
	for i := 1; i < len(cold.Recommendations); i++ {
		if cold.Recommendations[i-1].PredictedUS > cold.Recommendations[i].PredictedUS {
			t.Error("recommendations not sorted fastest-first")
		}
	}

	// A query parameter, ?async=1 included, changes nothing.
	for _, path := range []string{"/v1/advise", "/v1/advise?async=1"} {
		var warm AdviseResponse
		if rec := do(t, s, http.MethodPost, path, adviseReq("NVIDIA V100 (GPU)"), &warm); rec.Code != http.StatusOK {
			t.Fatalf("POST %s: %d %s", path, rec.Code, rec.Body.String())
		}
		if !warm.Cached {
			t.Errorf("POST %s: identical repeat request not served from cache", path)
		}
		if len(warm.Recommendations) != len(cold.Recommendations) {
			t.Fatalf("POST %s: cached ranking differs in length", path)
		}
		for i := range cold.Recommendations {
			if warm.Recommendations[i] != cold.Recommendations[i] {
				t.Errorf("POST %s: cached rec %d differs: %+v vs %+v",
					path, i, warm.Recommendations[i], cold.Recommendations[i])
			}
		}
	}

	// The hit must be visible in /v1/stats.
	var st Stats
	do(t, s, http.MethodGet, "/v1/stats", nil, &st)
	if st.AdviseCacheHits == 0 {
		t.Error("stats report zero advise cache hits")
	}
	if st.AdviseCache.Hits == 0 {
		t.Error("response cache recorded no hits")
	}
	if st.Requests.Advise != 3 {
		t.Errorf("advise requests = %d, want 3", st.Requests.Advise)
	}
}

func TestAdviseCPUAndGPUProfiles(t *testing.T) {
	s := newTestServer(t)
	var cpu, gpu AdviseResponse
	if rec := do(t, s, http.MethodPost, "/v1/advise", adviseReq("IBM POWER9 (CPU)"), &cpu); rec.Code != http.StatusOK {
		t.Fatalf("CPU advise: %d %s", rec.Code, rec.Body.String())
	}
	if rec := do(t, s, http.MethodPost, "/v1/advise", adviseReq("NVIDIA V100 (GPU)"), &gpu); rec.Code != http.StatusOK {
		t.Fatalf("GPU advise: %d %s", rec.Code, rec.Body.String())
	}
	// matmul is collapsible: CPU = {cpu, cpu_collapse} × 2 threads.
	if len(cpu.Recommendations) != 4 {
		t.Errorf("CPU recommendations = %d, want 4", len(cpu.Recommendations))
	}
	for _, r := range cpu.Recommendations {
		if r.Teams != 0 {
			t.Errorf("CPU recommendation carries teams: %+v", r)
		}
	}
	for _, r := range gpu.Recommendations {
		if r.Teams == 0 {
			t.Errorf("GPU recommendation missing teams: %+v", r)
		}
	}
}

func TestAdviseTopAndSource(t *testing.T) {
	s := newTestServer(t)
	req := adviseReq("NVIDIA V100 (GPU)")
	req.Top = 1
	req.IncludeSource = true
	var resp AdviseResponse
	do(t, s, http.MethodPost, "/v1/advise", req, &resp)
	if len(resp.Recommendations) != 1 {
		t.Fatalf("top=1 returned %d recommendations", len(resp.Recommendations))
	}
	if resp.Recommendations[0].Source == "" {
		t.Error("include_source returned empty source")
	}
	// A full request after the truncated one still sees the cached ranking.
	full := adviseReq("NVIDIA V100 (GPU)")
	var resp2 AdviseResponse
	do(t, s, http.MethodPost, "/v1/advise", full, &resp2)
	if !resp2.Cached {
		t.Error("top and include_source leaked into the cache key")
	}
	if len(resp2.Recommendations) != 8 {
		t.Errorf("full request got %d recommendations", len(resp2.Recommendations))
	}
	if resp2.Recommendations[0].Source != "" {
		t.Error("source returned without include_source")
	}
}

func TestAdviseCustomKernel(t *testing.T) {
	s := newTestServer(t)
	req := AdviseRequest{
		Custom: &KernelSpec{
			Name:     "scale",
			FuncName: "scale",
			Source: `
void scale(double *a, int n) {
__PRAGMA__
    for (int i = 0; i < n; i++) {
        a[i] = a[i] * 2.0;
    }
}
`,
			Params: []ParamSpec{{Name: "n", Values: []int{1024}}},
		},
		Machine:  "NVIDIA V100 (GPU)",
		Bindings: map[string]float64{"n": 1024},
		Space:    &SpaceSpec{GPUTeams: []int{64}, GPUThreads: []int{128}},
	}
	var resp AdviseResponse
	if rec := do(t, s, http.MethodPost, "/v1/advise", req, &resp); rec.Code != http.StatusOK {
		t.Fatalf("custom advise: %d %s", rec.Code, rec.Body.String())
	}
	// Non-collapsible custom kernel: gpu + gpu_mem.
	if len(resp.Recommendations) != 2 {
		t.Errorf("recommendations = %d, want 2", len(resp.Recommendations))
	}
	if resp.Kernel != "scale" {
		t.Errorf("kernel = %q", resp.Kernel)
	}
}

// TestDeepCustomKernelIsAnError is the ROADMAP's process kill as a request:
// a custom kernel assigning 300 000 nested parentheses — 600 kB, under the
// body cap — used to end the process with a stack overflow inside cparse.
// It is answered 422 by the parser's nesting budget, and the server keeps
// answering.
func TestDeepCustomKernelIsAnError(t *testing.T) {
	s := newTestServer(t)
	const depth = 300_000
	spec := &KernelSpec{
		Name:     "deep",
		FuncName: "deep",
		Source: "void deep(double *a, int n) {\n__PRAGMA__\n" +
			"    for (int i = 0; i < n; i++) {\n        a[0] = " +
			strings.Repeat("(", depth) + "1" + strings.Repeat(")", depth) + ";\n    }\n}\n",
		Params: []ParamSpec{{Name: "n", Values: []int{1024}}},
	}
	rec := do(t, s, http.MethodPost, "/v1/advise", AdviseRequest{
		Custom: spec, Machine: "NVIDIA V100 (GPU)", Bindings: map[string]float64{"n": 1024},
		Space: &SpaceSpec{GPUTeams: []int{64}, GPUThreads: []int{128}},
	}, nil)
	if rec.Code != http.StatusUnprocessableEntity || !strings.Contains(rec.Body.String(), "nesting deeper than") {
		t.Errorf("advise with %d nested parentheses: %d %.200s, want 422 naming the nesting budget",
			depth, rec.Code, rec.Body.String())
	}
	if rec := do(t, s, http.MethodGet, "/v1/healthz", nil, nil); rec.Code != http.StatusOK {
		t.Errorf("healthz after the deep advise: %d", rec.Code)
	}
}

// TestLongCustomKernelIsAnError: a flat custom kernel of 20 000 `a[i] +`
// terms — 140 kB, under the body cap, 100 000 tokens — is answered 422 by
// the parser's length budget instead of being parsed and built once per
// variant kind inside an admission slot, and the server keeps answering.
func TestLongCustomKernelIsAnError(t *testing.T) {
	s := newTestServer(t)
	spec := &KernelSpec{
		Name:     "flat",
		FuncName: "flat",
		Source: "void flat(double *a, int n) {\n__PRAGMA__\n" +
			"    for (int i = 0; i < n; i++) {\n        a[i] = " +
			strings.Repeat("a[i] + ", 20_000) + "1.0;\n    }\n}\n",
		Params: []ParamSpec{{Name: "n", Values: []int{1024}}},
	}
	rec := do(t, s, http.MethodPost, "/v1/advise", AdviseRequest{
		Custom: spec, Machine: "NVIDIA V100 (GPU)", Bindings: map[string]float64{"n": 1024},
		Space: &SpaceSpec{GPUTeams: []int{64}, GPUThreads: []int{128}},
	}, nil)
	if rec.Code != http.StatusUnprocessableEntity || !strings.Contains(rec.Body.String(), "longer than 16384 tokens") {
		t.Errorf("advise with a 20 000-term body: %d %.200s, want 422 naming the length budget",
			rec.Code, rec.Body.String())
	}
	if rec := do(t, s, http.MethodGet, "/v1/healthz", nil, nil); rec.Code != http.StatusOK {
		t.Errorf("healthz after the long advise: %d", rec.Code)
	}
}

// TestSearchSpaceIsBoundedAtTheEdge: a space with an entry below 1 or more
// than advisor.MaxGridPoints points is a 400 naming the reason, counted in
// serve_rejected_total{reason}, and costs no evaluation — the grid is never
// materialised, admitted, cached or forwarded.
func TestSearchSpaceIsBoundedAtTheEdge(t *testing.T) {
	s := newTestServer(t)
	seq := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = i + 1
		}
		return out
	}
	for _, c := range []struct {
		name   string
		space  SpaceSpec
		reason string
		say    string
	}{
		{"zero gpu_threads", SpaceSpec{GPUThreads: []int{0}}, "space_value", "at least 1"},
		{"negative gpu_teams", SpaceSpec{GPUTeams: []int{64, -2}, GPUThreads: []int{128}}, "space_value", "at least 1"},
		{"5000 points", SpaceSpec{GPUTeams: seq(50), GPUThreads: seq(25)}, "grid_points", "exceeds 4096 grid points"},
	} {
		before := s.metrics.rejected[c.reason].Value()
		req := adviseReq("NVIDIA V100 (GPU)")
		req.Space = &c.space
		rec := do(t, s, http.MethodPost, "/v1/advise", req, nil)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), c.say) {
			t.Errorf("%s: %d %s, want 400 saying %q", c.name, rec.Code, rec.Body.String(), c.say)
		}
		if got := s.metrics.rejected[c.reason].Value(); got != before+1 {
			t.Errorf("%s: serve_rejected_total{reason=%q} went %d → %d, want +1", c.name, c.reason, before, got)
		}
	}
	if st := s.admit.Stats(); st.Admitted != 0 {
		t.Errorf("%d evaluations admitted for refused spaces", st.Admitted)
	}
	out := scrapeMetrics(t, s)
	for _, want := range []string{`serve_rejected_total{reason="space_value"} 2`, `serve_rejected_total{reason="grid_points"} 1`} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// panickyModel is a model with a bug on one input: it panics on any batch
// holding a sample of the named kernel.
type panickyModel struct {
	oracleModel
	kernel string
}

func (m panickyModel) PredictBatch(ss []*gnn.Sample) []float64 {
	for _, s := range ss {
		if strings.HasPrefix(s.Name, m.kernel+"_") {
			panic("model bug on " + s.Name)
		}
	}
	return m.oracleModel.PredictBatch(ss)
}

// TestPanickingModelIsA500: a panic under an evaluation is that request's
// 500 with the panic named, and the server keeps answering, the same model
// included.
func TestPanickingModelIsA500(t *testing.T) {
	s, err := NewServer([]Backend{
		{Machine: hw.V100(), Model: panickyModel{kernel: "transpose"}, Prep: testPrep()},
	}, Options{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	bad := AdviseRequest{Kernel: "transpose", Machine: "NVIDIA V100 (GPU)", Bindings: map[string]float64{"n": 512, "m": 512}}
	rec := do(t, s, http.MethodPost, "/v1/advise", bad, nil)
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "panic: model bug on transpose_gpu_") {
		t.Fatalf("advise on a panicking model: %d %s, want 500 naming the panic", rec.Code, rec.Body.String())
	}
	bad.Space = &SpaceSpec{GPUTeams: []int{64}, GPUThreads: []int{128}}
	if rec := do(t, s, http.MethodPost, "/v1/advise", bad, nil); rec.Code != http.StatusInternalServerError {
		t.Errorf("one-point advise on a panicking model: %d %s, want 500", rec.Code, rec.Body.String())
	}

	if rec := do(t, s, http.MethodGet, "/v1/healthz", nil, nil); rec.Code != http.StatusOK {
		t.Errorf("healthz after the panics: %d", rec.Code)
	}
	if rec := do(t, s, http.MethodPost, "/v1/advise", adviseReq("NVIDIA V100 (GPU)"), nil); rec.Code != http.StatusOK {
		t.Errorf("advise on another kernel after the panics: %d %s", rec.Code, rec.Body.String())
	}
	if out := scrapeMetrics(t, s); !strings.Contains(out, `serve_errors_total{endpoint="advise",code="5xx"} 2`) {
		t.Error("the 500s are not counted in serve_errors_total{code=\"5xx\"}")
	}
}

// TestRequestBodyLimit: /v1/advise refuses a body over
// maxRequestBody with 413 before decoding it, and a custom kernel that
// fills the cap to the byte is still served.
func TestRequestBodyLimit(t *testing.T) {
	s := newTestServer(t)
	spec := func(pad int) *KernelSpec {
		return &KernelSpec{
			Name:     "scale",
			FuncName: "scale",
			Source: "void scale(double *a, int n) {\n__PRAGMA__\n" +
				"    for (int i = 0; i < n; i++) {\n        a[i] = a[i] * 2.0;\n    }\n}\n" +
				strings.Repeat(" ", pad),
			Params: []ParamSpec{{Name: "n", Values: []int{1024}}},
		}
	}
	advise := func(pad int) any {
		return AdviseRequest{
			Custom: spec(pad), Machine: "NVIDIA V100 (GPU)", Bindings: map[string]float64{"n": 1024},
			Space: &SpaceSpec{GPUTeams: []int{64}, GPUThreads: []int{128}},
		}
	}
	// sized renders build's request padded to exactly size bytes (a space
	// inside a JSON string is one byte).
	sized := func(build func(pad int) any, size int) []byte {
		bare, err := json.Marshal(build(0))
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(build(size - len(bare)))
		if err != nil || len(body) != size {
			t.Fatalf("padded body is %d bytes, want %d (%v)", len(body), size, err)
		}
		return body
	}
	for _, tc := range []struct {
		name, path string
		body       []byte
		code       int
	}{
		{"oversized advise", "/v1/advise", sized(advise, maxRequestBody+1), http.StatusRequestEntityTooLarge},
		{"advise at the cap", "/v1/advise", sized(advise, maxRequestBody), http.StatusOK},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, bytes.NewReader(tc.body)))
			if rec.Code != tc.code {
				t.Fatalf("%s with %d bytes = %d, want %d: %.200s", tc.path, len(tc.body), rec.Code, tc.code, rec.Body.String())
			}
			var e errorResponse
			if tc.code != http.StatusOK && (json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error == "") {
				t.Errorf("error body not JSON: %s", rec.Body.String())
			}
		})
	}
}

// TestColdRequestIsOneModelCall: a cold advise hands the model its whole
// grid in a single call — a one-point advise its point of each variant
// kind — cache hits nothing, and /v1/stats reports exactly those calls.
func TestColdRequestIsOneModelCall(t *testing.T) {
	model := &echoModel{}
	s := newOverloadServer(t, model, Options{})
	point := pointReq()
	for i, step := range []struct {
		path string
		body any
		want []int // model call sizes so far
	}{
		{"/v1/advise", adviseReq("NVIDIA V100 (GPU)"), []int{8}}, // 4 GPU kinds × 2 teams × 1 threads
		{"/v1/advise", adviseReq("NVIDIA V100 (GPU)"), []int{8}}, // hit
		{"/v1/advise", point, []int{8, 4}},                       // one point of each GPU kind
		{"/v1/advise", point, []int{8, 4}},                       // hit
	} {
		if rec := do(t, s, http.MethodPost, step.path, step.body, nil); rec.Code != http.StatusOK {
			t.Fatalf("step %d %s: %d %s", i, step.path, rec.Code, rec.Body.String())
		}
		if got := model.callSizes(); !reflect.DeepEqual(got, step.want) {
			t.Fatalf("step %d %s: model calls = %v, want %v", i, step.path, got, step.want)
		}
	}
	var st Stats
	do(t, s, http.MethodGet, "/v1/stats", nil, &st)
	if b := st.Models[0].Batcher; b.Batches != 2 || b.Samples != 12 || b.MeanBatch != 6 || b.MaxBatch != 8 {
		t.Errorf("/v1/stats batcher = %+v, want 12 samples in 2 batches", b)
	}
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t)
	var h struct {
		Status   string   `json:"status"`
		Machines []string `json:"machines"`
	}
	if rec := do(t, s, http.MethodGet, "/v1/healthz", nil, &h); rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
	if h.Status != "ok" || len(h.Machines) != 2 {
		t.Errorf("healthz = %+v", h)
	}
}

// TestHealthzNamesNoLevel: a server whose model was trained at the raw
// level must not claim "ParaGraph" anywhere. Healthz reports no level;
// /v1/models reports each version's own.
func TestHealthzNamesNoLevel(t *testing.T) {
	s, err := NewServer([]Backend{{
		Machine: hw.V100(), Model: oracleModel{}, Prep: testPrep(),
		Info: &ModelInfo{Level: paragraph.LevelRawAST, Source: "checkpoint"},
	}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	var h map[string]any
	if rec := do(t, s, http.MethodGet, "/v1/healthz", nil, &h); rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
	if level, ok := h["level"]; ok {
		t.Errorf("healthz reports level %v for a raw-level model", level)
	}
	var models ModelsResponse
	do(t, s, http.MethodGet, "/v1/models", nil, &models)
	if len(models.Models) != 1 || models.Models[0].Level != paragraph.LevelRawAST.String() {
		t.Errorf("models = %+v, want one %q version", models.Models, paragraph.LevelRawAST)
	}
}

func TestRequestErrors(t *testing.T) {
	s := newTestServer(t)
	cases := []struct {
		name   string
		method string
		path   string
		body   any
		code   int
	}{
		{"advise GET", http.MethodGet, "/v1/advise", nil, http.StatusMethodNotAllowed},
		{"stats POST", http.MethodPost, "/v1/stats", nil, http.StatusMethodNotAllowed},
		{"unknown machine", http.MethodPost, "/v1/advise",
			AdviseRequest{Kernel: "matmul", Machine: "TPU"}, http.StatusNotFound},
		{"unknown kernel", http.MethodPost, "/v1/advise",
			AdviseRequest{Kernel: "nope", Machine: "NVIDIA V100 (GPU)"}, http.StatusBadRequest},
		{"kernel and custom", http.MethodPost, "/v1/advise",
			AdviseRequest{Kernel: "matmul", Custom: &KernelSpec{}, Machine: "NVIDIA V100 (GPU)"},
			http.StatusBadRequest},
		{"missing kernel", http.MethodPost, "/v1/advise",
			AdviseRequest{Machine: "NVIDIA V100 (GPU)"}, http.StatusBadRequest},
		// One variant's runtime is a one-point advise; the endpoint that
		// answered it alone is gone, and a one-point advise refuses what it
		// refused: points of the other machine class, a thread count below 1.
		{"predict removed", http.MethodPost, "/v1/predict",
			AdviseRequest{Kernel: "matmul", Machine: "NVIDIA V100 (GPU)"}, http.StatusNotFound},
		{"variant/machine mismatch", http.MethodPost, "/v1/advise",
			AdviseRequest{Kernel: "matmul", Machine: "IBM POWER9 (CPU)",
				Space: &SpaceSpec{GPUTeams: []int{64}, GPUThreads: []int{128}}}, http.StatusUnprocessableEntity},
		{"non-positive threads", http.MethodPost, "/v1/advise",
			AdviseRequest{Kernel: "matmul", Machine: "NVIDIA V100 (GPU)",
				Space: &SpaceSpec{GPUTeams: []int{64}, GPUThreads: []int{0}}}, http.StatusBadRequest},
		{"empty grid", http.MethodPost, "/v1/advise",
			AdviseRequest{Kernel: "matmul", Machine: "NVIDIA V100 (GPU)",
				Space: &SpaceSpec{CPUThreads: []int{4}}}, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := do(t, s, tc.method, tc.path, tc.body, nil)
			if rec.Code != tc.code {
				t.Errorf("%s %s = %d, want %d (%s)", tc.method, tc.path, rec.Code, tc.code, rec.Body.String())
			}
			if tc.path == "/v1/predict" {
				return // no route: the mux's own plain-text 404
			}
			var e errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Errorf("error body not JSON: %s", rec.Body.String())
			}
		})
	}
	var st Stats
	do(t, s, http.MethodGet, "/v1/stats", nil, &st)
	if st.Requests.Errors == 0 {
		t.Error("errors not counted")
	}
}

func TestConcurrentAdviseTraffic(t *testing.T) {
	// A burst of concurrent requests across both profiles must all succeed
	// and exercise the batcher.
	s := newTestServer(t)
	machines := []string{"IBM POWER9 (CPU)", "NVIDIA V100 (GPU)"}
	kernels := []string{"matmul", "transpose", "matvec"}
	var wg sync.WaitGroup
	errc := make(chan string, 64)
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := adviseReq(machines[i%2])
			req.Kernel = kernels[i%3]
			if req.Kernel == "matvec" {
				req.Bindings = map[string]float64{"n": 512, "m": 256}
			}
			if req.Kernel == "transpose" {
				req.Bindings = map[string]float64{"n": 512, "m": 512}
			}
			var resp AdviseResponse
			rec := do(t, s, http.MethodPost, "/v1/advise", req, &resp)
			if rec.Code != http.StatusOK {
				errc <- rec.Body.String()
				return
			}
			if len(resp.Recommendations) == 0 {
				errc <- "empty recommendations"
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for e := range errc {
		t.Error(e)
	}
	st := s.Stats()
	var batched uint64
	for _, m := range st.Models {
		batched += m.Batcher.Samples
	}
	if batched == 0 {
		t.Error("no samples flowed through the batchers")
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(nil, Options{}); err == nil {
		t.Error("empty backend list accepted")
	}
	if _, err := NewServer([]Backend{{Machine: hw.V100()}}, Options{}); err == nil {
		t.Error("backend without model accepted")
	}
	b := Backend{Machine: hw.V100(), Model: oracleModel{}, Prep: testPrep()}
	if _, err := NewServer([]Backend{b, b}, Options{}); err == nil {
		t.Error("duplicate backend accepted")
	}
	d1 := Backend{Machine: hw.V100(), Model: oracleModel{}, Prep: testPrep(), Name: "a", Default: true}
	d2 := Backend{Machine: hw.V100(), Model: oracleModel{}, Prep: testPrep(), Name: "b", Default: true}
	if _, err := NewServer([]Backend{d1, d2}, Options{}); err == nil {
		t.Error("two defaults for one platform accepted")
	}
	named := Backend{Machine: hw.V100(), Model: oracleModel{}, Prep: testPrep(), Name: "default"}
	if _, err := NewServer([]Backend{named, d1}, Options{}); err == nil {
		t.Error("explicit default shadowing a model named \"default\" accepted")
	}
}

// biasedModel shifts the oracle's predictions so two versions of one
// platform rank observably differently.
type biasedModel struct{ bias float64 }

func (m biasedModel) PredictBatch(ss []*gnn.Sample) []float64 {
	out := oracleModel{}.PredictBatch(ss)
	for i := range out {
		out[i] += m.bias
	}
	return out
}

// newMultiModelServer serves one platform under two named versions.
func newMultiModelServer(t *testing.T) *Server {
	t.Helper()
	s, err := NewServer([]Backend{
		{Machine: hw.V100(), Model: oracleModel{}, Prep: testPrep(), Name: "default"},
		{Machine: hw.V100(), Model: biasedModel{bias: 0.05}, Prep: testPrep(), Name: "exp",
			Info: &ModelInfo{Level: paragraph.LevelParaGraph, Source: "checkpoint",
				Hidden: 24, Layers: 3, Epochs: 9, ValRMSE: 0.2}},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestMultiModelRouting(t *testing.T) {
	s := newMultiModelServer(t)

	req := adviseReq("NVIDIA V100 (GPU)")
	var def AdviseResponse
	do(t, s, http.MethodPost, "/v1/advise", req, &def)
	if def.Model != "default" {
		t.Errorf("default request resolved to %q", def.Model)
	}

	req.Model = "exp"
	var exp AdviseResponse
	do(t, s, http.MethodPost, "/v1/advise", req, &exp)
	if exp.Model != "exp" {
		t.Errorf("exp request resolved to %q", exp.Model)
	}
	if exp.Cached {
		t.Error("exp request hit the default model's cache entry")
	}
	// Same ranking order (a constant bias preserves order) but different
	// predicted values: proof the request reached the other model.
	if exp.Recommendations[0].PredictedUS == def.Recommendations[0].PredictedUS {
		t.Error("exp and default predictions identical; routing broken")
	}

	// The alias and its resolved name share a cache entry.
	req.Model = "default"
	var aliased AdviseResponse
	do(t, s, http.MethodPost, "/v1/advise", req, &aliased)
	if !aliased.Cached {
		t.Error("explicit default name missed the alias's cache entry")
	}

	req.Model = "nope"
	if rec := do(t, s, http.MethodPost, "/v1/advise", req, nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown model = %d, want 404", rec.Code)
	}
}

func TestModelsEndpoint(t *testing.T) {
	s := newMultiModelServer(t)
	var resp ModelsResponse
	if rec := do(t, s, http.MethodGet, "/v1/models", nil, &resp); rec.Code != http.StatusOK {
		t.Fatalf("models: %d", rec.Code)
	}
	if len(resp.Models) != 2 {
		t.Fatalf("models = %d, want 2", len(resp.Models))
	}
	byName := map[string]ModelDesc{}
	for _, m := range resp.Models {
		byName[m.Name] = m
	}
	if !byName["default"].Default || byName["exp"].Default {
		t.Errorf("default flags wrong: %+v", resp.Models)
	}
	if byName["exp"].Source != "checkpoint" || byName["exp"].Hidden != 24 || byName["exp"].Level != "ParaGraph" {
		t.Errorf("exp metadata = %+v", byName["exp"])
	}
	if rec := do(t, s, http.MethodPost, "/v1/models", nil, nil); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/models = %d", rec.Code)
	}
}

func TestPerModelStats(t *testing.T) {
	s := newMultiModelServer(t)
	req := adviseReq("NVIDIA V100 (GPU)")
	do(t, s, http.MethodPost, "/v1/advise", req, nil)
	req.Model = "exp"
	do(t, s, http.MethodPost, "/v1/advise", req, nil)
	do(t, s, http.MethodPost, "/v1/advise", req, nil) // cache hit, still counted

	st := s.Stats()
	if len(st.Models) != 2 {
		t.Fatalf("stats models = %d, want 2", len(st.Models))
	}
	byName := map[string]ModelStats{}
	for _, m := range st.Models {
		byName[m.Name] = m
	}
	if byName["default"].Advise != 1 || byName["exp"].Advise != 2 {
		t.Errorf("per-model advise counts = %d/%d, want 1/2",
			byName["default"].Advise, byName["exp"].Advise)
	}
	if byName["exp"].LastUsedUnix == 0 {
		t.Error("exp last-used not recorded")
	}
	if byName["default"].Batcher.Samples == 0 || byName["exp"].Batcher.Samples == 0 {
		t.Error("per-model batcher stats empty")
	}
	// Every evaluated sample feeds the per-model latency sampler, so the
	// quantiles the speedup is observed through must be populated.
	for _, name := range []string{"default", "exp"} {
		lat := byName[name].Batcher.Latency
		if lat.Count == 0 {
			t.Errorf("%s: no latency observations", name)
		}
		if lat.P50MS < 0 || lat.P99MS < lat.P50MS {
			t.Errorf("%s: malformed quantiles %+v", name, lat)
		}
	}
}

// FuzzAdviseBody posts arbitrary bytes to /v1/advise on a server outside
// cluster mode. Untrusted input must never cost a 5xx: every answer is a
// 200 or a 4xx naming what was wrong with the request. The seeds naming a
// variant, teams and threads are bodies of the retired /v1/predict — to
// /v1/advise, fields it does not know.
func FuzzAdviseBody(f *testing.F) {
	custom := `{"custom":{"name":"scale","func_name":"scale","params":[{"name":"n","values":[1024]}],` +
		`"source":"void scale(double *a, int n) {\n__PRAGMA__\nfor (int i = 0; i < n; i++) a[i] = a[i] * 2.0;\n}\n"},` +
		`"machine":"NVIDIA V100 (GPU)","bindings":{"n":1024},"space":{"gpu_teams":[64],"gpu_threads":[128]}}`
	for _, seed := range []string{
		`{"kernel":"matmul","machine":"NVIDIA V100 (GPU)","bindings":{"n":256},"space":{"gpu_teams":[64,128],"gpu_threads":[128]},"top":2}`,
		`{"kernel":"matmul","machine":"IBM POWER9 (CPU)","bindings":{"n":512},"space":{"cpu_threads":[2,8]},"include_source":true}`,
		`{"kernel":"matmul","machine":"NVIDIA V100 (GPU)","variant":"gpu_collapse_mem","teams":64,"threads":128,"bindings":{"n":256}}`,
		`{"kernel":"matmul","machine":"IBM POWER9 (CPU)","variant":"cpu","threads":8,"bindings":{"n":1e300}}`,
		`{"kernel":"matmul","machine":"NVIDIA V100 (GPU)","model":"nope","space":{"gpu_threads":[0]}}`,
		custom,
		`{"kernel":"matmul"}`, `{}`, `null`, `[]`, ``,
	} {
		f.Add([]byte(seed))
	}
	s := newTestServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/advise", bytes.NewReader(body)))
		if rec.Code != http.StatusOK && (rec.Code < 400 || rec.Code > 499) {
			t.Fatalf("POST /v1/advise %q: %d %s", body, rec.Code, rec.Body.String())
		}
	})
}

func getStats(t *testing.T, s *Server) Stats {
	t.Helper()
	var st Stats
	if rec := do(t, s, http.MethodGet, "/v1/stats", nil, &st); rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	return st
}

// TestCheckpointBackendDescribesTheManifest pins the one Entry → Backend
// conversion: /v1/models reports a served checkpoint field for field from
// its manifest, under the source the caller names.
func TestCheckpointBackendDescribesTheManifest(t *testing.T) {
	root := t.TempDir()
	model := gnn.NewModel(gnn.Config{
		Hidden: 8, FeatHidden: 8, Layers: 1,
		Relations: int(paragraph.NumEdgeTypes), Seed: 7,
	})
	if _, err := registry.Save(root, hw.V100(), "v1", paragraph.LevelParaGraph,
		model, testPrep(), registry.TrainInfo{Epochs: 1}); err != nil {
		t.Fatal(err)
	}
	e, err := registry.Load(filepath.Join(root, hw.Slug(hw.V100().Name), "v1"))
	if err != nil {
		t.Fatal(err)
	}
	b := CheckpointBackend(e)
	if b.Model != BatchPredictor(e) || b.Prep != e.Prep || b.Machine.Name != hw.V100().Name || b.Default {
		t.Errorf("backend = %+v", b)
	}
	s, err := NewServer([]Backend{b}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	man := e.Manifest
	want := ModelDesc{
		Platform: hw.V100().Name, Name: "v1", Default: true,
		Level: "ParaGraph", Source: "checkpoint",
		Hidden: 8, Layers: 1, Params: man.Params, Epochs: 1,
		CreatedAt: man.CreatedAt.UTC().Format(time.RFC3339),
	}
	var mr ModelsResponse
	if rec := do(t, s, http.MethodGet, "/v1/models", nil, &mr); rec.Code != http.StatusOK || len(mr.Models) != 1 {
		t.Fatalf("models: %d %s", rec.Code, rec.Body.String())
	}
	if got := mr.Models[0]; got != want || man.Params == 0 || man.CreatedAt.IsZero() {
		t.Errorf("/v1/models entry = %+v, want %+v", got, want)
	}
}

// feedbackBody is what a client of the removed POST /v1/feedback sent for
// one measured point of the advise answer keyed key.
func feedbackBody(key string) []byte {
	return []byte(`{"key":"` + key + `","variant":"gpu","teams":64,"threads":128,"measured_us":120}`)
}

// TestFeedbackRouteGone: POST /v1/feedback was removed with the feedback
// log and quality windows; the mux answers it like any unknown path, and
// nothing counts it.
func TestFeedbackRouteGone(t *testing.T) {
	s := newTestServer(t)
	var ar AdviseResponse
	if rec := do(t, s, http.MethodPost, "/v1/advise", pointReq(), &ar); rec.Code != http.StatusOK {
		t.Fatalf("advise: %d %s", rec.Code, rec.Body.String())
	}
	for _, method := range []string{http.MethodPost, http.MethodGet} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(method, "/v1/feedback", bytes.NewReader(feedbackBody(ar.Key))))
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s /v1/feedback = %d %s, want 404", method, rec.Code, rec.Body.String())
		}
	}
	if st := getStats(t, s); st.Requests.Errors != 0 {
		t.Errorf("stats count %d errors, want the 404s uncounted", st.Requests.Errors)
	}
}

// TestClusterFeedbackNotForwarded: in cluster mode a measurement posted to
// a peer that does not own its key is a local 404 — it is not forwarded to
// the key's owner, which receives no /v1/feedback request at all.
func TestClusterFeedbackNotForwarded(t *testing.T) {
	var peers [2]*Server
	var urls [2]string
	var ownerFeedback atomic.Bool // peer 1 saw a /v1/feedback request
	for i := range peers {
		peers[i] = newTestServer(t)
		h := peers[i].Handler()
		if i == 1 {
			inner := h
			h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/feedback" {
					ownerFeedback.Store(true)
				}
				inner.ServeHTTP(w, r)
			})
		}
		hs := httptest.NewServer(h)
		t.Cleanup(hs.Close)
		urls[i] = hs.URL
	}
	for i, p := range peers {
		if err := p.EnableCluster(ClusterConfig{Self: urls[i], Peers: urls[:], Heartbeat: -1}); err != nil {
			t.Fatal(err)
		}
	}
	// A point asked of peer 0 whose key peer 1 owns.
	var ar AdviseResponse
	for n := 256.0; ar.ServedBy != urls[1]; n++ {
		if n > 512 {
			t.Fatal("no key owned by the other peer in 256 candidates")
		}
		req := pointReq()
		req.Bindings = map[string]float64{"n": n}
		if rec := do(t, peers[0], http.MethodPost, "/v1/advise", req, &ar); rec.Code != http.StatusOK {
			t.Fatalf("advise(n=%g): %d %s", n, rec.Code, rec.Body.String())
		}
	}
	rec := httptest.NewRecorder()
	peers[0].Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/feedback", bytes.NewReader(feedbackBody(ar.Key))))
	if rec.Code != http.StatusNotFound {
		t.Errorf("feedback via the non-owner = %d %s, want 404", rec.Code, rec.Body.String())
	}
	if ownerFeedback.Load() {
		t.Error("the key's owner received a /v1/feedback request")
	}
}

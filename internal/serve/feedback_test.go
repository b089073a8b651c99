package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"paragraph/internal/feedback"
	"paragraph/internal/gnn"
	"paragraph/internal/hw"
	"paragraph/internal/paragraph"
	"paragraph/internal/registry"
)

// newFeedbackServer serves the oracle backends with feedback enabled:
// measurements are accepted, logged and windowed. Returns the feedback
// directory for log inspection.
func newFeedbackServer(t *testing.T) (*Server, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := NewServer([]Backend{
		{Machine: hw.Power9(), Model: oracleModel{}, Prep: testPrep()},
		{Machine: hw.V100(), Model: oracleModel{}, Prep: testPrep()},
	}, Options{FeedbackDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, dir
}

// saveLCCheckpoint writes one real (tiny) GNN checkpoint into the registry.
func saveLCCheckpoint(t *testing.T, root, name string, seed int64) {
	t.Helper()
	model := gnn.NewModel(gnn.Config{
		Hidden: 8, FeatHidden: 8, Layers: 1,
		Relations: int(paragraph.NumEdgeTypes), Seed: seed,
	})
	if _, err := registry.Save(root, hw.V100(), name, paragraph.LevelParaGraph,
		model, testPrep(), registry.TrainInfo{Epochs: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointBackendDescribesTheManifest pins the one Entry → Backend
// conversion: /v1/models reports a served checkpoint field for field from
// its manifest, under the source the caller names.
func TestCheckpointBackendDescribesTheManifest(t *testing.T) {
	root := t.TempDir()
	saveLCCheckpoint(t, root, "v1", 7)
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
	if got := lcModels(t, s)["v1"]; got != want || man.Params == 0 || man.CreatedAt.IsZero() {
		t.Errorf("/v1/models entry = %+v, want %+v", got, want)
	}
}

// lcPointReq is pointReq at binding n — matmul on the V100 at 64 teams ×
// 128 threads. The feedback tests measure its gpu row.
func lcPointReq(n float64) AdviseRequest {
	req := pointReq()
	req.Bindings = map[string]float64{"n": n}
	return req
}

// lcServed is one served point: the answer's key, model and peer, and the
// gpu row's predicted runtime.
type lcServed struct {
	Key, Model, ServedBy string
	PredictedUS          float64
}

// measured is the feedback reporting us for the served gpu point.
func (p lcServed) measured(us float64) FeedbackRequest {
	return FeedbackRequest{Key: p.Key, Variant: "gpu", MeasuredUS: us}
}

// lcServe posts req, failing the test on anything but a 200 carrying a key
// and a gpu row at 64 × 128.
func lcServe(t *testing.T, s *Server, req AdviseRequest) lcServed {
	t.Helper()
	var ar AdviseResponse
	if rec := do(t, s, http.MethodPost, "/v1/advise", req, &ar); rec.Code != http.StatusOK {
		t.Fatalf("advise(n=%g): %d %s", req.Bindings["n"], rec.Code, rec.Body.String())
	}
	if len(ar.Key) != 64 {
		t.Fatalf("advise response key = %q, want 64-char hash", ar.Key)
	}
	for _, r := range ar.Recommendations {
		if r.Variant == "gpu" && r.Teams == 64 && r.Threads == 128 {
			return lcServed{Key: ar.Key, Model: ar.Model, ServedBy: ar.ServedBy, PredictedUS: r.PredictedUS}
		}
	}
	t.Fatalf("advise(n=%g) has no gpu row: %+v", req.Bindings["n"], ar.Recommendations)
	return lcServed{}
}

// lcPoint serves lcPointReq(n).
func lcPoint(t *testing.T, s *Server, n float64) lcServed { return lcServe(t, s, lcPointReq(n)) }

func postFeedback(t *testing.T, s *Server, freq FeedbackRequest) (FeedbackResponse, *httptest.ResponseRecorder) {
	t.Helper()
	var resp FeedbackResponse
	rec := do(t, s, http.MethodPost, "/v1/feedback", freq, &resp)
	return resp, rec
}

func postFeedbackRaw(t *testing.T, s *Server, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/feedback", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

func lcStats(t *testing.T, s *Server) Stats {
	t.Helper()
	var st Stats
	if rec := do(t, s, http.MethodGet, "/v1/stats", nil, &st); rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	return st
}

func lcModels(t *testing.T, s *Server) map[string]ModelDesc {
	t.Helper()
	var mr ModelsResponse
	if rec := do(t, s, http.MethodGet, "/v1/models", nil, &mr); rec.Code != http.StatusOK {
		t.Fatalf("models: %d", rec.Code)
	}
	out := map[string]ModelDesc{}
	for _, d := range mr.Models {
		out[d.Name] = d
	}
	return out
}

// TestFeedbackPredictRoundTrip: a measurement of one variant served by a
// one-point advise comes back judged against that variant's predicted_us.
// The V100 key holds one point of each of four GPU kinds, so feedback must
// name the variant: without it the point is ambiguous (422).
func TestFeedbackPredictRoundTrip(t *testing.T) {
	s, dir := newFeedbackServer(t)

	var preds []lcServed
	for _, n := range []float64{256, 300, 400} {
		preds = append(preds, lcPoint(t, s, n))
	}
	for i, pr := range preds {
		if _, rec := postFeedback(t, s, FeedbackRequest{Key: pr.Key, MeasuredUS: pr.PredictedUS * 1.05}); rec.Code != http.StatusUnprocessableEntity {
			t.Errorf("feedback %d without a variant: %d %s, want 422 (four kinds match)", i, rec.Code, rec.Body.String())
		}
		resp, rec := postFeedback(t, s, pr.measured(pr.PredictedUS*1.05))
		if rec.Code != http.StatusOK {
			t.Fatalf("feedback %d: %d %s", i, rec.Code, rec.Body.String())
		}
		if resp.Status != "accepted" || resp.Platform != hw.V100().Name ||
			resp.Model != "default" || resp.Kernel != "matmul" ||
			resp.Variant != "gpu" || resp.Teams != 64 || resp.Threads != 128 {
			t.Errorf("feedback %d echo = %+v", i, resp)
		}
		if resp.PredictedUS != pr.PredictedUS {
			t.Errorf("feedback %d predicted = %g, want the served %g", i, resp.PredictedUS, pr.PredictedUS)
		}
		if resp.Pairs != i+1 {
			t.Errorf("feedback %d pairs = %d, want %d", i, resp.Pairs, i+1)
		}
	}

	// /v1/stats counts and windows the measurements.
	st := lcStats(t, s)
	if st.Requests.Feedback != 6 {
		t.Errorf("feedback requests = %d, want 6", st.Requests.Feedback)
	}
	if st.Lifecycle == nil {
		t.Fatal("stats carry no feedback section")
	}
	if st.Lifecycle.FeedbackAccepted != 3 || st.Lifecycle.FeedbackRejected != 3 {
		t.Errorf("accepted/rejected = %d/%d, want 3/3",
			st.Lifecycle.FeedbackAccepted, st.Lifecycle.FeedbackRejected)
	}
	// Only the measured version is listed: the POWER9 model never was.
	ms := st.Lifecycle.Models
	if len(ms) != 1 || ms[0].Platform != hw.V100().Name || ms[0].Name != "default" ||
		ms[0].Pairs != 3 || ms[0].Total != 3 {
		t.Fatalf("windowed models = %+v", ms)
	}
	// measured = 1.05×predicted is a perfect ranking.
	if ms[0].RankCorr == nil || math.Abs(*ms[0].RankCorr-1) > 1e-12 {
		t.Errorf("rank corr = %v, want 1", ms[0].RankCorr)
	}

	// /v1/models carries the same quality view.
	d := lcModels(t, s)["default"]
	if d.FeedbackPairs != 3 || d.RankCorr == nil {
		t.Errorf("models annotation = %+v", d)
	}

	// The measurements are durable: a fresh reader sees all three records
	// with the rebuilt variant source `train -from-feedback` needs.
	lg, err := feedback.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs, skipped, err := lg.Read(hw.V100().Name)
	if err != nil || skipped != 0 || len(recs) != 3 {
		t.Fatalf("log read = %d recs, %d skipped, err %v", len(recs), skipped, err)
	}
	for _, rec := range recs {
		if rec.Source == "" || rec.Bindings["n"] == 0 || rec.MeasuredUS <= 0 {
			t.Errorf("log record incomplete: %+v", rec)
		}
	}

	// And /metrics exposes the outcome counter and quality gauges.
	out := scrapeMetrics(t, s)
	for _, want := range []string{
		`serve_feedback_total{outcome="accepted"} 3`,
		`serve_feedback_total{outcome="mismatch"} 3`,
		`serve_feedback_total{outcome="invalid"} 0`,
		`serve_model_feedback_pairs{platform="NVIDIA V100 (GPU)",model="default"} 3`,
		`serve_model_rank_corr{platform="NVIDIA V100 (GPU)",model="default"} `,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestFeedbackForwardsToKeyOwner: in a cluster the owner served and
// journaled the request, so a measurement handed to another peer is
// forwarded there — the submitted bytes as they arrived — and accepted.
func TestFeedbackForwardsToKeyOwner(t *testing.T) {
	var peers [2]*Server
	var urls [2]string
	for i := range peers {
		peers[i], _ = newFeedbackServer(t)
		hs := httptest.NewServer(peers[i].Handler())
		t.Cleanup(hs.Close)
		urls[i] = hs.URL
	}
	for i, p := range peers {
		if err := p.EnableCluster(ClusterConfig{Self: urls[i], Peers: urls[:], Heartbeat: -1}); err != nil {
			t.Fatal(err)
		}
	}
	a, b := peers[0], peers[1]

	// A point asked of A whose key B owns: B evaluates and journals it.
	var pr lcServed
	for n := 256.0; pr.ServedBy != urls[1]; n++ {
		if n > 512 {
			t.Fatal("no key owned by the other peer in 256 candidates")
		}
		pr = lcPoint(t, a, n)
	}
	rec := postFeedbackRaw(t, a, fmt.Sprintf(`{"key": %q, "variant": "gpu", "measured_us": %g}`, pr.Key, pr.PredictedUS*1.05))
	var resp FeedbackResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("feedback via the non-owner: %d %s (%v)", rec.Code, rec.Body.String(), err)
	}
	if resp.Status != "accepted" || resp.ServedBy != urls[1] || resp.PredictedUS != pr.PredictedUS {
		t.Errorf("feedback echo = %+v, want it accepted by the owner %s", resp, urls[1])
	}
	if got := lcStats(t, b).Lifecycle.FeedbackAccepted; got != 1 {
		t.Errorf("owner accepted %d measurements, want 1", got)
	}
	if got := lcStats(t, a).Lifecycle.FeedbackAccepted; got != 0 {
		t.Errorf("the forwarding peer accepted %d measurements itself, want 0", got)
	}
}

func TestFeedbackValidation(t *testing.T) {
	s, _ := newFeedbackServer(t)
	goodKey := strings.Repeat("ab", 32)

	if rec := do(t, s, http.MethodGet, "/v1/feedback", nil, nil); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET feedback = %d, want 405", rec.Code)
	}

	invalid := []struct {
		name, body string
	}{
		{"malformed json", `{`},
		{"unknown field", `{"key":"` + goodKey + `","measured_us":1,"extra":2}`},
		{"trailing data", `{"key":"` + goodKey + `","measured_us":1}{}`},
		{"short key", `{"key":"abc","measured_us":1}`},
		{"uppercase key", `{"key":"` + strings.Repeat("AB", 32) + `","measured_us":1}`},
		{"zero runtime", `{"key":"` + goodKey + `","measured_us":0}`},
		{"negative runtime", `{"key":"` + goodKey + `","measured_us":-5}`},
		{"negative teams", `{"key":"` + goodKey + `","teams":-1,"measured_us":1}`},
		{"oversized body", `{"pad":"` + strings.Repeat("x", maxFeedbackBody) + `"}`},
	}
	for _, tc := range invalid {
		if rec := postFeedbackRaw(t, s, tc.body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", tc.name, rec.Code)
		}
	}
	// A malformed deadline header is as invalid as a malformed body.
	if rec := doH(t, s, http.MethodPost, "/v1/feedback", FeedbackRequest{Key: goodKey, MeasuredUS: 1},
		map[string]string{"X-Paragraph-Deadline": "soon"}); rec.Code != http.StatusBadRequest {
		t.Errorf("malformed deadline header: %d, want 400", rec.Code)
	}

	// Well-formed but never served: rejected against the journal.
	if _, rec := postFeedback(t, s, FeedbackRequest{Key: goodKey, MeasuredUS: 10}); rec.Code != http.StatusNotFound {
		t.Errorf("unknown key = %d, want 404", rec.Code)
	}

	// An advise ranking journals a grid of points: feedback must name one
	// point unambiguously.
	var ar AdviseResponse
	if rec := do(t, s, http.MethodPost, "/v1/advise", adviseReq("NVIDIA V100 (GPU)"), &ar); rec.Code != http.StatusOK {
		t.Fatalf("advise: %d", rec.Code)
	}
	if len(ar.Key) != 64 {
		t.Fatalf("advise response key = %q", ar.Key)
	}
	if _, rec := postFeedback(t, s, FeedbackRequest{Key: ar.Key, MeasuredUS: 10}); rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("8-point ambiguity = %d, want 422", rec.Code)
	}
	if _, rec := postFeedback(t, s, FeedbackRequest{Key: ar.Key, Variant: "gpu", MeasuredUS: 10}); rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("2-point ambiguity = %d, want 422", rec.Code)
	}
	if _, rec := postFeedback(t, s, FeedbackRequest{Key: ar.Key, Variant: "gpu", Teams: 64, Threads: 999, MeasuredUS: 10}); rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("unserved point = %d, want 422", rec.Code)
	}
	resp, rec := postFeedback(t, s, FeedbackRequest{Key: ar.Key, Variant: "gpu", Teams: 64, Threads: 128, MeasuredUS: 10})
	if rec.Code != http.StatusOK {
		t.Fatalf("exact point = %d %s", rec.Code, rec.Body.String())
	}
	if resp.Variant != "gpu" || resp.Teams != 64 || resp.Threads != 128 || resp.PredictedUS <= 0 {
		t.Errorf("matched point = %+v", resp)
	}

	st := lcStats(t, s)
	if st.Lifecycle.FeedbackAccepted != 1 || st.Lifecycle.FeedbackRejected != 14 {
		t.Errorf("accepted/rejected = %d/%d, want 1/14",
			st.Lifecycle.FeedbackAccepted, st.Lifecycle.FeedbackRejected)
	}
	out := scrapeMetrics(t, s)
	for _, want := range []string{
		`serve_feedback_total{outcome="accepted"} 1`,
		`serve_feedback_total{outcome="invalid"} 10`,
		`serve_feedback_total{outcome="unknown_key"} 1`,
		`serve_feedback_total{outcome="mismatch"} 3`,
		`serve_feedback_total{outcome="error"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Without -feedback-dir feedback is off: the endpoint refuses and
	// /v1/stats keeps its exact prior shape (no lifecycle section).
	off := newTestServer(t)
	if rec := do(t, off, http.MethodPost, "/v1/feedback", FeedbackRequest{Key: goodKey, MeasuredUS: 1}, nil); rec.Code != http.StatusConflict {
		t.Errorf("disabled feedback = %d, want 409", rec.Code)
	}
	if st := lcStats(t, off); st.Lifecycle != nil {
		t.Error("disabled feedback still appears in stats")
	}
	if d := lcModels(t, off)["default"]; d.FeedbackPairs != 0 || d.RankCorr != nil {
		t.Errorf("disabled feedback annotates /v1/models: %+v", d)
	}
}

// TestQualityWindow holds the per-model window: a Spearman correlation
// over at most capacity pairs, the oldest evicted first, with the lifetime
// total kept; a nil window (feedback off) reads empty.
func TestQualityWindow(t *testing.T) {
	var off *QualityWindow
	if corr, n, total := off.Snapshot(); !math.IsNaN(corr) || n != 0 || total != 0 {
		t.Fatalf("nil window = %v, %d, %d", corr, n, total)
	}
	w := NewQualityWindow(4)
	if corr, n, total := w.Snapshot(); !math.IsNaN(corr) || n != 0 || total != 0 {
		t.Fatalf("empty window = %v, %d, %d", corr, n, total)
	}
	// Perfectly ranked pairs.
	for i := 1; i <= 3; i++ {
		if n := w.Add(float64(i), float64(i*10)); n != i {
			t.Fatalf("Add %d holds %d pairs", i, n)
		}
	}
	if corr, n, _ := w.Snapshot(); math.Abs(corr-1) > 1e-12 || n != 3 {
		t.Fatalf("perfect window = %v, %d", corr, n)
	}
	// Overflow evicts the oldest; feed reversed pairs to flip the sign.
	for i := 1; i <= 4; i++ {
		w.Add(float64(i), float64(-i))
	}
	corr, n, total := w.Snapshot()
	if n != 4 || total != 7 {
		t.Fatalf("window fill = %d, %d", n, total)
	}
	if math.Abs(corr+1) > 1e-12 {
		t.Fatalf("reversed window corr = %v, want -1", corr)
	}
}

// FuzzFeedbackDecode asserts the strict decoder never accepts a submission
// violating its documented invariants (and never panics).
func FuzzFeedbackDecode(f *testing.F) {
	f.Add([]byte(`{"key":"` + strings.Repeat("ab", 32) + `","measured_us":12.5}`))
	f.Add([]byte(`{"key":"` + strings.Repeat("0", 64) + `","variant":"gpu","teams":64,"threads":128,"measured_us":1e3}`))
	f.Add([]byte(`{"key":"xyz","measured_us":-1}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"key":"` + strings.Repeat("ab", 32) + `","measured_us":1,"extra":2}`))
	f.Add([]byte(`{"key":"` + strings.Repeat("ab", 32) + `","measured_us":1}{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeFeedback(data)
		if err != nil {
			return
		}
		if len(req.Key) != 64 {
			t.Fatalf("accepted key of length %d", len(req.Key))
		}
		for _, c := range req.Key {
			if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
				t.Fatalf("accepted non-hex key %q", req.Key)
			}
		}
		if !(req.MeasuredUS > 0) || math.IsInf(req.MeasuredUS, 0) {
			t.Fatalf("accepted measured_us %v", req.MeasuredUS)
		}
		if req.Teams < 0 || req.Threads < 0 {
			t.Fatalf("accepted negative grid point %d/%d", req.Teams, req.Threads)
		}
		// A decoded request must survive a decode round-trip: encoding it
		// back and decoding again yields the same value.
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		round, err := decodeFeedback(b)
		if err != nil {
			t.Fatalf("round-trip rejected: %v", err)
		}
		if round != req {
			t.Fatalf("round-trip drift: %+v vs %+v", round, req)
		}
	})
}

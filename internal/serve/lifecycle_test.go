package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
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

// newFeedbackServer serves the oracle backends with the feedback loop
// enabled over an empty registry root: measurements are accepted and
// windowed, and no test sends enough of them to start a retrain. Returns
// the feedback directory for log inspection.
func newFeedbackServer(t *testing.T) (*Server, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := NewServer([]Backend{
		{Machine: hw.Power9(), Model: oracleModel{}, Prep: testPrep()},
		{Machine: hw.V100(), Model: oracleModel{}, Prep: testPrep()},
	}, Options{FeedbackDir: dir, RegistryRoot: t.TempDir()})
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

// registryBackends loads saved checkpoints as serving backends the way
// cmd/serve does; the first name is the default.
func registryBackends(t *testing.T, root string, names ...string) []Backend {
	t.Helper()
	var bs []Backend
	for i, name := range names {
		e, err := registry.Load(filepath.Join(root, hw.Slug(hw.V100().Name), name))
		if err != nil {
			t.Fatal(err)
		}
		b := CheckpointBackend(e, "checkpoint")
		b.Default = i == 0
		bs = append(bs, b)
	}
	return bs
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
	b := CheckpointBackend(e, "checkpoint")
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
// 128 threads. The lifecycle tests measure its gpu row.
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

	// The loop's view: /v1/stats counts and windows the measurements.
	st := lcStats(t, s)
	if st.Requests.Feedback != 6 {
		t.Errorf("feedback requests = %d, want 6", st.Requests.Feedback)
	}
	if st.Lifecycle == nil {
		t.Fatal("stats carry no lifecycle section")
	}
	if st.Lifecycle.FeedbackAccepted != 3 || st.Lifecycle.FeedbackRejected != 3 {
		t.Errorf("accepted/rejected = %d/%d, want 3/3",
			st.Lifecycle.FeedbackAccepted, st.Lifecycle.FeedbackRejected)
	}
	if len(st.Lifecycle.Rollouts) != 1 || st.Lifecycle.Rollouts[0].Platform != hw.V100().Name {
		t.Fatalf("rollouts = %+v", st.Lifecycle.Rollouts)
	}
	ro := st.Lifecycle.Rollouts[0]
	if ro.Stable != "default" || ro.Candidate != "" {
		t.Errorf("rollout = %+v, want stable default and no candidate", ro)
	}
	if len(ro.Models) != 1 || ro.Models[0].Pairs != 3 {
		t.Fatalf("windowed models = %+v", ro.Models)
	}
	// measured = 1.05×predicted is a perfect ranking.
	if ro.Models[0].RankCorr == nil || math.Abs(*ro.Models[0].RankCorr-1) > 1e-12 {
		t.Errorf("rank corr = %v, want 1", ro.Models[0].RankCorr)
	}

	// /v1/models carries the same quality view.
	d := lcModels(t, s)["default"]
	if d.FeedbackPairs != 3 || d.RankCorr == nil {
		t.Errorf("models annotation = %+v", d)
	}

	// The measurements are durable: a fresh reader sees all three records
	// with the rebuilt variant source a retrain needs.
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
		`serve_rollout_stage{platform="NVIDIA V100 (GPU)"} 0`,
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

	// Without -feedback-dir the loop is off: the endpoint refuses and
	// /v1/stats keeps its exact prior shape (no lifecycle section).
	off := newTestServer(t)
	if rec := do(t, off, http.MethodPost, "/v1/feedback", FeedbackRequest{Key: goodKey, MeasuredUS: 1}, nil); rec.Code != http.StatusConflict {
		t.Errorf("disabled feedback = %d, want 409", rec.Code)
	}
	if st := lcStats(t, off); st.Lifecycle != nil {
		t.Error("disabled lifecycle still appears in stats")
	}

	// There is no in-memory mode: the loop retrains into, persists to and
	// prunes a registry root, so feedback without one is refused at start.
	if _, err := NewServer([]Backend{{Machine: hw.V100(), Model: oracleModel{}, Prep: testPrep()}},
		Options{FeedbackDir: t.TempDir()}); err == nil || !strings.Contains(err.Error(), "registry root") {
		t.Errorf("NewServer with a feedback dir and no registry root = %v, want refused", err)
	}
}

// TestLifecyclePromoteE2E drives the whole loop against real checkpoints:
// serve → measured feedback → background incremental retrain → candidate
// serving the fixed 10% split → sustained non-inferiority → promotion →
// superseded checkpoints beyond the two newest pruned.
func TestLifecyclePromoteE2E(t *testing.T) {
	root := t.TempDir()
	// Two older checkpoints on disk, never served: after the promotion the
	// superseded v1 and old2 fill the two retention slots and old1 goes.
	saveLCCheckpoint(t, root, "old1", 5)
	saveLCCheckpoint(t, root, "old2", 6)
	saveLCCheckpoint(t, root, "v1", 7)
	s, err := NewServer(registryBackends(t, root, "v1"), Options{
		FeedbackDir:  t.TempDir(),
		RegistryRoot: root,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	s.lifecycle.minSamples = 5

	// Phase 1: enough measured traffic to trigger a retrain. Measurements
	// match predictions exactly, so the stable's rank correlation is 1.
	for i := 0; i < retrainAfter; i++ {
		pr := lcPoint(t, s, float64(100+25*i))
		if pr.Model != "v1" {
			t.Fatalf("pre-candidate advise served by %q, want v1", pr.Model)
		}
		if _, rec := postFeedback(t, s, pr.measured(pr.PredictedUS)); rec.Code != http.StatusOK {
			t.Fatalf("feedback %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}

	// The retrain runs in the background; wait for candidate adoption.
	var cand string
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		if n := s.lifecycle.retrainErrors.Value(); n > 0 {
			t.Fatal("background retrain failed (see log)")
		}
		st := lcStats(t, s)
		if len(st.Lifecycle.Rollouts) == 1 && st.Lifecycle.Rollouts[0].Candidate != "" {
			cand = st.Lifecycle.Rollouts[0].Candidate
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if cand == "" {
		t.Fatal("no candidate adopted within the deadline")
	}
	if !strings.HasPrefix(cand, "fb-") {
		t.Errorf("candidate name = %q, want fb-* (feedback retrain)", cand)
	}

	descs := lcModels(t, s)
	if d := descs["v1"]; d.Role != "stable" || !d.Default {
		t.Errorf("v1 desc = %+v, want default stable", d)
	}
	if d, ok := descs[cand]; !ok || d.Role != "candidate" || d.RolloutSplit != 10 || d.Source != "feedback" {
		t.Errorf("candidate desc = %+v", d)
	} else if v1 := descs["v1"]; d.Level != v1.Level || d.Hidden != v1.Hidden || d.Layers != v1.Layers ||
		d.Params != v1.Params || d.Epochs != 8 || d.CreatedAt == "" {
		// An adopted candidate is described from its manifest, like a
		// checkpoint served from boot.
		t.Errorf("candidate desc = %+v, want the stable's architecture (%+v) after gnn.FitIncremental's 8 epochs", d, v1)
	}
	out := scrapeMetrics(t, s)
	for _, want := range []string{
		"serve_retrains_total 1",
		`serve_rollout_stage{platform="NVIDIA V100 (GPU)"} 1`,
		`serve_rollout_split{platform="NVIDIA V100 (GPU)"} 10`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Phase 2: measured traffic across the split. The candidate also
	// predicts its own measurements perfectly → non-inferior → promote.
	candServed, promoted := 0, false
	for i := 0; i < 400 && !promoted; i++ {
		pr := lcPoint(t, s, float64(5000+i))
		if pr.Model == cand {
			candServed++
		}
		if _, rec := postFeedback(t, s, pr.measured(pr.PredictedUS)); rec.Code != http.StatusOK {
			t.Fatalf("phase-2 feedback %d: %d %s", i, rec.Code, rec.Body.String())
		}
		promoted = s.lifecycle.promotions.Value() > 0
	}
	if !promoted {
		t.Fatalf("candidate never promoted (served %d of 400 measured requests)", candServed)
	}
	if candServed == 0 {
		t.Fatal("candidate promoted without serving any traffic")
	}

	// The promoted candidate is the new stable and serving default; the
	// superseded v1 stays within retention, and the oldest checkpoint is
	// pruned.
	st := lcStats(t, s)
	ro := st.Lifecycle.Rollouts[0]
	if ro.Stable != cand || ro.Candidate != "" {
		t.Errorf("post-promote rollout = %+v", ro)
	}
	if st.Lifecycle.Promotions != 1 || st.Lifecycle.Rollbacks != 0 || st.Lifecycle.GCRemoved != 1 {
		t.Errorf("promotions/rollbacks/gc = %d/%d/%d, want 1/0/1",
			st.Lifecycle.Promotions, st.Lifecycle.Rollbacks, st.Lifecycle.GCRemoved)
	}
	descs = lcModels(t, s)
	if d, ok := descs["v1"]; !ok || d.Role != "" || d.Default {
		t.Errorf("superseded v1 desc = %+v (served %v), want served without a role", d, ok)
	}
	if d := descs[cand]; d.Role != "stable" || !d.Default {
		t.Errorf("promoted desc = %+v, want default stable", d)
	}
	platDir := filepath.Join(root, hw.Slug(hw.V100().Name))
	if _, err := os.Stat(filepath.Join(platDir, "old1")); !os.IsNotExist(err) {
		t.Errorf("oldest checkpoint still on disk (err=%v)", err)
	}
	for _, kept := range []string{"old2", "v1"} {
		if _, err := os.Stat(filepath.Join(platDir, kept)); err != nil {
			t.Errorf("checkpoint %s within retention: %v", kept, err)
		}
	}
	if pr := lcPoint(t, s, 99999); pr.Model != cand {
		t.Errorf("post-promote default advise served by %q, want %q", pr.Model, cand)
	}

	// The transition is durable: a restart would resume from the promoted
	// stable.
	rs, err := registry.LoadRollout(root, hw.V100().Name)
	if err != nil || rs == nil {
		t.Fatalf("load rollout: %+v, %v", rs, err)
	}
	if rs.Stable != cand || rs.Candidate != "" || rs.Promotions != 1 {
		t.Errorf("persisted rollout = %+v", rs)
	}
	if len(rs.History) == 0 || rs.History[len(rs.History)-1].Event != "promote" {
		t.Errorf("rollout history = %+v, want promote last", rs.History)
	}

	out = scrapeMetrics(t, s)
	for _, want := range []string{
		"serve_promotions_total 1",
		"serve_rollbacks_total 0",
		"serve_gc_removed_total 1",
		`serve_rollout_stage{platform="NVIDIA V100 (GPU)"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestLifecycleRollbackE2E poisons a candidate (measurements anti-correlate
// with its predictions) and asserts the automatic rollback: unpinned traffic
// snaps back to stable, the stable version never stops serving, and no
// request fails at any point.
func TestLifecycleRollbackE2E(t *testing.T) {
	root := t.TempDir()
	saveLCCheckpoint(t, root, "v1", 5)
	saveLCCheckpoint(t, root, "v2", 6)
	if err := registry.SaveRollout(root, &registry.RolloutState{
		Platform: hw.V100().Name, Stable: "v1", Candidate: "v2", SplitPct: 40,
	}); err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(registryBackends(t, root, "v1", "v2"), Options{
		FeedbackDir:  t.TempDir(),
		RegistryRoot: root,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	served := map[string]int{}
	rolledAt := -1
	for i := 0; i < 200; i++ {
		pr := lcPoint(t, s, float64(4000+i)) // lcPoint fails the test on any non-200
		served[pr.Model]++
		if rolledAt >= 0 {
			// Only routing is checked from here: measuring on would reach
			// retrainAfter and adopt a fresh candidate behind the checks below.
			if pr.Model != "v1" {
				t.Errorf("request %d served by %q after rollback, want v1", i, pr.Model)
			}
			continue
		}
		meas := pr.PredictedUS
		if pr.Model == "v2" {
			meas = 1e9 / pr.PredictedUS // inverts the ranking: corr → -1
		}
		if _, rec := postFeedback(t, s, pr.measured(meas)); rec.Code != http.StatusOK {
			t.Fatalf("feedback %d: %d %s", i, rec.Code, rec.Body.String())
		}
		if s.lifecycle.rollbacks.Value() > 0 {
			rolledAt = i
		}
	}
	if rolledAt < 0 {
		t.Fatalf("poisoned candidate never rolled back (served %d requests)", served["v2"])
	}
	if served["v2"] < minQualitySamples {
		t.Fatalf("candidate served %d requests before rollback, want >= %d quality samples", served["v2"], minQualitySamples)
	}
	if served["v1"] == 0 {
		t.Fatal("stable served nothing during the canary")
	}

	st := lcStats(t, s)
	ro := st.Lifecycle.Rollouts[0]
	if ro.Stable != "v1" || ro.Candidate != "" || st.Lifecycle.Rollbacks != 1 || st.Lifecycle.Promotions != 0 {
		t.Errorf("post-rollback state = %+v (rollbacks %d)", ro, st.Lifecycle.Rollbacks)
	}
	// The rolled-back candidate stays registered (pinnable for postmortem)
	// and its checkpoint stays on disk — only promotion prunes.
	descs := lcModels(t, s)
	if d, ok := descs["v2"]; !ok || d.Role != "" {
		t.Errorf("rolled-back candidate desc = %+v (present %v)", d, ok)
	}
	if d := descs["v1"]; d.Role != "stable" || !d.Default {
		t.Errorf("stable desc = %+v", d)
	}
	if _, err := os.Stat(filepath.Join(root, hw.Slug(hw.V100().Name), "v2")); err != nil {
		t.Errorf("rolled-back checkpoint missing: %v", err)
	}
	req := lcPointReq(4000)
	req.Model = "v2"
	if pinned := lcServe(t, s, req); pinned.Model != "v2" {
		t.Errorf("pinned postmortem advise served by %q", pinned.Model)
	}

	rs, err := registry.LoadRollout(root, hw.V100().Name)
	if err != nil || rs == nil {
		t.Fatalf("load rollout: %+v, %v", rs, err)
	}
	if rs.Stable != "v1" || rs.Candidate != "" || rs.Rollbacks != 1 {
		t.Errorf("persisted rollout = %+v", rs)
	}
	if len(rs.History) == 0 || rs.History[len(rs.History)-1].Event != "rollback" {
		t.Errorf("rollout history = %+v, want rollback last", rs.History)
	}

	out := scrapeMetrics(t, s)
	for _, want := range []string{
		"serve_rollbacks_total 1",
		"serve_promotions_total 0",
		`serve_rollout_stage{platform="NVIDIA V100 (GPU)"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestLifecycleRoutingDeterminism restores the same persisted rollout state
// into two independent server processes and asserts they route every request
// to the same version: the A/B verdict is a pure function of (key, split),
// so restarts (and cluster peers) agree with no coordination.
func TestLifecycleRoutingDeterminism(t *testing.T) {
	root := t.TempDir()
	saveLCCheckpoint(t, root, "v1", 3)
	saveLCCheckpoint(t, root, "v2", 4)
	if err := registry.SaveRollout(root, &registry.RolloutState{
		Platform: hw.V100().Name, Stable: "v1", Candidate: "v2", SplitPct: 50,
	}); err != nil {
		t.Fatal(err)
	}
	opts := Options{
		FeedbackDir:  t.TempDir(),
		RegistryRoot: root,
	}
	serveAll := func(s *Server) map[int]string {
		t.Helper()
		got := map[int]string{}
		for i := 0; i < 40; i++ {
			got[i] = lcPoint(t, s, float64(3000+i)).Model
		}
		return got
	}

	sA, err := NewServer(registryBackends(t, root, "v1", "v2"), opts)
	if err != nil {
		t.Fatal(err)
	}
	descs := lcModels(t, sA)
	if d := descs["v1"]; d.Role != "stable" || !d.Default || d.RolloutSplit != 50 {
		t.Errorf("restored v1 desc = %+v", d)
	}
	if d := descs["v2"]; d.Role != "candidate" || d.RolloutSplit != 50 {
		t.Errorf("restored v2 desc = %+v", d)
	}
	first := serveAll(sA)
	sA.Close()

	seen := map[string]int{}
	for _, m := range first {
		seen[m]++
	}
	if seen["v1"] == 0 || seen["v2"] == 0 {
		t.Fatalf("split routed nothing to one side: %v", seen)
	}

	sB, err := NewServer(registryBackends(t, root, "v1", "v2"), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sB.Close)
	for i, m := range serveAll(sB) {
		if m != first[i] {
			t.Errorf("request %d routed to %q after restart, was %q", i, m, first[i])
		}
	}

	// Pinning overrides the split both ways.
	for _, want := range []string{"v1", "v2"} {
		req := lcPointReq(3000)
		req.Model = want
		if pr := lcServe(t, sB, req); pr.Model != want {
			t.Errorf("pinned %s advise served by %q", want, pr.Model)
		}
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

package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"paragraph/internal/advisor"
	"paragraph/internal/apps"
	"paragraph/internal/feedback"
	"paragraph/internal/metrics"
	"paragraph/internal/obs"
	"paragraph/internal/variants"
)

// Feedback is recorded, not acted on. POST /v1/feedback accepts a measured
// runtime for a point this process served (validated against a journal of
// recent responses), appends it to the durable per-platform log, and adds
// the (predicted, measured) pair to the serving version's rank-correlation
// window. Nothing in the process retrains, reroutes or prunes on it: `train
// -from-feedback` fits a new version from the log offline, and the next boot
// serves it. Each platform's model set is fixed when NewServer returns.

// maxFeedbackBody bounds one feedback submission; real payloads are a few
// hundred bytes.
const maxFeedbackBody = 1 << 16

// FeedbackRequest reports one measured runtime for a previously served
// request, identified by the content-addressed Key the advise response
// carried. Variant/Teams/Threads select the measured point of its grid;
// any of them may be omitted as long as the rest match exactly one served
// point (on a one-point space, Variant alone does).
type FeedbackRequest struct {
	Key        string  `json:"key"`
	Variant    string  `json:"variant,omitempty"`
	Teams      int     `json:"teams,omitempty"`
	Threads    int     `json:"threads,omitempty"`
	MeasuredUS float64 `json:"measured_us"`
}

// FeedbackResponse acknowledges an accepted measurement with the point it
// was matched to and the prediction it is judged against.
type FeedbackResponse struct {
	Status      string  `json:"status"`
	Platform    string  `json:"platform"`
	Model       string  `json:"model"`
	Kernel      string  `json:"kernel"`
	Variant     string  `json:"variant"`
	Teams       int     `json:"teams,omitempty"`
	Threads     int     `json:"threads"`
	PredictedUS float64 `json:"predicted_us"`
	MeasuredUS  float64 `json:"measured_us"`
	Pairs       int     `json:"pairs"` // quality pairs windowed for this model
	ServedBy    string  `json:"served_by,omitempty"`
}

// decodeFeedback strictly decodes one feedback submission: unknown fields,
// trailing data, malformed keys and non-positive measurements are all
// rejected before any state is touched. (Also the FuzzFeedbackDecode
// target.)
func decodeFeedback(raw []byte) (FeedbackRequest, error) {
	var req FeedbackRequest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("bad request body: %v", err)
	}
	if dec.More() {
		return req, fmt.Errorf("trailing data after the request object")
	}
	if len(req.Key) != 64 {
		return req, fmt.Errorf("key must be the 64-char hex request hash from the response")
	}
	for _, c := range req.Key {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return req, fmt.Errorf("key must be lowercase hex")
		}
	}
	if req.Teams < 0 || req.Threads < 0 {
		return req, fmt.Errorf("teams and threads must not be negative")
	}
	if !(req.MeasuredUS > 0) || math.IsInf(req.MeasuredUS, 0) {
		return req, fmt.Errorf("measured_us must be a positive finite runtime")
	}
	return req, nil
}

// journalPoint is one (variant, grid point) a served response predicted.
type journalPoint struct {
	variant string
	teams   int
	threads int
}

// journalEntry is everything needed to validate a feedback submission
// against the request it measures and rebuild its training sample: the
// resolved platform and model version, the kernel template, the bindings,
// and every predicted point. Entries live in an LRU keyed by the response
// key, so feedback is only accepted for requests this process served
// recently.
type journalEntry struct {
	machine  string
	model    *modelState
	kernel   apps.Kernel
	bindings map[string]float64
	points   map[journalPoint]float64 // predicted µs per served point
}

// feedbackRecorder is the feedback path of a server started with a
// feedback directory; nil otherwise.
type feedbackRecorder struct {
	log     *feedback.Log
	journal *Cache
	// outcomes counts submissions by outcome (serve_feedback_total),
	// created by registerFeedback. Accepted and rejected feedback are read
	// off it, not counted twice.
	outcomes map[string]*obs.Counter
}

const (
	// feedbackJournalSize bounds the journal of recently served responses
	// that feedback submissions are validated against.
	feedbackJournalSize = 4096
	// qualityWindowSize is the per-model ring of (predicted, measured)
	// pairs the rank correlation is computed over.
	qualityWindowSize = 512
)

// feedbackOutcomes are the serve_feedback_total label values,
// pre-registered so every outcome series exists at zero.
var feedbackOutcomes = []string{"accepted", "unknown_key", "mismatch", "invalid", "error"}

// initFeedback opens the feedback log when Options enable it (FeedbackDir
// set) and registers its series; every model version's quality window was
// made with its modelState.
func (s *Server) initFeedback() error {
	if s.opts.FeedbackDir == "" {
		return nil
	}
	lg, err := feedback.Open(s.opts.FeedbackDir)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	s.feedback = &feedbackRecorder{log: lg, journal: NewCache(feedbackJournalSize)}
	s.metrics.registerFeedback(s)
	return nil
}

// reject counts one refused feedback submission under its outcome.
func (fr *feedbackRecorder) reject(outcome string) { fr.outcomes[outcome].Inc() }

// noteAdvise journals a served advise ranking so its points can later be
// measured via /v1/feedback.
func (fr *feedbackRecorder) noteAdvise(key, machine string, ms *modelState, k apps.Kernel, bindings map[string]float64, recs []advisor.Recommendation) {
	pts := make(map[journalPoint]float64, len(recs))
	for _, r := range recs {
		pts[journalPoint{r.Kind.String(), r.Teams, r.Threads}] = r.PredictedUS
	}
	fr.journal.Add(key, &journalEntry{
		machine:  machine,
		model:    ms,
		kernel:   k,
		bindings: bindings,
		points:   pts,
	})
}

// handleFeedback serves POST /v1/feedback. In cluster mode a submission for
// a key owned by a peer is forwarded there like any keyed write — the owner
// served (and journaled) the original request.
func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	s.noteForwarded(r)
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	fr := s.feedback
	if fr == nil {
		s.fail(w, http.StatusConflict, "feedback is disabled (start serve with -feedback-dir)")
		return
	}
	tr := obs.TraceFrom(r.Context())
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxFeedbackBody))
	if err != nil {
		fr.reject("invalid")
		s.fail(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	freq, err := decodeFeedback(raw)
	if err != nil {
		fr.reject("invalid")
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel, err := requestContext(r)
	if err != nil {
		fr.reject("invalid")
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cancel()
	if targets, _, _ := s.route(s.isForwarded(r), freq.Key); len(targets) > 0 {
		// The owner decodes the same bytes this peer just validated.
		if pr, ok := s.cluster.forward(ctx, tr, targets, "/v1/feedback", raw); ok {
			s.writeProxied(w, pr)
			return
		}
	}
	resp, status, err := fr.accept(freq, s.servedBy())
	if err != nil {
		s.fail(w, status, "%v", err)
		return
	}
	s.writeJSON(w, status, resp)
}

// accept validates one measurement against the journal, appends it to the
// durable log, and windows it for the model version that served it.
func (fr *feedbackRecorder) accept(freq FeedbackRequest, servedBy string) (FeedbackResponse, int, error) {
	var resp FeedbackResponse
	v, ok := fr.journal.Get(freq.Key)
	if !ok {
		fr.reject("unknown_key")
		return resp, http.StatusNotFound,
			fmt.Errorf("unknown request key %s (not served recently by this process)", freq.Key)
	}
	je, ok := v.(*journalEntry)
	if !ok {
		fr.reject("unknown_key")
		return resp, http.StatusNotFound, fmt.Errorf("unknown request key %s", freq.Key)
	}
	var matches []journalPoint
	for pt := range je.points {
		if freq.Variant != "" && pt.variant != freq.Variant {
			continue
		}
		if freq.Teams != 0 && pt.teams != freq.Teams {
			continue
		}
		if freq.Threads != 0 && pt.threads != freq.Threads {
			continue
		}
		matches = append(matches, pt)
	}
	switch {
	case len(matches) == 0:
		fr.reject("mismatch")
		return resp, http.StatusUnprocessableEntity,
			fmt.Errorf("measured point does not match any point of the original request")
	case len(matches) > 1:
		fr.reject("mismatch")
		return resp, http.StatusUnprocessableEntity,
			fmt.Errorf("ambiguous point: the original request has %d matching points — specify variant, teams and threads", len(matches))
	}
	pt := matches[0]
	pred := je.points[pt]

	kind, err := variants.ParseKind(pt.variant)
	if err != nil {
		fr.reject("error")
		return resp, http.StatusInternalServerError, fmt.Errorf("rebuild variant: %v", err)
	}
	src, err := variants.Generate(je.kernel, kind, pt.teams, pt.threads)
	if err != nil {
		fr.reject("error")
		return resp, http.StatusInternalServerError, fmt.Errorf("rebuild variant source: %v", err)
	}
	rec := feedback.Record{
		Key:         freq.Key,
		Platform:    je.machine,
		Model:       je.model.name,
		Kernel:      je.kernel.Name,
		Variant:     pt.variant,
		Teams:       pt.teams,
		Threads:     pt.threads,
		Bindings:    je.bindings,
		Source:      src,
		PredictedUS: pred,
		MeasuredUS:  freq.MeasuredUS,
		UnixNano:    time.Now().UnixNano(),
	}
	if err := fr.log.Append(rec); err != nil {
		fr.reject("error")
		return resp, http.StatusInternalServerError, fmt.Errorf("append feedback: %v", err)
	}
	fr.outcomes["accepted"].Inc()

	resp = FeedbackResponse{
		Status:      "accepted",
		Platform:    je.machine,
		Model:       je.model.name,
		Kernel:      je.kernel.Name,
		Variant:     pt.variant,
		Teams:       pt.teams,
		Threads:     pt.threads,
		PredictedUS: pred,
		MeasuredUS:  freq.MeasuredUS,
		Pairs:       je.model.quality.Add(pred, freq.MeasuredUS),
		ServedBy:    servedBy,
	}
	return resp, http.StatusOK, nil
}

// ModelQuality is one model version's measured quality in /v1/stats.
type ModelQuality struct {
	Platform string `json:"platform"`
	Name     string `json:"name"`
	// RankCorr is the windowed Spearman correlation between predicted and
	// measured runtimes; nil until computable (fewer than 3 pairs, or a
	// constant series).
	RankCorr *float64 `json:"rank_corr,omitempty"`
	Pairs    int      `json:"pairs"`
	Total    uint64   `json:"total"`
}

// LifecycleStats is the /v1/stats feedback section (under the key
// "lifecycle"): submission outcomes, and the quality of every model version
// measured so far. nil when feedback is disabled, keeping the prior payload
// byte-identical.
type LifecycleStats struct {
	FeedbackAccepted uint64         `json:"feedback_accepted"`
	FeedbackRejected uint64         `json:"feedback_rejected"`
	Models           []ModelQuality `json:"models,omitempty"`
}

func (s *Server) feedbackStats() *LifecycleStats {
	out := &LifecycleStats{}
	for oc, c := range s.feedback.outcomes {
		if oc == "accepted" {
			out.FeedbackAccepted = c.Value()
		} else {
			out.FeedbackRejected += c.Value()
		}
	}
	s.eachMeasured(func(platform string, ms *modelState, corr float64, n int, total uint64) {
		out.Models = append(out.Models, ModelQuality{
			Platform: platform, Name: ms.name, RankCorr: finite(corr), Pairs: n, Total: total,
		})
	})
	return out
}

// eachMeasured visits every model version that has received a measurement,
// by (platform, name), with its quality window's snapshot.
func (s *Server) eachMeasured(visit func(platform string, ms *modelState, corr float64, n int, total uint64)) {
	for _, platform := range s.machineNames() {
		be := s.backends[platform]
		for _, name := range be.modelNames() {
			ms := be.models[name]
			if corr, n, total := ms.quality.Snapshot(); total > 0 {
				visit(platform, ms, corr, n, total)
			}
		}
	}
}

// finite returns a pointer to v, or nil when v is NaN (no ranking signal
// yet).
func finite(v float64) *float64 {
	if math.IsNaN(v) {
		return nil
	}
	return &v
}

// QualityWindow is a bounded ring of (predicted, measured) runtime pairs for
// one model version, scoring its live ranking quality as the Spearman rank
// correlation over the window. Safe for concurrent use.
type QualityWindow struct {
	mu    sync.Mutex
	pred  []float64
	meas  []float64
	next  int
	n     int
	total uint64
}

// NewQualityWindow returns a window holding up to capacity pairs.
func NewQualityWindow(capacity int) *QualityWindow {
	return &QualityWindow{
		pred: make([]float64, capacity),
		meas: make([]float64, capacity),
	}
}

// Add records one (predicted, measured) pair, evicting the oldest beyond
// the window's capacity, and returns the pairs now held.
func (w *QualityWindow) Add(pred, meas float64) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.pred[w.next] = pred
	w.meas[w.next] = meas
	w.next = (w.next + 1) % len(w.pred)
	if w.n < len(w.pred) {
		w.n++
	}
	w.total++
	return w.n
}

// Snapshot returns the window's current Spearman rank correlation (NaN when
// undefined), the pairs currently held, and the total pairs ever added.
// A nil window (feedback disabled) is empty.
func (w *QualityWindow) Snapshot() (corr float64, n int, total uint64) {
	if w == nil {
		return math.NaN(), 0, 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.n == 0 {
		return math.NaN(), 0, w.total
	}
	return metrics.Spearman(w.pred[:w.n], w.meas[:w.n]), w.n, w.total
}

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
	"paragraph/internal/obs"
	"paragraph/internal/registry"
	"paragraph/internal/variants"
)

// The lifecycle closes the loop between serving and training: POST
// /v1/feedback accepts measured runtimes for predictions this process
// served (validated against a journal of recent responses), appends them to
// the durable feedback log, and feeds per-model online rank-correlation
// windows. Enough feedback triggers an incremental retrain whose output
// becomes a *candidate* version taking a deterministic percentage of
// unpinned traffic; sustained non-inferiority promotes it to stable,
// sustained regression rolls it back — the stable version never stops
// serving either way. Promotion also prunes superseded checkpoints beyond
// the registry's fixed retention. Rollout state, candidates and pruning all
// live in the registry root the server booted from.
//
// Lock ordering: lifecycle.mu is always taken before backendState.mu, and
// never while holding the metrics registry's lock (scrape-time collectors
// take lifecycle.mu, so registering series under it would deadlock).

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
	model    string
	kernel   apps.Kernel
	bindings map[string]float64
	points   map[journalPoint]float64 // predicted µs per served point
}

// platRollout is one platform's live rollout state: the persisted
// stable/candidate pointer plus the in-memory quality windows and retrain
// pacing.
type platRollout struct {
	st           *registry.RolloutState
	windows      map[string]*registry.QualityWindow // by model version
	sinceRetrain int
	retraining   bool
}

// lifecycle owns the feedback→retrain→rollout loop for a server. nil on
// servers started without a feedback directory.
type lifecycle struct {
	s       *Server
	root    string // registry root: rollout state, retrain candidates, GC
	log     *feedback.Log
	journal *Cache

	// minSamples is how many pairs both quality windows hold before a
	// promote/rollback evaluation counts: minQualitySamples, shrunk by
	// in-package tests before any traffic.
	minSamples int

	mu    sync.Mutex
	plats map[string]*platRollout
	wg    sync.WaitGroup

	// The lifecycle's counts, each one instrument created by
	// registerLifecycle (metrics.go). Accepted and rejected feedback are
	// not counted twice: they are read off outcomes.
	outcomes      map[string]*obs.Counter // serve_feedback_total{outcome}
	retrains      *obs.Counter
	retrainErrors *obs.Counter
	promotions    *obs.Counter
	rollbacks     *obs.Counter
	gcRemoved     *obs.Counter
}

const (
	// feedbackJournalSize bounds the journal of recently served responses
	// that feedback submissions are validated against.
	feedbackJournalSize = 4096
	// qualityWindowSize is the per-model ring of (predicted, measured)
	// pairs the rank correlation is computed over.
	qualityWindowSize = 512
	// retrainAfter is how many accepted measurements a platform accumulates
	// between background retrains.
	retrainAfter = 100
	// minQualitySamples is how many pairs the stable's and the candidate's
	// windows must both hold before a promote/rollback evaluation counts.
	minQualitySamples = 30
)

// feedbackOutcomes are the serve_feedback_total label values,
// pre-registered so every outcome series exists at zero.
var feedbackOutcomes = []string{"accepted", "unknown_key", "mismatch", "invalid", "error"}

// initLifecycle assembles the lifecycle when Options enable it (FeedbackDir
// set) and restores each platform's rollout state from the registry root,
// so a restart resumes exactly where the previous process left off — in
// particular, a restart after a rollback serves the rolled-back-to stable,
// not the newest (bad) checkpoint. The loop needs the root: retrains write
// their candidates there and every transition persists there.
func (s *Server) initLifecycle() error {
	if s.opts.FeedbackDir == "" {
		return nil
	}
	root := s.opts.RegistryRoot
	if root == "" {
		return fmt.Errorf("serve: the feedback lifecycle needs a registry root to retrain into")
	}
	lg, err := feedback.Open(s.opts.FeedbackDir)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	lc := &lifecycle{
		s:          s,
		root:       root,
		log:        lg,
		journal:    NewCache(feedbackJournalSize),
		minSamples: minQualitySamples,
		plats:      map[string]*platRollout{},
	}
	s.lifecycle = lc
	s.metrics.registerLifecycle(lc)
	lc.restore()
	return nil
}

// restore loads persisted rollout state for every served platform and
// re-anchors the serving defaults to it.
func (lc *lifecycle) restore() {
	for _, platform := range lc.s.machineNames() {
		st, err := registry.LoadRollout(lc.root, platform)
		if err != nil {
			lc.s.logger.Warn("rollout: state unreadable, starting fresh", "platform", platform, "err", err)
			continue
		}
		if st == nil {
			continue
		}
		changed := false
		if st.Stable != "" && !lc.s.setDefault(platform, st.Stable) {
			// The recorded stable is not among the served models (pruned or
			// renamed out from under us): re-anchor to the current default.
			lc.s.logger.Warn("rollout: recorded stable not served, re-anchoring",
				"platform", platform, "stable", st.Stable)
			st.Stable = lc.s.defaultModel(platform)
			changed = true
		}
		if st.Candidate != "" && !lc.s.hasModel(platform, st.Candidate) {
			lc.s.logger.Warn("rollout: recorded candidate not served, clearing",
				"platform", platform, "candidate", st.Candidate)
			st.Candidate = ""
			st.Better, st.Worse = 0, 0
			changed = true
		}
		if changed {
			if err := registry.SaveRollout(lc.root, st); err != nil {
				lc.s.logger.Warn("rollout: persist state", "platform", platform, "err", err)
			}
		}
		p := &platRollout{st: st, windows: map[string]*registry.QualityWindow{}}
		lc.plats[platform] = p
		lc.s.logger.Info("rollout: state restored", "platform", platform,
			"stable", st.Stable, "candidate", st.Candidate, "split_pct", st.SplitPct)
	}
}

// plat returns (creating if needed) a platform's rollout state. Callers
// hold lc.mu.
func (lc *lifecycle) platLocked(platform string) *platRollout {
	p, ok := lc.plats[platform]
	if !ok {
		p = &platRollout{
			st:      &registry.RolloutState{Platform: platform, Stable: lc.s.defaultModel(platform)},
			windows: map[string]*registry.QualityWindow{},
		}
		lc.plats[platform] = p
	}
	return p
}

// reject counts one refused feedback submission under its outcome.
func (lc *lifecycle) reject(outcome string) { lc.outcomes[outcome].Inc() }

// routedModel resolves the version an unpinned request routes to: "" when
// the platform has no live candidate (the default alias decides), else the
// deterministic A/B verdict for the request's route key — a pure function
// of (key, split), identical across restarts and peers.
func (lc *lifecycle) routedModel(platform, routeKey string) string {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	p, ok := lc.plats[platform]
	if !ok || p.st.Candidate == "" {
		return ""
	}
	if registry.RouteCandidate(routeKey, p.st.SplitPct) {
		return p.st.Candidate
	}
	return p.st.Stable
}

// noteAdvise journals a served advise ranking so its points can later be
// measured via /v1/feedback.
func (lc *lifecycle) noteAdvise(key, machine, model string, k apps.Kernel, bindings map[string]float64, recs []advisor.Recommendation) {
	pts := make(map[journalPoint]float64, len(recs))
	for _, r := range recs {
		pts[journalPoint{r.Kind.String(), r.Teams, r.Threads}] = r.PredictedUS
	}
	lc.journal.Add(key, &journalEntry{
		machine:  machine,
		model:    model,
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
	lc := s.lifecycle
	if lc == nil {
		s.fail(w, http.StatusConflict, "feedback is disabled (start serve with -feedback-dir)")
		return
	}
	tr := obs.TraceFrom(r.Context())
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxFeedbackBody))
	if err != nil {
		lc.reject("invalid")
		s.fail(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	freq, err := decodeFeedback(raw)
	if err != nil {
		lc.reject("invalid")
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel, err := requestContext(r)
	if err != nil {
		lc.reject("invalid")
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
	resp, status, err := lc.accept(freq)
	if err != nil {
		s.fail(w, status, "%v", err)
		return
	}
	s.writeJSON(w, status, resp)
}

// accept validates one measurement against the journal, appends it to the
// durable log, and runs the rollout evaluation it feeds.
func (lc *lifecycle) accept(freq FeedbackRequest) (FeedbackResponse, int, error) {
	var resp FeedbackResponse
	v, ok := lc.journal.Get(freq.Key)
	if !ok {
		lc.reject("unknown_key")
		return resp, http.StatusNotFound,
			fmt.Errorf("unknown request key %s (not served recently by this process)", freq.Key)
	}
	je, ok := v.(*journalEntry)
	if !ok {
		lc.reject("unknown_key")
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
		lc.reject("mismatch")
		return resp, http.StatusUnprocessableEntity,
			fmt.Errorf("measured point does not match any point of the original request")
	case len(matches) > 1:
		lc.reject("mismatch")
		return resp, http.StatusUnprocessableEntity,
			fmt.Errorf("ambiguous point: the original request has %d matching points — specify variant, teams and threads", len(matches))
	}
	pt := matches[0]
	pred := je.points[pt]

	kind, err := variants.ParseKind(pt.variant)
	if err != nil {
		lc.reject("error")
		return resp, http.StatusInternalServerError, fmt.Errorf("rebuild variant: %v", err)
	}
	src, err := variants.Generate(je.kernel, kind, pt.teams, pt.threads)
	if err != nil {
		lc.reject("error")
		return resp, http.StatusInternalServerError, fmt.Errorf("rebuild variant source: %v", err)
	}
	rec := feedback.Record{
		Key:         freq.Key,
		Platform:    je.machine,
		Model:       je.model,
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
	if err := lc.log.Append(rec); err != nil {
		lc.reject("error")
		return resp, http.StatusInternalServerError, fmt.Errorf("append feedback: %v", err)
	}
	lc.outcomes["accepted"].Inc()

	pairs := lc.observe(je.machine, je.model, pred, freq.MeasuredUS)
	resp = FeedbackResponse{
		Status:      "accepted",
		Platform:    je.machine,
		Model:       je.model,
		Kernel:      je.kernel.Name,
		Variant:     pt.variant,
		Teams:       pt.teams,
		Threads:     pt.threads,
		PredictedUS: pred,
		MeasuredUS:  freq.MeasuredUS,
		Pairs:       pairs,
		ServedBy:    lc.s.servedBy(),
	}
	return resp, http.StatusOK, nil
}

func windowSnapshot(w *registry.QualityWindow) (float64, int) {
	if w == nil {
		return math.NaN(), 0
	}
	corr, n, _ := w.Snapshot()
	return corr, n
}

// observe feeds one (predicted, measured) pair into the serving model's
// quality window, evaluates the promote/rollback hysteresis when a
// candidate is live and both windows hold minSamples pairs, and paces the
// background retrain. Returns the model's windowed pair count.
func (lc *lifecycle) observe(platform, model string, pred, meas float64) int {
	lc.mu.Lock()
	p := lc.platLocked(platform)
	w := p.windows[model]
	if w == nil {
		w = registry.NewQualityWindow(qualityWindowSize)
		p.windows[model] = w
	}
	w.Add(pred, meas)
	_, pairs := windowSnapshot(w)
	p.sinceRetrain++

	if p.st.Candidate != "" {
		stableCorr, stableN := windowSnapshot(p.windows[p.st.Stable])
		candCorr, candN := windowSnapshot(p.windows[p.st.Candidate])
		if min(stableN, candN) >= lc.minSamples {
			switch registry.Observe(p.st, stableCorr, candCorr) {
			case registry.Promote:
				lc.promoteLocked(p, stableCorr, candCorr)
			case registry.Rollback:
				lc.rollbackLocked(p, stableCorr, candCorr)
			}
		}
	}

	startRetrain := false
	if p.st.Candidate == "" && !p.retraining && p.sinceRetrain >= retrainAfter {
		p.retraining = true
		p.sinceRetrain = 0
		startRetrain = true
	}
	lc.mu.Unlock()

	if startRetrain {
		lc.wg.Add(1)
		go lc.retrain(platform)
	}
	return pairs
}

// promoteLocked makes the candidate the platform's stable and serving
// default, persists the transition, and prunes superseded checkpoints
// beyond the registry's retention. Caller holds lc.mu.
func (lc *lifecycle) promoteLocked(p *platRollout, stableCorr, candCorr float64) {
	old := p.st.Stable
	cand := p.st.Candidate
	p.st.Stable, p.st.Candidate = cand, ""
	p.st.Promotions++
	p.st.Note(registry.RolloutEvent{
		Event: "promote", Stable: cand, Candidate: "",
		StableCorr: stableCorr, CandCorr: candCorr,
	})
	lc.promotions.Inc()
	lc.s.setDefault(p.st.Platform, cand)
	lc.persistLocked(p)
	lc.gcLocked(p)
	lc.s.logger.Info("rollout: candidate promoted", "platform", p.st.Platform,
		"stable", cand, "superseded", old,
		"stable_corr", stableCorr, "cand_corr", candCorr)
}

// rollbackLocked retires a regressing candidate: unpinned traffic snaps
// back to the stable version, which never stopped serving its share. The
// candidate model stays registered (pinnable for postmortem) and its
// checkpoint stays on disk. Caller holds lc.mu.
func (lc *lifecycle) rollbackLocked(p *platRollout, stableCorr, candCorr float64) {
	cand := p.st.Candidate
	p.st.Candidate = ""
	p.st.Rollbacks++
	p.st.Note(registry.RolloutEvent{
		Event: "rollback", Stable: p.st.Stable, Candidate: cand,
		StableCorr: stableCorr, CandCorr: candCorr,
	})
	lc.rollbacks.Inc()
	lc.persistLocked(p)
	lc.s.logger.Warn("rollout: candidate rolled back", "platform", p.st.Platform,
		"stable", p.st.Stable, "candidate", cand,
		"stable_corr", stableCorr, "cand_corr", candCorr)
}

// persistLocked writes the platform's rollout state through to disk.
// Caller holds lc.mu.
func (lc *lifecycle) persistLocked(p *platRollout) {
	if err := registry.SaveRollout(lc.root, p.st); err != nil {
		lc.s.logger.Warn("rollout: persist state", "platform", p.st.Platform, "err", err)
	}
}

// gcLocked prunes the platform's superseded checkpoints, unregistering
// pruned versions from serving: a version this process still answered for
// but a restart could not find would be a surprise waiting for that restart.
// Caller holds lc.mu.
func (lc *lifecycle) gcLocked(p *platRollout) {
	res, err := registry.GC(lc.root, p.st.Platform, []string{p.st.Stable, p.st.Candidate})
	if err != nil {
		lc.s.logger.Warn("rollout: checkpoint gc", "platform", p.st.Platform, "err", err)
	}
	for _, name := range res.Removed {
		lc.s.removeModel(p.st.Platform, name)
		delete(p.windows, name)
		lc.gcRemoved.Inc()
	}
	if len(res.Removed) > 0 {
		lc.s.logger.Info("rollout: checkpoints pruned", "platform", p.st.Platform,
			"removed", res.Removed, "kept", res.Kept)
	}
}

// retrain runs one background retrain for a platform and adopts the result
// as the live candidate.
func (lc *lifecycle) retrain(platform string) {
	defer lc.wg.Done()
	lc.retrains.Inc()
	if err := lc.runRetrain(platform); err != nil {
		lc.retrainErrors.Inc()
		lc.s.logger.Warn("rollout: retrain failed", "platform", platform, "err", err)
	}
	lc.mu.Lock()
	if p, ok := lc.plats[platform]; ok {
		p.retraining = false
	}
	lc.mu.Unlock()
}

func (lc *lifecycle) runRetrain(platform string) error {
	recs, skipped, err := lc.log.Read(platform)
	if err != nil {
		return err
	}
	if skipped > 0 {
		lc.s.logger.Warn("rollout: torn/malformed feedback lines skipped",
			"platform", platform, "skipped", skipped)
	}
	res, err := registry.RetrainFromFeedback(lc.root, platform, recs, registry.RetrainOptions{
		Seed: time.Now().UnixNano(),
	})
	if err != nil {
		return err
	}

	// Adopt the candidate: load it from disk like any checkpoint (verifying
	// what the retrain wrote) and register it before flipping the rollout
	// pointer, so routing never names a version that is not yet servable.
	// Metric registration happens outside lc.mu (lock-ordering contract
	// above).
	e, err := registry.Load(res.Candidate.Dir)
	if err != nil {
		return err
	}
	name := e.Manifest.Name
	ms, err := lc.s.addModel(CheckpointBackend(e, "feedback"))
	if err != nil {
		return err
	}
	lc.s.metrics.registerModel(platform, name, ms)

	lc.mu.Lock()
	p := lc.platLocked(platform)
	// The rollout state RetrainFromFeedback just wrote is the authoritative
	// one, history included.
	p.st = res.Rollout
	if p.windows[name] == nil {
		p.windows[name] = registry.NewQualityWindow(qualityWindowSize)
	}
	lc.mu.Unlock()

	lc.s.logger.Info("rollout: candidate adopted", "platform", platform,
		"stable", res.Stable, "candidate", name, "split_pct", res.Rollout.SplitPct,
		"train_samples", res.TrainSamples, "val_samples", res.ValSamples,
		"val_rmse", res.FinalValRMSE)
	return nil
}

// ModelQuality is one model version's online quality view in /v1/stats.
type ModelQuality struct {
	Name string `json:"name"`
	// RankCorr is the windowed Spearman correlation between predicted and
	// measured runtimes; nil until computable (fewer than 3 pairs, or a
	// constant series).
	RankCorr *float64 `json:"rank_corr,omitempty"`
	Pairs    int      `json:"pairs"`
	Total    uint64   `json:"total"`
}

// RolloutStats is one platform's rollout view in /v1/stats.
type RolloutStats struct {
	Platform     string         `json:"platform"`
	Stable       string         `json:"stable"`
	Candidate    string         `json:"candidate,omitempty"`
	SplitPct     float64        `json:"split_pct,omitempty"`
	Better       int            `json:"better,omitempty"`
	Worse        int            `json:"worse,omitempty"`
	Promotions   uint64         `json:"promotions,omitempty"`
	Rollbacks    uint64         `json:"rollbacks,omitempty"`
	SinceRetrain int            `json:"since_retrain,omitempty"`
	Retraining   bool           `json:"retraining,omitempty"`
	Models       []ModelQuality `json:"models,omitempty"`
}

// LifecycleStats is the /v1/stats lifecycle section; nil when the loop is
// disabled, keeping the prior payload byte-identical.
type LifecycleStats struct {
	FeedbackAccepted uint64         `json:"feedback_accepted"`
	FeedbackRejected uint64         `json:"feedback_rejected"`
	Retrains         uint64         `json:"retrains"`
	RetrainErrors    uint64         `json:"retrain_errors,omitempty"`
	Promotions       uint64         `json:"promotions"`
	Rollbacks        uint64         `json:"rollbacks"`
	GCRemoved        uint64         `json:"gc_removed,omitempty"`
	Rollouts         []RolloutStats `json:"rollouts,omitempty"`
}

func (lc *lifecycle) stats() *LifecycleStats {
	out := &LifecycleStats{
		Retrains:      lc.retrains.Value(),
		RetrainErrors: lc.retrainErrors.Value(),
		Promotions:    lc.promotions.Value(),
		Rollbacks:     lc.rollbacks.Value(),
		GCRemoved:     lc.gcRemoved.Value(),
	}
	for oc, c := range lc.outcomes {
		if oc == "accepted" {
			out.FeedbackAccepted = c.Value()
		} else {
			out.FeedbackRejected += c.Value()
		}
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	for _, platform := range lc.s.machineNames() {
		p, ok := lc.plats[platform]
		if !ok {
			continue
		}
		rs := RolloutStats{
			Platform:     platform,
			Stable:       p.st.Stable,
			Candidate:    p.st.Candidate,
			SplitPct:     p.st.SplitPct,
			Better:       p.st.Better,
			Worse:        p.st.Worse,
			Promotions:   p.st.Promotions,
			Rollbacks:    p.st.Rollbacks,
			SinceRetrain: p.sinceRetrain,
			Retraining:   p.retraining,
		}
		for _, name := range sortedKeys(p.windows) {
			corr, n, total := p.windows[name].Snapshot()
			mq := ModelQuality{Name: name, Pairs: n, Total: total}
			if !math.IsNaN(corr) {
				c := corr
				mq.RankCorr = &c
			}
			rs.Models = append(rs.Models, mq)
		}
		out.Rollouts = append(out.Rollouts, rs)
	}
	return out
}

// annotate fills a /v1/models entry's rollout fields for one version.
func (lc *lifecycle) annotate(platform, name string, d *ModelDesc) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	p, ok := lc.plats[platform]
	if !ok {
		return
	}
	switch name {
	case p.st.Candidate:
		d.Role = "candidate"
		d.RolloutSplit = p.st.SplitPct
	case p.st.Stable:
		d.Role = "stable"
		if p.st.Candidate != "" {
			d.RolloutSplit = 100 - p.st.SplitPct
		}
	}
	if w := p.windows[name]; w != nil {
		corr, n, _ := w.Snapshot()
		d.FeedbackPairs = n
		if !math.IsNaN(corr) {
			c := corr
			d.RankCorr = &c
		}
	}
}

// collectRollout feeds the scrape-time rollout gauges (stage, split, rank
// correlation, pair counts) under lc.mu.
func (lc *lifecycle) collectRollout(visit func(platform string, p *platRollout)) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	for _, platform := range lc.s.machineNames() {
		if p, ok := lc.plats[platform]; ok {
			visit(platform, p)
		}
	}
}

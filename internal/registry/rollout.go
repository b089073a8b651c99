package registry

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"paragraph/internal/hw"
	"paragraph/internal/metrics"
)

// This file makes the registry a lifecycle manager, not just a loader: a
// platform's checkpoints gain rollout *state* — which version is stable,
// which (if any) is the canary candidate, what fraction of unpinned traffic
// the candidate receives — plus the machinery that moves that state:
// deterministic hash-based A/B routing, online rank-correlation quality
// windows, and a promote/rollback hysteresis so one noisy evaluation never
// flips a deployment.

const rolloutFile = "rollout.json"

// RolloutState is the persisted rollout position of one platform, stored as
// <root>/<platform-slug>/rollout.json beside the version directories (it is
// a file, so Discover's directory scan never mistakes it for a checkpoint).
type RolloutState struct {
	FormatVersion int     `json:"format_version"`
	Platform      string  `json:"platform"`
	Stable        string  `json:"stable"`              // version serving the default alias
	Candidate     string  `json:"candidate,omitempty"` // canary version, "" when none
	SplitPct      float64 `json:"split_pct"`           // % of unpinned traffic routed to the candidate

	// Hysteresis position (consecutive better/worse evaluations) survives
	// restarts so a canary cannot dodge rollback by bouncing the process.
	Better int `json:"better,omitempty"`
	Worse  int `json:"worse,omitempty"`

	Promotions uint64    `json:"promotions,omitempty"`
	Rollbacks  uint64    `json:"rollbacks,omitempty"`
	UpdatedAt  time.Time `json:"updated_at"`

	// History keeps the most recent lifecycle events, newest last.
	History []RolloutEvent `json:"history,omitempty"`
}

// RolloutEvent is one audit-trail entry: a candidate adoption, promotion, or
// rollback, with the quality evidence that drove it.
type RolloutEvent struct {
	At         time.Time `json:"at"`
	Event      string    `json:"event"` // "candidate" | "promote" | "rollback"
	Stable     string    `json:"stable"`
	Candidate  string    `json:"candidate,omitempty"`
	StableCorr float64   `json:"stable_corr,omitempty"`
	CandCorr   float64   `json:"cand_corr,omitempty"`
}

const rolloutHistoryCap = 32

// Note appends an event to the state's bounded history and bumps UpdatedAt.
func (st *RolloutState) Note(ev RolloutEvent) {
	if ev.At.IsZero() {
		ev.At = time.Now().UTC()
	}
	st.History = append(st.History, ev)
	if n := len(st.History); n > rolloutHistoryCap {
		st.History = append(st.History[:0], st.History[n-rolloutHistoryCap:]...)
	}
	st.UpdatedAt = ev.At
}

// LoadRollout reads a platform's rollout state; a missing file returns
// (nil, nil) — no rollout has ever been recorded.
func LoadRollout(root, platform string) (*RolloutState, error) {
	raw, err := os.ReadFile(filepath.Join(root, hw.Slug(platform), rolloutFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("registry: read rollout state: %w", err)
	}
	var st RolloutState
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, fmt.Errorf("registry: bad rollout state: %w", err)
	}
	if st.FormatVersion != FormatVersion {
		return nil, fmt.Errorf("registry: unsupported rollout state format %d", st.FormatVersion)
	}
	return &st, nil
}

// SaveRollout atomically persists a platform's rollout state.
func SaveRollout(root string, st *RolloutState) error {
	if st == nil || st.Platform == "" {
		return fmt.Errorf("registry: rollout state needs a platform")
	}
	st.FormatVersion = FormatVersion
	if st.UpdatedAt.IsZero() {
		st.UpdatedAt = time.Now().UTC()
	}
	dir := filepath.Join(root, hw.Slug(st.Platform))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	return writeFileAtomic(filepath.Join(dir, rolloutFile), func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", " ")
		return enc.Encode(st)
	})
}

// RouteCandidate decides whether the request identified by key is served by
// the candidate (true) or the stable version (false) at the given split
// percentage. The decision is a pure function of (key, splitPct): the same
// key always lands on the same version, across restarts and across peers,
// with no coordination — exactly the property the shard tier's
// content-addressed keys already rely on.
func RouteCandidate(key string, splitPct float64) bool {
	if splitPct <= 0 || key == "" {
		return false
	}
	if splitPct >= 100 {
		return true
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	// Compare the hash's upper 32 bits against the split threshold on the
	// same 32-bit scale; upper bits decorrelate from the cache-shard use of
	// similar hashes over the low bits.
	frac := h.Sum64() >> 32
	threshold := uint64(splitPct / 100 * (1 << 32))
	return frac < threshold
}

// The state machine's fixed margins and streak depths. promoteMargin is
// the non-inferiority slack: the candidate promotes when its rank
// correlation stays within it below (or anywhere above) the stable's.
// rollbackMargin is the clear-regression threshold: the candidate rolls
// back when its correlation falls more than it below the stable's; between
// the margins is a dead band (hold). promoteAfter consecutive non-inferior
// evaluations promote; rollbackAfter consecutive regressions roll back.
const (
	promoteMargin  = 0.02
	rollbackMargin = 0.10
	promoteAfter   = 3
	rollbackAfter  = 3
)

// Decision is the outcome of one hysteresis evaluation.
type Decision int

const (
	Hold Decision = iota
	Promote
	Rollback
)

func (d Decision) String() string {
	switch d {
	case Promote:
		return "promote"
	case Rollback:
		return "rollback"
	default:
		return "hold"
	}
}

// Observe feeds one quality evaluation into the hysteresis counters carried
// by st (Better/Worse) and returns the resulting decision. stableCorr and
// candCorr are Spearman rank correlations of predicted vs. measured
// runtimes; how many pairs must stand behind them before an evaluation
// counts is the caller's gate (the serving lifecycle owns the windows).
//
// Transition rules:
//
//   - candidate within promoteMargin of (or better than) stable → Better++,
//     Worse reset; Better reaching promoteAfter → Promote.
//   - candidate more than rollbackMargin below stable → Worse++, Better
//     reset; Worse reaching rollbackAfter → Rollback.
//   - in the dead band between the margins → both counters reset (a streak
//     must be consecutive to act).
//
// A candidate whose correlation is NaN (constant predictions — no ranking
// signal) counts as a regression when the stable has signal; a stable with
// NaN correlation cannot hold back a candidate with signal. Both NaN holds.
func Observe(st *RolloutState, stableCorr, candCorr float64) Decision {
	if st.Candidate == "" {
		return Hold
	}
	sNaN, cNaN := math.IsNaN(stableCorr), math.IsNaN(candCorr)
	var better, worse bool
	switch {
	case sNaN && cNaN:
		return Hold
	case cNaN:
		worse = true
	case sNaN:
		better = true
	default:
		better = candCorr >= stableCorr-promoteMargin
		worse = candCorr < stableCorr-rollbackMargin
	}
	switch {
	case worse:
		st.Worse++
		st.Better = 0
	case better:
		st.Better++
		st.Worse = 0
	default: // dead band
		st.Better, st.Worse = 0, 0
	}
	if st.Worse >= rollbackAfter {
		st.Better, st.Worse = 0, 0
		return Rollback
	}
	if st.Better >= promoteAfter {
		st.Better, st.Worse = 0, 0
		return Promote
	}
	return Hold
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

// NewQualityWindow returns a window holding up to capacity pairs
// (<=0 defaults to 512).
func NewQualityWindow(capacity int) *QualityWindow {
	if capacity <= 0 {
		capacity = 512
	}
	return &QualityWindow{
		pred: make([]float64, capacity),
		meas: make([]float64, capacity),
	}
}

// Add records one (predicted, measured) pair, evicting the oldest beyond
// the window's capacity.
func (w *QualityWindow) Add(pred, meas float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.pred[w.next] = pred
	w.meas[w.next] = meas
	w.next = (w.next + 1) % len(w.pred)
	if w.n < len(w.pred) {
		w.n++
	}
	w.total++
}

// Snapshot returns the window's current Spearman rank correlation (NaN when
// undefined), the pairs currently held, and the total pairs ever added.
func (w *QualityWindow) Snapshot() (corr float64, n int, total uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.n == 0 {
		return math.NaN(), 0, w.total
	}
	return metrics.Spearman(w.pred[:w.n], w.meas[:w.n]), w.n, w.total
}

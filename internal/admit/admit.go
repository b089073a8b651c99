// Package admit is the serving tier's overload-robustness layer: the
// policy pieces that decide, before any expensive evaluation starts,
// whether a request should run now, wait its turn, or be rejected while
// the server is still healthy enough to say so.
//
// Two cooperating pieces:
//
//   - Queue (queue.go): per-client fair queueing in front of the
//     evaluation pool. Each client gets a FIFO lane; a round-robin
//     dispatcher cycles the lanes, so one bulk client saturating the
//     server cannot starve interactive traffic. Totals and per-lane depth
//     are bounded; requests beyond the bounds are shed immediately.
//
//   - Deadline shedding (this file): a request carrying a deadline — the
//     X-Paragraph-Deadline header or a context deadline — is rejected up
//     front with a ShedError when the predicted queue-drain time exceeds
//     its remaining budget. The caller estimates drain from live latency
//     histograms (EstimateDrain); the shed response carries a Retry-After
//     hint so well-behaved clients back off instead of hammering.
//
// The package is policy only — it never touches HTTP or the model — so
// the scheduler is property-testable in isolation (queue_test.go,
// queue_fuzz_test.go) and internal/serve stays the single place that maps
// ShedError to 503 + Retry-After.
package admit

import (
	"fmt"
	"time"
)

// ClientHeader names the request's client for fair queueing. Absent, the
// serving layer falls back to the remote address, so unlabeled traffic
// still gets per-source lanes.
const ClientHeader = "X-Paragraph-Client"

// DeadlineHeader carries the request's latency budget as a Go duration
// string ("250ms", "2s"). The serving layer turns it into a context
// deadline, sheds up front when the backlog cannot drain in time, and
// re-propagates the remaining budget on cluster forwards.
const DeadlineHeader = "X-Paragraph-Deadline"

// Reason classifies why a request was shed; it is the `reason` label of
// the serve_shed_total metric.
type Reason string

const (
	// ReasonQueueFull: the fair queue's total waiter bound was reached.
	ReasonQueueFull Reason = "queue_full"
	// ReasonLaneFull: the client's own lane was at its depth bound.
	ReasonLaneFull Reason = "lane_full"
	// ReasonDeadline: the predicted backlog drain exceeded the request's
	// remaining deadline budget, so running it would only waste capacity.
	ReasonDeadline Reason = "deadline"
	// ReasonExpired: the deadline had already passed (or the context was
	// cancelled) before or during the queue wait.
	ReasonExpired Reason = "expired"
)

// Reasons lists every shed reason, in stable order, so the metrics layer
// can pre-register the full serve_shed_total family.
func Reasons() []Reason {
	return []Reason{ReasonQueueFull, ReasonLaneFull, ReasonDeadline, ReasonExpired}
}

// ShedError is a load-shedding rejection. The serving layer maps it to
// 503 Service Unavailable with a Retry-After header.
type ShedError struct {
	Reason Reason
	// RetryAfter is the suggested back-off: roughly when the condition
	// that caused the shed is predicted to clear. Zero means the thrower
	// had no estimate; the server substitutes its own before responding.
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("admit: shed (%s), retry after %s", e.Reason, e.RetryAfter)
}

// ParseDeadline parses a DeadlineHeader value: a positive Go duration.
func ParseDeadline(h string) (time.Duration, error) {
	d, err := time.ParseDuration(h)
	if err != nil {
		return 0, fmt.Errorf("admit: bad deadline %q: want a Go duration like \"250ms\"", h)
	}
	if d <= 0 {
		return 0, fmt.Errorf("admit: bad deadline %q: must be positive", h)
	}
	return d, nil
}

// FormatDeadline renders a remaining budget for DeadlineHeader. The
// output round-trips through ParseDeadline.
func FormatDeadline(d time.Duration) string { return d.String() }

// EstimateDrain predicts how long until a request admitted now finishes:
// the backlog ahead of it (queued waiters plus evaluations already
// running) drained `concurrency` at a time, plus one wave for the request
// itself, each wave costing `unit` — the caller's live per-evaluation
// cost estimate. A non-positive unit (no latency data yet) estimates
// zero: with nothing measured, admission never sheds on a guess.
func EstimateDrain(backlog, concurrency int, unit time.Duration) time.Duration {
	if unit <= 0 || backlog < 0 {
		return 0
	}
	if concurrency < 1 {
		concurrency = 1
	}
	waves := backlog/concurrency + 1
	return time.Duration(waves) * unit
}

// CheckDeadline decides whether a request with `remaining` budget should
// be admitted given a `drain` estimate. remaining <= 0 means the deadline
// already passed (ReasonExpired); drain beyond the budget sheds with
// ReasonDeadline and a Retry-After covering the excess — by then enough
// backlog will have drained that an identical retry fits its budget.
// A nil return admits.
func CheckDeadline(remaining, drain time.Duration) *ShedError {
	if remaining <= 0 {
		return &ShedError{Reason: ReasonExpired, RetryAfter: drain}
	}
	if drain > remaining {
		return &ShedError{Reason: ReasonDeadline, RetryAfter: drain - remaining}
	}
	return nil
}

// RetryAfterSeconds renders a back-off as whole Retry-After seconds:
// rounded up, never below 1 (a zero Retry-After would invite an
// immediate, equally doomed retry).
func RetryAfterSeconds(d time.Duration) int {
	s := int((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

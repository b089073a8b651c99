package serve

import (
	"context"
	"errors"
	"net"
	"net/http"
	"strconv"
	"time"

	"paragraph/internal/admit"
	"paragraph/internal/obs"
)

// This file is the glue between internal/admit (pure policy) and the HTTP
// layer: client identity, deadline extraction, evaluation-cost estimation
// from each model's live latency histograms, and the single place a
// ShedError becomes a 503 with a Retry-After header.

// clientKey identifies the requester for fair queueing: the
// X-Paragraph-Client header when present, else the remote host (port
// stripped, so one busy client cannot widen its share by opening
// connections), else a shared bucket.
func clientKey(r *http.Request) string {
	if c := r.Header.Get(admit.ClientHeader); c != "" {
		return c
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil && host != "" {
		return host
	}
	if r.RemoteAddr != "" {
		return r.RemoteAddr
	}
	return "unknown"
}

// requestContext derives the request's evaluation context: the base
// context plus, when the X-Paragraph-Deadline header is present, a
// deadline that bounds the whole evaluation (queue wait included). The
// returned cancel must always be called. A malformed header is a client
// error, reported before any work starts.
func requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	h := r.Header.Get(admit.DeadlineHeader)
	if h == "" {
		return r.Context(), func() {}, nil
	}
	d, err := admit.ParseDeadline(h)
	if err != nil {
		return nil, nil, err
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

// evalCost is the live cost estimate of one cold advise on a model: the
// median of eval, its modelState.adviseEval — the whole evaluations this
// model has served, each timed inside its admission slot (admitRun). Zero
// until one has finished — a cold server never sheds on a guess. The
// batcher's per-prediction latency is not an input: it is a grid's
// per-sample share, and it never included a request's own generate →
// parse → build → encode.
func evalCost(eval *obs.Histogram) time.Duration {
	return time.Duration(eval.Quantile(0.5) * float64(time.Second))
}

// shedCheck decides up front whether a deadline-carrying request should
// be rejected: the admission backlog (queued waiters plus evaluations in
// flight ahead of it), drained cost-sized waves at a time, must fit the
// request's remaining budget. Requests without a deadline never shed
// here — they queue like before. Returns nil to admit.
func (s *Server) shedCheck(ctx context.Context, cost time.Duration) *admit.ShedError {
	dl, ok := ctx.Deadline()
	if !ok {
		return nil
	}
	st := s.admit.Counters()
	drain := admit.EstimateDrain(st.Queued+st.Running, st.Concurrency, cost)
	return admit.CheckDeadline(time.Until(dl), drain)
}

// asShed extracts a ShedError, translating context expiry — the deadline
// fired while queued or mid-evaluation — into ReasonExpired so callers
// get one uniform 503 + Retry-After surface and zero requests hang past
// their deadline.
func asShed(err error) (*admit.ShedError, bool) {
	var shed *admit.ShedError
	if errors.As(err, &shed) {
		return shed, true
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return &admit.ShedError{Reason: admit.ReasonExpired}, true
	}
	return nil, false
}

// writeShed maps a ShedError to 503 Service Unavailable with a
// Retry-After header and counts it under serve_shed_total{reason}. A
// shed with no back-off estimate gets the queue's own drain guess so the
// header is never absent.
func (s *Server) writeShed(w http.ResponseWriter, shed *admit.ShedError, cost time.Duration) {
	retry := shed.RetryAfter
	if retry <= 0 {
		st := s.admit.Counters()
		retry = admit.EstimateDrain(st.Queued+st.Running, st.Concurrency, cost)
	}
	secs := admit.RetryAfterSeconds(retry)
	s.metrics.shed[shed.Reason].Inc()
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	s.fail(w, http.StatusServiceUnavailable, "overloaded: %s (retry after %ds)", shed.Reason, secs)
}

// remainingBudget reports how much of ctx's deadline is left; zero when
// ctx has none. Forwards propagate it so a peer applies the same budget.
func remainingBudget(ctx context.Context) time.Duration {
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem > 0 {
			return rem
		}
		return time.Nanosecond // expired; the peer will shed it honestly
	}
	return 0
}

// admitRun runs an evaluation in a slot of the fair queue, which grants its
// Options.PoolSize slots per-client fair. A successful evaluation's wall
// time — fn alone, no queueing — is observed into eval, the histogram
// evalCost prices the next request of that kind from.
func (s *Server) admitRun(ctx context.Context, client string, eval *obs.Histogram, fn func() error) error {
	return s.admit.Run(ctx, client, func() error {
		start := time.Now()
		err := fn()
		if err == nil {
			eval.Observe(time.Since(start).Seconds())
		}
		return err
	})
}

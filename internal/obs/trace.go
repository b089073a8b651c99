package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"
)

// TraceHeader carries a request's trace id across the wire: accepted at
// ingress, echoed on responses, and set on every shard forward and
// replica write-through so one id follows the request through the tier.
const TraceHeader = "X-Paragraph-Trace-Id"

// NewTraceID returns a fresh 128-bit random trace id in hex.
func NewTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the platform is broken; fall back to
		// a fixed id rather than take the request down with it.
		return "00000000000000000000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// SanitizeTraceID validates a caller-supplied trace id: 1–64 characters
// from [0-9A-Za-z_-]. Anything else returns "" (the caller then mints a
// fresh id), so hostile header values never reach logs or peers verbatim.
func SanitizeTraceID(id string) string {
	if len(id) == 0 || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '-':
		default:
			return ""
		}
	}
	return id
}

// SpanRecord is one finished span of a trace, offsets relative to the
// trace start so a trace reads as a timeline.
type SpanRecord struct {
	Name    string `json:"name"`
	Detail  string `json:"detail,omitempty"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
}

// Trace accumulates the spans of one request. A nil *Trace is valid and
// inert — every method no-ops — so instrumented code paths never need a
// nil check. Methods are safe for concurrent use (batched requests end
// spans from the collector goroutine).
type Trace struct {
	id       string
	endpoint string
	start    time.Time

	mu      sync.Mutex
	spans   []SpanRecord
	dropped int
	limit   int
}

// ID returns the trace id ("" for a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// AddSpan records a completed span retroactively from its own wall-clock
// start — the shape needed when the duration is only known after the fact
// (singleflight waiters learn they waited once the leader lands).
func (t *Trace) AddSpan(name, detail string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	off := start.Sub(t.start)
	if off < 0 {
		off = 0
	}
	if d < 0 {
		d = 0
	}
	t.mu.Lock()
	if len(t.spans) >= t.limit {
		t.dropped++
	} else {
		t.spans = append(t.spans, SpanRecord{
			Name:    name,
			Detail:  detail,
			StartUS: off.Microseconds(),
			DurUS:   d.Microseconds(),
		})
	}
	t.mu.Unlock()
}

// Span is an in-progress span; End records it on its trace.
type Span struct {
	t      *Trace
	name   string
	detail string
	start  time.Time
}

// StartSpan opens a named span. Usable on a nil trace (returns a nil span,
// whose methods no-op).
func (t *Trace) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, name: name, start: time.Now()}
}

// Annotate attaches a detail string (e.g. the peer that answered a
// forward) shown alongside the span name.
func (s *Span) Annotate(detail string) {
	if s == nil {
		return
	}
	s.detail = detail
}

// End records the span on its trace.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.t.AddSpan(s.name, s.detail, s.start, time.Since(s.start))
}

// FinishedTrace is a completed trace as served by GET /v1/trace.
type FinishedTrace struct {
	ID           string       `json:"trace_id"`
	Endpoint     string       `json:"endpoint"`
	Status       int          `json:"status"`
	Start        time.Time    `json:"start"`
	DurationMS   float64      `json:"duration_ms"`
	Slow         bool         `json:"slow,omitempty"`
	SpansDropped int          `json:"spans_dropped,omitempty"`
	Spans        []SpanRecord `json:"spans"`
}

// TracerOptions configure a Tracer.
type TracerOptions struct {
	// Slow is the duration at or above which a finished trace is logged
	// as a structured slow-request record. <= 0 disables slow logging.
	Slow time.Duration
	// Logger receives slow-trace records (default slog.Default()).
	Logger *slog.Logger
}

// traceRing bounds the ring of recent traces a Tracer retains, and
// traceSpans the spans kept per trace (excess spans are counted in
// SpansDropped).
const (
	traceRing  = 128
	traceSpans = 128
)

// Tracer starts traces at ingress and retains finished ones in a bounded
// ring for GET /v1/trace. All methods are safe for concurrent use.
type Tracer struct {
	slow     time.Duration
	maxSpans int
	logger   *slog.Logger

	slowN atomic.Uint64

	mu   sync.Mutex
	ring []FinishedTrace // fixed capacity, next is the write cursor
	next int
	full bool
}

// NewTracer returns a tracer with the given options.
func NewTracer(opts TracerOptions) *Tracer {
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	return &Tracer{
		slow:     opts.Slow,
		maxSpans: traceSpans,
		logger:   opts.Logger,
		ring:     make([]FinishedTrace, traceRing),
	}
}

// Start opens a trace for endpoint. id is the (already sanitized) inbound
// trace id; empty mints a fresh one.
func (tr *Tracer) Start(id, endpoint string) *Trace {
	if id == "" {
		id = NewTraceID()
	}
	return &Trace{id: id, endpoint: endpoint, start: time.Now(), limit: tr.maxSpans}
}

// Finish seals t with the response status, stores it in the ring, and
// emits a slow-request log record when the trace crossed the threshold.
// No-op on a nil trace.
func (tr *Tracer) Finish(t *Trace, status int) {
	if t == nil {
		return
	}
	d := time.Since(t.start)
	t.mu.Lock()
	spans := append([]SpanRecord(nil), t.spans...)
	dropped := t.dropped
	t.mu.Unlock()
	ft := FinishedTrace{
		ID:           t.id,
		Endpoint:     t.endpoint,
		Status:       status,
		Start:        t.start,
		DurationMS:   float64(d.Microseconds()) / 1000,
		Slow:         tr.slow > 0 && d >= tr.slow,
		SpansDropped: dropped,
		Spans:        spans,
	}
	tr.mu.Lock()
	tr.ring[tr.next] = ft
	tr.next++
	if tr.next == len(tr.ring) {
		tr.next = 0
		tr.full = true
	}
	tr.mu.Unlock()
	if ft.Slow {
		tr.slowN.Add(1)
		tr.logger.Warn("slow request",
			"trace_id", ft.ID,
			"endpoint", ft.Endpoint,
			"status", ft.Status,
			"duration_ms", ft.DurationMS,
			"spans", len(ft.Spans),
		)
	}
}

// Recent returns up to limit finished traces, newest first (limit <= 0
// means all retained).
func (tr *Tracer) Recent(limit int) []FinishedTrace {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n := tr.next
	if tr.full {
		n = len(tr.ring)
	}
	if limit <= 0 || limit > n {
		limit = n
	}
	out := make([]FinishedTrace, 0, limit)
	for i := 0; i < limit; i++ {
		idx := tr.next - 1 - i
		if idx < 0 {
			idx += len(tr.ring)
		}
		out = append(out, tr.ring[idx])
	}
	return out
}

// Find returns the most recent retained trace with the given id.
func (tr *Tracer) Find(id string) (FinishedTrace, bool) {
	for _, ft := range tr.Recent(0) {
		if ft.ID == id {
			return ft, true
		}
	}
	return FinishedTrace{}, false
}

// SlowCount returns the number of traces logged as slow.
func (tr *Tracer) SlowCount() uint64 { return tr.slowN.Load() }

type traceCtxKey struct{}

// WithTrace attaches t to ctx; retrieve with TraceFrom.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, t)
}

// TraceFrom returns the trace attached to ctx, or nil — safe to call on
// any context, and the nil result is itself safe to use.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return t
}

package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"paragraph/internal/advisor"
	"paragraph/internal/gnn"
	"paragraph/internal/obs"
)

// Batcher is the metered front of one served model: a synchronous call into
// PredictBatch that checks the caller's context first and feeds the
// per-model counters, histograms and trace spans. It implements
// advisor.ContextBatchPredictor, so an advise request hands it the whole
// variant grid as one batch; a single prediction is a batch of one.
//
// Calls are never coalesced across requests. A batch is cheaper per sample
// than a lone call only where its samples share a topology family (see
// gnn/infer.go) — the points of one grid do, and they already arrive
// together; two requests never share a family, and every request already
// evaluates on its own goroutine under the pool bound, so holding a sample
// back for company would buy only latency. The batcher owns no goroutine.
type Batcher struct {
	model advisor.BatchPredictor

	latency   *obs.Histogram // per-prediction latency (a call's duration ÷ its size, so a grid's per-sample share), seconds
	sizes     *obs.Histogram // samples per model call: its count is the calls, its sum the samples
	cancelled *obs.Counter   // calls abandoned by their context before the model ran

	mu      sync.Mutex
	maxSeen int // largest single call
}

// NewBatcher wraps model, which must be safe for concurrent use: every
// request evaluates on its own goroutine. The two sizing arguments are
// ignored; they are retained because bench/layers.go, which BENCHMARK.json
// freezes, calls NewBatcher(p, 0, 0) — they go when ROADMAP item 4(d)
// deletes that mirror.
func NewBatcher(model advisor.BatchPredictor, _ int, _ time.Duration) *Batcher {
	return &Batcher{
		model:     model,
		latency:   obs.NewHistogram(obs.DefLatencyBuckets),
		sizes:     obs.NewHistogram(obs.BatchSizeBuckets),
		cancelled: new(obs.Counter),
	}
}

// Predict evaluates one sample (advisor.Predictor). Safe for concurrent use.
func (b *Batcher) Predict(s *gnn.Sample) float64 {
	// Background context: never cancelled, so the error path is dead.
	v, _ := b.PredictCtx(context.Background(), s)
	return v
}

// PredictCtx is PredictBatchCtx for a batch of one.
func (b *Batcher) PredictCtx(ctx context.Context, s *gnn.Sample) (float64, error) {
	out, err := b.PredictBatchCtx(ctx, []*gnn.Sample{s})
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

// PredictBatchCtx evaluates samples in one model call, results in input
// order. A context that already ended returns ctx.Err() without reaching
// the model; once the engine is running the call completes (a forward pass
// has no cancellation point and a grid costs milliseconds). A trace
// attached to ctx receives one predict span with detail batch=N.
func (b *Batcher) PredictBatchCtx(ctx context.Context, samples []*gnn.Sample) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		b.cancelled.Inc()
		return nil, err
	}
	n := len(samples)
	if n == 0 {
		return nil, nil
	}
	start := time.Now()
	preds := b.model.PredictBatch(samples)
	dur := time.Since(start)

	b.latency.Observe(dur.Seconds() / float64(n))
	b.sizes.Observe(float64(n))
	b.mu.Lock()
	b.maxSeen = max(b.maxSeen, n)
	b.mu.Unlock()
	if tr := obs.TraceFrom(ctx); tr != nil {
		tr.AddSpan("predict", fmt.Sprintf("batch=%d", n), start, dur)
	}
	return preds, nil
}

// Close is a no-op — there is nothing to stop — kept for bench/layers.go
// alongside NewBatcher's sizing arguments.
func (b *Batcher) Close() {}

// LatencyStats is the quantile snapshot exposed through /v1/stats: total
// observation count plus p50/p99 in milliseconds, estimated from the same
// log-bucketed histogram /metrics exposes as
// serve_batcher_latency_seconds — one instrument, two renderings.
type LatencyStats struct {
	Count uint64  `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`
}

// BatcherStats snapshots one model's call counters and its per-prediction
// latency quantiles: one observation per model call, the call's duration
// divided by its batch size. A grid's call shares work between its points,
// so on advise traffic this is a per-sample share, several times below what
// a lone prediction costs — admission does not price requests from it (see
// evalCost).
type BatcherStats struct {
	Batches   uint64       `json:"batches"`             // model calls
	Samples   uint64       `json:"samples"`             // predictions across all calls
	MaxBatch  int          `json:"max_batch"`           // largest single call
	MeanBatch float64      `json:"mean_batch"`          // samples / batches
	Cancelled uint64       `json:"cancelled,omitempty"` // calls abandoned by their context
	Latency   LatencyStats `json:"latency"`
}

// Stats returns a snapshot of the batcher counters.
func (b *Batcher) Stats() BatcherStats {
	st := BatcherStats{Batches: b.sizes.Count(), Samples: uint64(b.sizes.Sum()), Cancelled: b.cancelled.Value()}
	b.mu.Lock()
	st.MaxBatch = b.maxSeen
	b.mu.Unlock()
	if st.Batches > 0 {
		st.MeanBatch = float64(st.Samples) / float64(st.Batches)
	}
	st.Latency = LatencyStats{
		Count: b.latency.Count(),
		P50MS: b.latency.Quantile(0.50) * 1000,
		P99MS: b.latency.Quantile(0.99) * 1000,
	}
	return st
}

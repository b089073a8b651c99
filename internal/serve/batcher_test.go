package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paragraph/internal/gnn"
)

// echoModel predicts each sample's first feature, optionally sleeping per
// call, and records the size of every call it receives.
type echoModel struct {
	delay time.Duration
	mu    sync.Mutex
	calls []int
}

func (m *echoModel) PredictBatch(ss []*gnn.Sample) []float64 {
	if m.delay > 0 {
		time.Sleep(m.delay)
	}
	m.mu.Lock()
	m.calls = append(m.calls, len(ss))
	m.mu.Unlock()
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.Feats[0]
	}
	return out
}

func (m *echoModel) callSizes() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]int(nil), m.calls...)
}

func (m *echoModel) callCount() int { return len(m.callSizes()) }

func TestBatcherPredictRoundTrips(t *testing.T) {
	model := &echoModel{}
	b := NewBatcher(model, 4, time.Millisecond)
	defer b.Close()
	for i := 0; i < 5; i++ {
		want := float64(i) / 10
		if got := b.Predict(&gnn.Sample{Feats: [2]float64{want, 0}}); got != want {
			t.Errorf("Predict = %v, want %v", got, want)
		}
	}
	st := b.Stats()
	if st.Samples != 5 || st.Batches != 5 || st.MeanBatch != 1 || st.MaxBatch != 1 {
		t.Errorf("stats = %+v, want 5 samples in 5 calls of one", st)
	}
}

// TestBatcherGridIsOneModelCall: a slice goes to the model whole, in order,
// and is metered as one batch whose latency observation is per prediction.
func TestBatcherGridIsOneModelCall(t *testing.T) {
	model := &echoModel{delay: 20 * time.Millisecond}
	b := NewBatcher(model, 4, time.Millisecond) // 4: the ignored cap must not split a grid
	const n = 33
	grid := make([]*gnn.Sample, n)
	for i := range grid {
		grid[i] = &gnn.Sample{Feats: [2]float64{float64(i), 0}}
	}
	got, err := b.PredictBatchCtx(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != float64(i) {
			t.Errorf("prediction %d = %v, out of input order", i, v)
		}
	}
	if sizes := model.callSizes(); len(sizes) != 1 || sizes[0] != n {
		t.Fatalf("model calls = %v, want one of %d", sizes, n)
	}
	st := b.Stats()
	if st.Batches != 1 || st.Samples != n || st.MeanBatch != n || st.MaxBatch != n {
		t.Errorf("stats = %+v, want one batch of %d", st, n)
	}
	// ≥20ms over 33 samples: under 5ms a prediction unless the whole call's
	// duration was recorded undivided.
	if st.Latency.Count != 1 || st.Latency.P50MS <= 0 || st.Latency.P50MS > 5 {
		t.Errorf("latency = %+v, want one per-prediction observation of ~0.6ms", st.Latency)
	}
}

// TestBatcherIdleCallDoesNotWait: a lone caller is answered at once. The
// sizing arguments are ignored; were a collection window still honoured,
// this call would sit out the hour.
func TestBatcherIdleCallDoesNotWait(t *testing.T) {
	b := NewBatcher(&echoModel{}, 16, time.Hour)
	done := make(chan float64, 1)
	go func() {
		v, _ := b.PredictCtx(context.Background(), &gnn.Sample{Feats: [2]float64{0.25, 0}})
		done <- v
	}()
	select {
	case v := <-done:
		if v != 0.25 {
			t.Errorf("PredictCtx = %v, want 0.25", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("PredictCtx on an idle batcher is waiting for company")
	}
}

// TestBatcherCloseDrains: with no goroutine there is nothing left to drain,
// but bench/layers.go still defers Close — it must stay a safe, repeatable
// no-op that loses no counts.
func TestBatcherCloseDrains(t *testing.T) {
	model := &echoModel{delay: time.Millisecond}
	b := NewBatcher(model, 8, 5*time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b.Predict(&gnn.Sample{Feats: [2]float64{float64(i), 0}})
		}(i)
	}
	wg.Wait()
	b.Close()
	b.Close()
	if st := b.Stats(); st.Samples != 8 {
		t.Errorf("samples = %d, want 8", st.Samples)
	}
}

func TestBatcherPredictAfterCloseDegradesGracefully(t *testing.T) {
	// A handler racing shutdown must still get a correct answer, not a
	// panic or a hang.
	model := &echoModel{}
	b := NewBatcher(model, 4, time.Millisecond)
	b.Close()
	if got := b.Predict(&gnn.Sample{Feats: [2]float64{0.75, 0}}); got != 0.75 {
		t.Errorf("post-Close Predict = %v, want 0.75", got)
	}
	if st := b.Stats(); st.Samples != 1 {
		t.Errorf("post-Close evaluation not metered: %+v", st)
	}
}

func TestBatcherLatencyQuantiles(t *testing.T) {
	model := &echoModel{delay: time.Millisecond}
	b := NewBatcher(model, 4, time.Millisecond)
	defer b.Close()
	for i := 0; i < 20; i++ {
		b.Predict(&gnn.Sample{Feats: [2]float64{0.5, 0}})
	}
	lat := b.Stats().Latency
	if lat.Count != 20 {
		t.Errorf("latency count = %d, want 20", lat.Count)
	}
	// The model sleeps 1ms per call, so every observed latency is >= 1ms
	// and the quantiles must reflect that (and be ordered).
	if lat.P50MS < 0.5 {
		t.Errorf("p50 = %vms, implausibly below the model's 1ms floor", lat.P50MS)
	}
	if lat.P99MS < lat.P50MS {
		t.Errorf("p99 %v < p50 %v", lat.P99MS, lat.P50MS)
	}
}

func TestBatcherEmptyLatencyStats(t *testing.T) {
	b := NewBatcher(&echoModel{}, 4, time.Millisecond)
	defer b.Close()
	if lat := b.Stats().Latency; lat.Count != 0 || lat.P50MS != 0 || lat.P99MS != 0 {
		t.Errorf("latency stats before any prediction = %+v", lat)
	}
}

// blockingModel parks every PredictBatch call until released (the overload
// suite wedges a server with it).
type blockingModel struct{ release chan struct{} }

func (m *blockingModel) PredictBatch(ss []*gnn.Sample) []float64 {
	<-m.release
	return make([]float64, len(ss))
}

func TestBatcherPredictCtxAlreadyCancelled(t *testing.T) {
	// A caller whose context is already dead gets ctx.Err() back without the
	// model ever running, through either entry point, and is counted.
	model := &echoModel{}
	b := NewBatcher(model, 4, time.Hour)
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := &gnn.Sample{Feats: [2]float64{1, 0}}
	if _, err := b.PredictCtx(ctx, s); !errors.Is(err, context.Canceled) {
		t.Errorf("PredictCtx = %v, want context.Canceled", err)
	}
	if _, err := b.PredictBatchCtx(ctx, []*gnn.Sample{s, s}); !errors.Is(err, context.Canceled) {
		t.Errorf("PredictBatchCtx = %v, want context.Canceled", err)
	}
	if model.callCount() != 0 {
		t.Error("cancelled request reached the model")
	}
	if st := b.Stats(); st.Cancelled != 2 || st.Batches != 0 || st.Samples != 0 {
		t.Errorf("stats = %+v, want 2 cancelled and nothing evaluated", st)
	}
}

func TestBatcherCancelLeaksNoGoroutines(t *testing.T) {
	// The batcher owns no goroutine: building one starts none, and once a
	// storm of concurrent callers — some already expired — returns, none
	// linger, Close or no Close (run under -race in CI).
	before := runtime.NumGoroutine()
	model := &echoModel{delay: time.Millisecond}
	b := NewBatcher(model, 4, time.Millisecond)
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("NewBatcher started %d goroutine(s)", now-before)
	}

	var wg sync.WaitGroup
	var answered atomic.Uint64
	for i := 0; i < 200; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if i%5 == 0 {
				cancel()
			}
			v, err := b.PredictCtx(ctx, &gnn.Sample{Feats: [2]float64{float64(i), 0}})
			switch {
			case err == nil && v == float64(i):
				answered.Add(1)
			case err == nil:
				t.Errorf("caller %d got %v", i, v)
			}
		}(i)
	}
	wg.Wait()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		buf := make([]byte, 1<<16)
		t.Errorf("goroutines: %d before, %d after the storm\n%s",
			before, now, buf[:runtime.Stack(buf, true)])
	}
	st := b.Stats()
	if st.Cancelled != 40 || st.Samples != 160 || answered.Load() != 160 {
		t.Errorf("cancelled/samples/answered = %d/%d/%d, want 40/160/160", st.Cancelled, st.Samples, answered.Load())
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"paragraph/internal/advisor"
	"paragraph/internal/analysis"
	"paragraph/internal/apps"
	"paragraph/internal/cast"
	"paragraph/internal/clex"
	"paragraph/internal/cluster"
	"paragraph/internal/cparse"
	"paragraph/internal/dataset"
	"paragraph/internal/gnn"
	"paragraph/internal/hw"
	"paragraph/internal/nn"
	"paragraph/internal/paragraph"
	"paragraph/internal/registry"
	"paragraph/internal/serve"
	"paragraph/internal/shard"
	"paragraph/internal/sim"
	"paragraph/internal/tensor"
	"paragraph/internal/variants"
)

// The layer replay walks the same seeded cold requests through each
// layer's public functions, in-process, with a span around every call. It
// is identical for all four workloads — the layers are measured on one
// fixed kind of input whatever the end-to-end run was — so a per-layer
// number read from any traced run means the same thing.

// gridPoint is what the replay keeps of one evaluated grid point for the
// single-layer measurements that follow it.
type gridPoint struct {
	in     variants.Instance
	fn     *cast.Node
	sample *gnn.Sample
}

// maxKeptPoints bounds the grid points kept for the single-layer loops.
const maxKeptPoints = 512

// layerRun accumulates one replay's metrics and oracle outcome.
type layerRun struct {
	e    *env
	seed int64
	tr   *tracer
	m    map[string]float64

	attempted, failed int
	firstErr          error
	replayRequestMS   float64 // median mirrored request, printed beside the real server's
	serverColdMS      float64 // median cold Handler().ServeHTTP of the in-process server

	mu           sync.Mutex // guards the fields below: grid workers append concurrently
	points       []gridPoint
	nodes, edges []float64
}

func (l *layerRun) fail(err error) {
	l.failed++
	if l.firstErr == nil {
		l.firstErr = err
	}
}

// measureLayers runs the replay and every single-layer measurement and
// returns the per-layer metrics they produce.
func measureLayers(e *env, seed int64, p plan, tr *tracer) *layerRun {
	l := &layerRun{e: e, seed: seed, tr: tr, m: map[string]float64{}}
	reqs := newGenerator(seed).coldSequence(0, 1, p.replay)

	mirrored := l.replayPipeline(reqs)
	l.serialAdvise(reqs, mirrored)
	l.inProcessServer(reqs)
	l.frontEnd()
	l.inference()
	l.caches()
	if err := l.registryAndRing(); err != nil {
		l.fail(err)
	}
	if err := l.offline(); err != nil {
		l.fail(err)
	}
	return l
}

// timeEach calls f n times, timing each call, and returns the median µs.
func timeEach(n int, f func(i int)) float64 {
	us := make([]float64, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		f(i)
		us[i] = float64(time.Since(t0)) / float64(time.Microsecond)
	}
	return median(us)
}

// timeBatches is for calls too short to time one by one: it times batches
// batches of per calls each and returns the median ns per call.
func timeBatches(batches, per int, f func(i int)) float64 {
	ns := make([]float64, batches)
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			f(b*per + i)
		}
		ns[b] = float64(time.Since(t0)) / float64(per)
	}
	return median(ns)
}

// mallocs returns the heap allocations f makes.
func mallocs(f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}

// tracedPredictor stands between the batcher and the checkpoint: it records
// a gnn.predict span under the serve.batcher.call span of the batch's first
// sample, which is how the replay sees inside the batcher without a span in
// internal/serve.
type tracedPredictor struct {
	e     *registry.Entry
	tr    *tracer
	calls sync.Map // *gnn.Sample → callRef
}

type callRef struct {
	id      int
	request string
}

func (p *tracedPredictor) PredictBatch(samples []*gnn.Sample) []float64 {
	start := time.Now()
	out := p.e.PredictBatch(samples)
	end := time.Now()
	if ref, ok := p.calls.Load(samples[0]); ok {
		r := ref.(callRef)
		p.tr.add(span{Parent: r.id, Request: r.request, Name: "gnn.predict", Start: start, End: end,
			Detail: fmt.Sprintf("batch=%d", len(samples))})
	}
	return out
}

// replayPipeline mirrors what the server does for a cold request, from
// public functions only: decode → for every grid point generate → parse →
// build → encode → batcher call (→ predict) → rank → encode the answer. The
// grid is fanned over GOMAXPROCS workers sharing one default batcher, as
// the server's grid workers are. It returns each request's ranking.
func (l *layerRun) replayPipeline(reqs []request) [][]serve.Recommendation {
	entry := l.e.entry
	pred := &tracedPredictor{e: entry, tr: l.tr}
	batcher := serve.NewBatcher(pred, 0, 0)
	defer batcher.Close()
	workers := runtime.GOMAXPROCS(0)
	out := make([][]serve.Recommendation, len(reqs))
	var requestMS []float64

	for ri := range reqs {
		req := &reqs[ri]
		rid := fmt.Sprintf("replay-%d", ri)
		root := l.tr.newID()
		rootStart := time.Now()

		var ar serve.AdviseRequest
		err := json.Unmarshal(req.Body, &ar)
		l.tr.add(span{Parent: root, Request: rid, Name: "json.decode", Start: rootStart, End: time.Now()})
		k, ok := apps.ByName(ar.Kernel)
		l.attempted++
		if err != nil || !ok {
			l.fail(fmt.Errorf("%s: undecodable generated request", rid))
			continue
		}

		adv := l.tr.newID()
		advStart := time.Now()
		grid := defaultGrid(k)
		recs := make([]advisor.Recommendation, len(grid))
		errs := make([]error, len(grid))
		var wg sync.WaitGroup
		work := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					grid[i].Bindings = ar.Bindings
					recs[i], errs[i] = l.evalPoint(adv, rid, grid[i], pred, batcher)
				}
			}()
		}
		for i := range grid {
			work <- i
		}
		close(work)
		wg.Wait()
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].PredictedUS < recs[j].PredictedUS })
		advEnd := time.Now()
		l.tr.add(span{ID: adv, Parent: root, Request: rid, Name: "advisor.advise", Start: advStart, End: advEnd})

		resp := serve.AdviseResponse{Machine: servedMachine, Model: entry.Manifest.Name, Kernel: k.Name}
		for _, r := range recs {
			resp.Recommendations = append(resp.Recommendations, serve.Recommendation{
				Variant: r.Kind.String(), Teams: r.Teams, Threads: r.Threads, PredictedUS: r.PredictedUS})
		}
		_, err = json.Marshal(resp)
		rootEnd := time.Now()
		l.tr.add(span{Parent: root, Request: rid, Name: "json.encode", Start: advEnd, End: rootEnd})
		l.tr.add(span{ID: root, Request: rid, Name: "request", Start: rootStart, End: rootEnd})
		out[ri] = resp.Recommendations
		for _, e := range append(errs, err) {
			if e != nil {
				l.fail(fmt.Errorf("%s %s: %w", rid, k.Name, e))
				out[ri] = nil
				break
			}
		}
		requestMS = append(requestMS, float64(rootEnd.Sub(rootStart))/float64(time.Millisecond))
	}

	spans := l.tr.snapshot()
	l.m["variants.generate_us"] = median(spanDurationsUS(spans, "variants.generate"))
	l.m["cparse.parse_us"] = median(spanDurationsUS(spans, "cparse.parse"))
	l.m["paragraph.build_us"] = median(spanDurationsUS(spans, "paragraph.build"))
	l.m["gnn.encode_us"] = median(spanDurationsUS(spans, "gnn.encode"))
	l.m["serve.batcher.call_us"] = median(spanDurationsUS(spans, "serve.batcher.call"))
	l.m["paragraph.nodes_per_graph"] = mean(l.nodes)
	l.m["paragraph.edges_per_graph"] = mean(l.edges)
	l.replayRequestMS = median(requestMS)
	l.m["attrib.cold_unexplained_share"] = uncoveredShare(spans)
	return out
}

// evalPoint is one grid point of the mirrored pipeline, a span per stage.
func (l *layerRun) evalPoint(parent int, rid string, in variants.Instance, pred *tracedPredictor, batcher *serve.Batcher) (advisor.Recommendation, error) {
	entry := l.e.entry
	stage := func(name string, start time.Time) time.Time {
		end := time.Now()
		l.tr.add(span{Parent: parent, Request: rid, Name: name, Start: start, End: end})
		return end
	}
	t := time.Now()
	src, err := variants.Generate(in.Kernel, in.Kind, in.Teams, in.Threads)
	t = stage("variants.generate", t)
	if err != nil {
		return advisor.Recommendation{}, err
	}
	in.Source = src
	fn, err := cparse.ParseFunction(src)
	t = stage("cparse.parse", t)
	if err != nil {
		return advisor.Recommendation{}, err
	}
	g, err := paragraph.Build(fn, paragraph.Options{Level: entry.Level, Threads: in.Threads, Bindings: in.Bindings})
	t = stage("paragraph.build", t)
	if err != nil {
		return advisor.Recommendation{}, err
	}
	eg, err := gnn.Encode(g, int(paragraph.NumEdgeTypes))
	t = stage("gnn.encode", t)
	if err != nil {
		return advisor.Recommendation{}, err
	}
	eg.WScale = entry.Prep.WScale
	s := &gnn.Sample{G: eg, Feats: [2]float64{
		entry.Prep.TeamScaler.Scale(float64(in.Teams)),
		entry.Prep.ThreadScaler.Scale(float64(in.Threads)),
	}}
	call := l.tr.newID()
	pred.calls.Store(s, callRef{id: call, request: rid})
	v, err := batcher.PredictCtx(context.Background(), s)
	l.tr.add(span{ID: call, Parent: parent, Request: rid, Name: "serve.batcher.call", Start: t, End: time.Now()})
	pred.calls.Delete(s)
	if err != nil {
		return advisor.Recommendation{}, err
	}

	l.mu.Lock()
	l.nodes = append(l.nodes, float64(g.NumNodes()))
	l.edges = append(l.edges, float64(g.NumEdges()))
	if len(l.points) < maxKeptPoints {
		l.points = append(l.points, gridPoint{in: in, fn: fn, sample: s})
	}
	l.mu.Unlock()
	return advisor.Recommendation{Kind: in.Kind, Teams: in.Teams, Threads: in.Threads,
		PredictedUS: entry.Prep.DescaleUS(v), Source: src}, nil
}

// serialAdvise times advisor.Advise — one worker, no batcher, no cache, no
// HTTP — on the replay's requests: the serial CPU cost of a grid, the floor
// advise_cold's op_p50_ms can approach. It also holds the mirrored pipeline
// to the advisor's ranking, so the spans above are spans of the real work.
func (l *layerRun) serialAdvise(reqs []request, mirrored [][]serve.Recommendation) {
	ref := serialAdvisor(l.e.entry)
	var ms, points []float64
	for i := range reqs {
		t0 := time.Now()
		recs, err := ref.Advise(reqs[i].Kernel, reqs[i].Bindings, advisor.DefaultSearchSpace())
		ms = append(ms, float64(time.Since(t0))/float64(time.Millisecond))
		l.attempted++
		if err != nil {
			l.fail(fmt.Errorf("serial advise %s: %w", reqs[i].Kernel.Name, err))
			continue
		}
		points = append(points, float64(len(recs)))
		if mirrored[i] == nil {
			continue // already counted as a failed replay
		}
		if err := sameRanking(recs, mirrored[i]); err != nil {
			l.fail(fmt.Errorf("mirrored pipeline disagrees with advisor.Advise on %s: %w", reqs[i].Kernel.Name, err))
		}
	}
	l.m["advisor.advise_cpu_ms"] = median(ms)
	l.m["advisor.grid_points_per_op"] = mean(points)
}

// newInProcessServer builds the full serving stack over the checkpoint
// entry, without a listener.
func newInProcessServer(entry *registry.Entry) (*serve.Server, error) {
	return serve.NewServer([]serve.Backend{{
		Machine: entry.Machine, Model: entry, Prep: entry.Prep,
		Name: entry.Manifest.Name, Default: true,
		Info: &serve.ModelInfo{Level: entry.Level, Source: "checkpoint"},
	}}, serve.Options{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
}

// handle runs one request through a server's handler.
func handle(srv *serve.Server, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/advise", bytes.NewReader(body)))
	return rec
}

// inProcessServer drives a real serve.Server through its handler: the
// replay's requests once cold — the stack's own time for a cold request,
// printed beside the mirrored pipeline's — then repeatedly warm for
// the hit path's time, allocations and answer size, then a snapshot and
// restore of the filled cache.
func (l *layerRun) inProcessServer(reqs []request) {
	srv, err := newInProcessServer(l.e.entry)
	if err != nil {
		l.fail(err)
		return
	}
	defer srv.Close()

	var coldMS []float64
	for i := range reqs {
		t0 := time.Now()
		rec := handle(srv, reqs[i].Body)
		coldMS = append(coldMS, float64(time.Since(t0))/float64(time.Millisecond))
		l.attempted++
		if _, err := checkResponse(&reqs[i], rec.Code, rec.Body.Bytes(), expect{cached: false}); err != nil {
			l.fail(fmt.Errorf("in-process cold: %w", err))
		}
	}
	l.serverColdMS = median(coldMS)

	const hits = 2000
	var bytesOut float64
	l.m["serve.hit.handler_us"] = timeEach(hits, func(i int) {
		rec := handle(srv, reqs[i%len(reqs)].Body)
		bytesOut += float64(rec.Body.Len())
	})
	l.m["serve.hit.response_bytes"] = bytesOut / hits
	l.m["serve.hit.allocs_per_op"] = mallocs(func() {
		for i := 0; i < hits; i++ {
			handle(srv, reqs[i%len(reqs)].Body)
		}
	}) / hits
	l.attempted++
	rec := handle(srv, reqs[0].Body)
	if _, err := checkResponse(&reqs[0], rec.Code, rec.Body.Bytes(), expect{cached: true}); err != nil {
		l.fail(fmt.Errorf("in-process warm: %w", err))
	}

	l.m["serve.snapshot_restore_ms"] = timeEach(5, func(int) {
		var buf bytes.Buffer
		fresh, err := newInProcessServer(l.e.entry)
		if err != nil {
			l.fail(err)
			return
		}
		defer fresh.Close()
		if err := srv.SnapshotCache(&buf); err != nil {
			l.fail(err)
			return
		}
		if n, err := fresh.RestoreCache(&buf); err != nil || n != len(reqs) {
			l.fail(fmt.Errorf("restored %d of %d cache entries: %v", n, len(reqs), err))
		}
	}) / 1000
}

// frontEnd times the layers only the offline half calls one by one, on the
// sources the replay generated.
func (l *layerRun) frontEnd() {
	pts := l.points
	if len(pts) == 0 {
		return
	}
	v100 := hw.V100()
	l.m["clex.tokenize_us"] = timeEach(len(pts), func(i int) { _, _ = clex.Tokenize(pts[i].in.Source) })
	l.m["analysis.kernel_us"] = timeEach(len(pts), func(i int) { analysis.AnalyzeKernel(pts[i].fn, pts[i].in.Bindings, 100) })
	l.m["sim.simulate_us"] = timeEach(len(pts), func(i int) { _, _ = sim.Simulate(pts[i].in, v100, sim.Config{Seed: 1}) })
}

// inference times the checkpoint entry's PredictBatch — the float32 serving
// default — on one and on sixteen encoded samples.
func (l *layerRun) inference() {
	pts := l.points
	if len(pts) < 16 {
		return
	}
	entry := l.e.entry
	one := make([]*gnn.Sample, 1)
	l.m["gnn.predict_us"] = timeEach(len(pts), func(i int) {
		one[0] = pts[i].sample
		entry.PredictBatch(one)
	})
	l.m["gnn.predict_allocs"] = mallocs(func() {
		for i := range pts {
			one[0] = pts[i].sample
			entry.PredictBatch(one)
		}
	}) / float64(len(pts))
	batch := make([]*gnn.Sample, 16)
	l.m["gnn.predict_batch16_us_per_sample"] = timeEach(len(pts)/16, func(i int) {
		for j := range batch {
			batch[j] = pts[i*16+j].sample
		}
		entry.PredictBatch(batch)
	}) / 16
	if call := l.m["serve.batcher.call_us"]; call > 0 {
		l.m["serve.batcher.wait_share"] = 1 - l.m["gnn.predict_us"]/call
	}
}

// caches times the response cache at capacity and replays a fixed Zipf key
// stream through it. The Zipf stream is seeded by a constant, not -seed:
// its hit count repeats exactly and moves only if the eviction policy or
// the capacity does.
func (l *layerRun) caches() {
	const capacity, universe = 512, 1 << 14
	keys := make([]string, universe)
	for i := range keys {
		keys[i] = serve.Key("bench", fmt.Sprint(i))
	}
	c := serve.NewCache(capacity)
	for _, k := range keys[:universe/2] { // far more keys than capacity: every shard is full
		c.Add(k, k)
	}
	var resident []string
	for _, it := range c.Items() {
		resident = append(resident, it.Key)
	}
	l.m["serve.cache.get_ns"] = timeBatches(50, 1000, func(i int) { c.Get(resident[i%len(resident)]) })
	fresh := keys[universe/2:]
	l.m["serve.cache.add_ns"] = timeBatches(50, 100, func(i int) { c.Add(fresh[i%len(fresh)], i) })

	z := serve.NewCache(capacity)
	zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1, 2047)
	const draws = 4000
	hitCount := 0
	for i := 0; i < draws; i++ {
		k := keys[zipf.Uint64()]
		if _, ok := z.Get(k); ok {
			hitCount++
		} else {
			z.Add(k, k)
		}
	}
	l.m["serve.cache.zipf_hit_share"] = float64(hitCount) / draws
}

// registryAndRing times checkpoint save and open and a ring lookup.
func (l *layerRun) registryAndRing() error {
	var firstErr error
	l.m["registry.save_ms"] = timeEach(5, func(i int) {
		if err := saveCheckpoint(filepath.Join(l.e.tmpDir, fmt.Sprintf("save-%d", i)), l.e.model); err != nil && firstErr == nil {
			firstErr = err
		}
	}) / 1000
	l.m["registry.open_ms"] = timeEach(5, func(int) {
		if _, err := registry.Open(l.e.modelDir, registry.Options{}); err != nil && firstErr == nil {
			firstErr = err
		}
	}) / 1000
	ring, err := shard.NewRing([]string{"http://127.0.0.1:1", "http://127.0.0.1:2"}, 0)
	if err != nil {
		return err
	}
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = serve.Key("bench", fmt.Sprint(i))
	}
	l.m["shard.ring.owners_ns"] = timeBatches(50, 1000, func(i int) { ring.Owners(keys[i%len(keys)], 1) })
	return firstErr
}

// offline times the layers training and data generation use, on the same
// collected data offline_train trains on.
func (l *layerRun) offline() error {
	d, err := setupTrain(l.seed)
	if err != nil {
		return err
	}
	l.m["dataset.collect_us_per_point"] = float64(d.collect) / float64(time.Microsecond) / float64(d.points)
	l.m["dataset.prepare_us_per_point"] = float64(d.prepare) / float64(time.Microsecond) / float64(d.points)

	// cluster.Stats is not reachable through dataset.Collect, so the same
	// campaign — the default sweep's CPU instances simulated on POWER9
	// under the default cluster config — is submitted directly.
	all, err := variants.SweepAll(variants.DefaultSweep())
	if err != nil {
		return err
	}
	p9 := hw.Power9()
	cfg := dataset.DefaultConfig()
	var jobs []cluster.Job
	for _, in := range all {
		if in.Kind.IsGPU() {
			continue
		}
		in := in
		jobs = append(jobs, cluster.Job{ID: in.Name(), Run: func() (float64, error) {
			r, err := sim.Simulate(in, p9, cfg.Sim)
			return r.MicroSec, err
		}})
	}
	_, stats := cluster.New(cfg.Cluster).Submit(jobs)
	if stats.Submitted > 0 {
		l.m["cluster.retries_per_job"] = float64(stats.Retries) / float64(stats.Submitted)
	}

	m := gnn.NewModel(trainModelConfig())
	l.m["gnn.train_step_us"] = timeEach(len(d.train), func(i int) {
		f := nn.NewForward()
		pred := m.Forward(f, d.train[i])
		loss := f.Tape.MSE(pred, tensor.Scalar(d.train[i].Target))
		f.Backward(loss)
		f.Accumulate(1)
		nn.ZeroGrads(m.Params())
	})
	l.m["gnn.eval_us_per_sample"] = timeEach(10, func(int) { m.EvalRMSE(d.val, 0) }) / float64(len(d.val))
	opt := nn.NewAdam(3e-3)
	l.m["nn.adam_step_us"] = timeEach(50, func(int) { opt.Step(m.Params()) })

	// The node projection of one layer: nodes_per_graph × hidden by
	// hidden × hidden, at the replay's typical graph size.
	rng := rand.New(rand.NewSource(1))
	a, b := tensor.New(91, 24), tensor.New(24, 24)
	a.RandN(rng, 1)
	b.RandN(rng, 1)
	l.m["tensor.matmul_node_proj_ns"] = timeBatches(50, 100, func(int) { tensor.MatMul(a, b) })
	return nil
}

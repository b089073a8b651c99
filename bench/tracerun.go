package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"paragraph/internal/serve"
)

// tracePlan turns a timed run's plan into the traced run's: one set-up and
// half the measured time, split into many short rounds that alternate
// untraced and traced, so tracing overhead is read inside one run against
// the same children and a slow stretch of the host falls on both kinds
// alike. The other half of the time goes to the layer replay.
func tracePlan(p plan) plan {
	rounds, trainRounds := 30, 12
	if p.rounds < 5 { // the quick plan
		rounds, trainRounds = 2, 2
	}
	t := p
	t.minSetups, t.setupFill = 1, 0
	t.rounds = rounds
	t.round = p.round * time.Duration(p.rounds) / time.Duration(2*rounds)
	t.trainRounds = trainRounds
	t.trainEpochs = p.trainEpochs * p.trainRounds / (2 * trainRounds)
	if t.trainEpochs < 1 {
		t.trainEpochs = 1
	}
	return t
}

// oddRounds marks the traced rounds of a traced run.
func oddRounds(r int) bool { return r%2 == 1 }

// overheadShare is the traced rounds' shortfall against the untraced rounds
// of the same run, on totals rather than medians: advise_cold completes
// about eight operations a round, too few for a median to resolve anything.
func overheadShare(perRound []float64) float64 {
	var plain, traced float64
	for r, v := range perRound {
		if oddRounds(r) {
			traced += v
		} else {
			plain += v
		}
	}
	if plain == 0 {
		return 0
	}
	return 1 - traced/plain
}

// counters is what the children report at a run boundary.
type counters struct {
	stats []serve.Stats // one per child, receiver first
	usage []procUsage
}

func readCounters(ctx context.Context, sv *serving) (counters, error) {
	var c counters
	for _, p := range sv.procs {
		var st serve.Stats
		if err := getJSON(ctx, p.url+"/v1/stats", &st); err != nil {
			return c, err
		}
		u, err := p.usage()
		if err != nil {
			return c, err
		}
		c.stats = append(c.stats, st)
		c.usage = append(c.usage, u)
	}
	return c, nil
}

// counterMetrics turns the boundary counters into per-operation ratios.
// Counts are summed over the children: on ring_forward an operation is a
// cache miss at the receiver and a hit at the owner.
func counterMetrics(before, after counters, ops float64, m map[string]float64) {
	var hits, misses, evictions, encHits, encMisses, coalesced, shed, samples, batches, forwards, fallbacks float64
	var cpu time.Duration
	for i := range after.stats {
		a, b := after.stats[i], before.stats[i]
		hits += float64(a.AdviseCache.Hits - b.AdviseCache.Hits)
		misses += float64(a.AdviseCache.Misses - b.AdviseCache.Misses)
		evictions += float64(a.AdviseCache.Evictions - b.AdviseCache.Evictions)
		encHits += float64(a.EncodeCache.Hits - b.EncodeCache.Hits)
		encMisses += float64(a.EncodeCache.Misses - b.EncodeCache.Misses)
		coalesced += float64(a.Coalesced - b.Coalesced)
		for reason, n := range a.Shed {
			shed += float64(n - b.Shed[reason])
		}
		for j := range b.Models {
			samples += float64(a.Models[j].Batcher.Samples - b.Models[j].Batcher.Samples)
			batches += float64(a.Models[j].Batcher.Batches - b.Models[j].Batcher.Batches)
		}
		if a.Cluster != nil && b.Cluster != nil && i == 0 { // the receiver's view of the hop
			fallbacks += float64(a.Cluster.LocalFallbacks - b.Cluster.LocalFallbacks)
			for j, mem := range a.Cluster.Members {
				if j < len(b.Cluster.Members) {
					forwards += float64(mem.Forwards - b.Cluster.Members[j].Forwards)
				}
			}
		}
		cpu += after.usage[i].cpu - before.usage[i].cpu
		m["proc.peak_rss_mb"] += after.usage[i].peakRSSMB
	}
	share := func(part, rest float64) float64 {
		if part+rest == 0 {
			return 0
		}
		return part / (part + rest)
	}
	m["serve.cache.hit_share"] = share(hits, misses)
	m["serve.encode_cache.hit_share"] = share(encHits, encMisses)
	if batches > 0 {
		m["serve.batcher.mean_batch"] = samples / batches
		// The batcher's latency histogram is lifetime, not per-interval; it
		// is reported only when this run put samples through the batcher.
		m["serve.batcher.latency_p50_ms"] = after.stats[0].Models[0].Batcher.Latency.P50MS
	}
	if ops > 0 {
		m["serve.cache.evictions_per_op"] = evictions / ops
		m["serve.coalesced_per_op"] = coalesced / ops
		m["serve.shed_per_op"] = shed / ops
		m["shard.forwards_per_op"] = forwards / ops
		m["shard.local_fallbacks_per_op"] = fallbacks / ops
		m["proc.cpu_ms_per_op"] = float64(cpu) / float64(time.Millisecond) / ops
	}
}

// traceRun is the traced run of any workload: the workload's own loop with
// a client span per operation in alternate rounds and the children's
// counters read at its boundaries, then the layer replay. It reports every
// per-layer metric and writes bench/out/trace-<workload>.json.
func (e *env) traceRun(ctx context.Context, w workload, seed int64, p plan) (report, error) {
	tp := tracePlan(p)
	tr := &tracer{}
	rep := report{metrics: map[string]float64{}}
	var err error
	warmP50US := 0.0 // advise_warm's wire p50; 0 on the other workloads
	if w.setup == nil {
		err = traceTrain(w, seed, tp, tr, &rep)
	} else {
		warmP50US, err = e.traceServing(ctx, w, seed, tp, tr, &rep)
	}
	if err != nil {
		return report{}, err
	}

	layers := measureLayers(e, seed, p, tr)
	for name, v := range layers.m {
		rep.metrics[name] = v
	}
	rep.attempted += layers.attempted
	rep.failed += layers.failed
	if rep.firstErr == nil {
		rep.firstErr = layers.firstErr
	}
	if warmP50US > 0 {
		// What the wire adds to the handler's own hit time.
		rep.metrics["serve.http_overhead_us"] = warmP50US - rep.metrics["serve.hit.handler_us"]
	}

	spans := tr.snapshot()
	rows := layerTable(spans)
	path := filepath.Join(e.outDir, "trace-"+w.name+".json")
	if err := writeTrace(path, w.name, seed, spans, rows); err != nil {
		return report{}, err
	}
	rep.notes = append(rep.notes,
		fmt.Sprintf("cold request, median: mirrored from public functions %.2f ms, the in-process serve.Server's handler %.2f ms (separate passes over the same requests)",
			layers.replayRequestMS, layers.serverColdMS),
		fmt.Sprintf("%d spans written to %s", len(spans), path), "", "layer table (self time = duration minus what child spans cover):")
	for _, row := range rows {
		rep.notes = append(rep.notes, fmt.Sprintf("  %-22s n=%-6d total %10.1f ms  self %10.1f ms  median %9.1f us",
			row.Name, row.Count, row.TotalUS/1000, row.SelfUS/1000, row.MedianUS))
	}
	rep.notes = append(rep.notes, "")
	return rep, nil
}

// traceServing is the loop half of a serving workload's traced run. It
// returns the loop's p50 in µs when the workload is the single-child hit
// path (advise_warm), which the caller prices against the handler's own
// time once the replay has measured that.
func (e *env) traceServing(ctx context.Context, w workload, seed int64, p plan, tr *tracer, rep *report) (warmP50US float64, err error) {
	sv, spec, _, setupOps, err := e.setUp(ctx, w.setup, seed, p)
	if err != nil {
		return 0, err
	}
	defer sv.stop()
	spec.traced = oddRounds
	before, err := readCounters(ctx, sv)
	if err != nil {
		return 0, err
	}
	load := runLoad(ctx, spec)
	after, err := readCounters(ctx, sv)
	if err != nil {
		return 0, err
	}
	for _, s := range load.spans {
		tr.add(s)
	}
	counterMetrics(before, after, float64(load.attempted-load.failed), rep.metrics)
	perRound := make([]float64, len(load.rounds))
	for r, lat := range load.rounds {
		perRound[r] = float64(len(lat))
	}
	rep.metrics["trace.overhead_share"] = overheadShare(perRound)
	p50 := percentile(pooled(load.rounds), 0.5)

	switch {
	case sv.owner != "":
		// The price of the hop: the same keys, the same clients, sent
		// straight to their owner for one more round.
		direct := spec
		direct.target, direct.traced = sv.owner, nil
		direct.warmup, direct.rounds = p.round/2, 1
		d := runLoad(ctx, direct)
		rep.metrics["shard.hop_us"] = (p50 - percentile(pooled(d.rounds), 0.5)) * 1000
		load.attempted += d.attempted
		load.failed += d.failed
		if load.firstErr == nil {
			load.firstErr = d.firstErr
		}
	case sv.expect.cached:
		warmP50US = p50 * 1000
	}

	compared := e.reference(&load)
	rep.attempted += load.attempted + setupOps
	rep.failed += load.failed
	rep.firstErr = load.firstErr
	rep.notes = append(rep.notes,
		fmt.Sprintf("%s traced loop: seed=%d clients=%d rounds=%d×%s (odd rounds traced), per-round operations %v, op p50 %.4f ms, %d answers compared with the serial reference",
			w.name, seed, e.clients, p.rounds, p.round, perRound, p50, compared))
	return warmP50US, nil
}

// traceTrain is the loop half of offline_train's traced run.
func traceTrain(w workload, seed int64, p plan, tr *tracer, rep *report) error {
	before := selfUsage()
	res, err := runTrain(seed, p, tr, oddRounds)
	if err != nil {
		return err
	}
	after := selfUsage()
	rep.metrics["trace.overhead_share"] = overheadShare(res.rates)
	rep.metrics["gnn.train_val_rmse"] = res.valRMSE
	rep.metrics["proc.peak_rss_mb"] = after.peakRSSMB
	if done := res.attempted - res.failed; done > 0 {
		// Set-up and the warm-up round are inside the interval: the process
		// cannot read its own CPU clock per goroutine.
		rep.metrics["proc.cpu_ms_per_op"] = float64(after.cpu-before.cpu) / float64(time.Millisecond) / float64(done)
	}
	rep.attempted, rep.failed, rep.firstErr = res.attempted, res.failed, res.firstErr
	rep.notes = append(rep.notes, fmt.Sprintf("%s traced loop: seed=%d rounds=%d×%d epochs (odd rounds traced), epochs/s per round %.4v",
		w.name, seed, p.trainRounds, p.trainEpochs, res.rates))
	return nil
}

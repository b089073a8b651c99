// Command bench is the repository's benchmark: four long workloads over the
// advise pipeline (a running cmd/serve, cold and warm), the ring hop (two
// cmd/serve children) and offline training (in-process), each reporting the
// same four end-to-end metrics, plus a separate traced run that replays
// seeded inputs through every layer's public functions. BENCHMARK.json at
// the repository root declares it; README.md in this directory is the
// glossary.
//
//	bash bench/run.sh --workload advise_cold --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --workload advise_cold --seed 1 --seconds 15 --trace 1
//	bash bench/run.sh -aa 10          # A/A calibration over ten seeds
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, metrics. Exit status is non-zero when any operation failed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

// defaultSeconds is BENCHMARK.json's run_seconds: fifteen 1 s rounds. The
// issue's 30 s windows do not fit the driver's time cap (92 runs and two
// builds in 3420 s), so every window is scaled by one half — the smallest
// the issue allows — instead of dropping a workload.
const defaultSeconds = 15

// workload is one of the four traffic mixes.
type workload struct {
	name string
	why  string
	// tailQ is the workload's fixed tail percentile: the highest that keeps
	// well over ten samples beyond it at defaultSeconds and repeats within a
	// tenth (see README.md for the sample counts).
	tailQ float64
	// clients is the closed-loop client count per CPU the load generator
	// uses (of at most two CPUs), 0 for offline_train. One per CPU keeps
	// every advise_cold request in an evaluation slot. advise_warm takes two:
	// with one, a hit-path server idles between a client's requests and
	// throughput follows the scheduler instead of the code. ring_forward is
	// the other way round — three processes on two cores are oversubscribed
	// by four clients and its p50 ranged 14 % over six interleaved runs
	// against 8 % with two.
	clients int
	setup   setupFunc // nil for offline_train
}

var workloads = []workload{
	{
		name:  "advise_cold",
		why:   "every request a never-seen binding: the whole pipeline (variants, cparse, paragraph, encode, batcher, engine, rank) and the caches' write/evict path",
		tailQ: 0.95, clients: 1,
		setup: setupCold,
	},
	{
		name:  "advise_warm",
		why:   "136 pre-filled keys drawn uniformly, every answer cached: isolates HTTP decode, key hashing, cache read and re-marshalling; engine changes must leave it flat",
		tailQ: 0.95, clients: 2,
		setup: setupWarm,
	},
	{
		name:  "ring_forward",
		why:   "two-member ring, clients send only keys the other member owns: the warm hit path plus ring lookup and one proxy hop; only forwarder or membership changes move it",
		tailQ: 0.95, clients: 1,
		setup: setupRing,
	},
	{
		name:  "offline_train",
		why:   "dataset collect+prepare then gnn.Model.Train epochs in-process: tape, backward and Adam, the other use of gnn/tensor/nn; an inference-only gain must leave it flat",
		tailQ: 0.80,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef names one reported metric.
type metricDef struct {
	name, unit, better string
	floor              float64 // end-to-end only: the regression bound's floor
}

// endToEnd is what a user of the system waits for, the same four names on
// every workload. floor is the issue's regression limit for the metric; the
// A/A calibration (-aa) widens a bound to twice the spread it observes, up to
// boundCap and never past it.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", floor: 0.15},
	{name: "ops_per_s", unit: "1/s", better: "higher", floor: 0.10},
	{name: "op_p50_ms", unit: "ms", better: "lower", floor: 0.10},
	{name: "op_tail_ms", unit: "ms", better: "lower", floor: 0.15},
}

// perLayer is every single-layer metric the traced run reports, on every
// workload; one that a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{name: "variants.generate_us", unit: "us", better: "lower"},
	{name: "clex.tokenize_us", unit: "us", better: "lower"},
	{name: "cparse.parse_us", unit: "us", better: "lower"},
	{name: "paragraph.build_us", unit: "us", better: "lower"},
	{name: "gnn.encode_us", unit: "us", better: "lower"},
	{name: "paragraph.nodes_per_graph", unit: "count", better: "lower"},
	{name: "paragraph.edges_per_graph", unit: "count", better: "lower"},
	{name: "analysis.kernel_us", unit: "us", better: "lower"},
	{name: "sim.simulate_us", unit: "us", better: "lower"},
	{name: "dataset.collect_us_per_point", unit: "us", better: "lower"},
	{name: "dataset.prepare_us_per_point", unit: "us", better: "lower"},
	{name: "cluster.retries_per_job", unit: "1/op", better: "lower"},
	{name: "gnn.predict_us", unit: "us", better: "lower"},
	{name: "gnn.predict_batch16_us_per_sample", unit: "us", better: "lower"},
	{name: "gnn.predict_allocs", unit: "1/op", better: "lower"},
	{name: "advisor.advise_cpu_ms", unit: "ms", better: "lower"},
	{name: "advisor.grid_points_per_op", unit: "count", better: "lower"},
	{name: "serve.batcher.call_us", unit: "us", better: "lower"},
	{name: "serve.batcher.wait_share", unit: "share", better: "lower"},
	{name: "serve.batcher.mean_batch", unit: "count", better: "higher"},
	{name: "serve.batcher.latency_p50_ms", unit: "ms", better: "lower"},
	{name: "serve.cache.get_ns", unit: "ns", better: "lower"},
	{name: "serve.cache.add_ns", unit: "ns", better: "lower"},
	{name: "serve.cache.hit_share", unit: "share", better: "higher"},
	{name: "serve.cache.evictions_per_op", unit: "1/op", better: "lower"},
	{name: "serve.encode_cache.hit_share", unit: "share", better: "higher"},
	{name: "serve.coalesced_per_op", unit: "1/op", better: "higher"},
	{name: "serve.shed_per_op", unit: "1/op", better: "lower"},
	{name: "serve.cache.zipf_hit_share", unit: "share", better: "higher"},
	{name: "serve.hit.handler_us", unit: "us", better: "lower"},
	{name: "serve.hit.allocs_per_op", unit: "1/op", better: "lower"},
	{name: "serve.hit.response_bytes", unit: "B", better: "lower"},
	{name: "serve.http_overhead_us", unit: "us", better: "lower"},
	{name: "serve.snapshot_restore_ms", unit: "ms", better: "lower"},
	{name: "registry.save_ms", unit: "ms", better: "lower"},
	{name: "registry.open_ms", unit: "ms", better: "lower"},
	{name: "shard.ring.owners_ns", unit: "ns", better: "lower"},
	{name: "shard.hop_us", unit: "us", better: "lower"},
	{name: "shard.forwards_per_op", unit: "1/op", better: "lower"},
	{name: "shard.local_fallbacks_per_op", unit: "1/op", better: "lower"},
	{name: "gnn.train_step_us", unit: "us", better: "lower"},
	{name: "gnn.eval_us_per_sample", unit: "us", better: "lower"},
	{name: "nn.adam_step_us", unit: "us", better: "lower"},
	{name: "tensor.matmul_node_proj_ns", unit: "ns", better: "lower"},
	{name: "gnn.train_val_rmse", unit: "rmse", better: "lower"},
	{name: "proc.cpu_ms_per_op", unit: "ms", better: "lower"},
	{name: "proc.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "attrib.cold_unexplained_share", unit: "share", better: "lower"},
	{name: "trace.overhead_share", unit: "share", better: "lower"},
}

// report is one run's outcome: the numbers, the operation counts, and the
// human-readable lines printed above the result line.
type report struct {
	metrics   map[string]float64
	attempted int
	failed    int
	firstErr  error
	notes     []string
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes every metric of defs by name and unit, then the result line.
func (r report) print(w io.Writer, defs []metricDef) error {
	line := resultLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, note := range r.notes {
		fmt.Fprintln(w, note)
	}
	for _, d := range defs {
		v := r.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Fprintf(w, "%-36s %14.6g %s\n", d.name, v, d.unit)
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}

// runOne runs one workload once, timed or traced.
func runOne(ctx context.Context, w workload, seed int64, p plan, traced bool) (report, error) {
	e, err := newEnv(w.clients * loadCPUs())
	if err != nil {
		return report{}, err
	}
	defer e.close()
	switch {
	case traced:
		return e.traceRun(ctx, w, seed, p)
	case w.setup == nil:
		return timedTrain(w, seed, p)
	default:
		return e.timedServing(ctx, w, seed, p)
	}
}

// loadCPUs is how many CPUs the load is sized for: the box's, at most two.
func loadCPUs() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// timedServing is the untraced run of a serving workload.
func (e *env) timedServing(ctx context.Context, w workload, seed int64, p plan) (report, error) {
	res, err := e.runServing(ctx, w.setup, seed, p)
	if err != nil {
		return report{}, err
	}
	counts := make([]int, len(res.load.rounds))
	for r, l := range res.load.rounds {
		counts[r] = len(l)
	}
	kept := steadyHalf(res.load.rounds)
	lat := pooled(kept)
	return report{
		metrics: map[string]float64{
			"setup_s":    median(res.setupS),
			"ops_per_s":  float64(len(lat)) / (float64(len(kept)) * p.round.Seconds()),
			"op_p50_ms":  percentile(lat, 0.5),
			"op_tail_ms": percentile(lat, w.tailQ),
		},
		attempted: res.load.attempted, failed: res.load.failed, firstErr: res.load.firstErr,
		notes: []string{
			fmt.Sprintf("%s seed=%d clients=%d warmup=%s rounds=%d×%s set-ups=%d", w.name, seed, e.clients, p.warmup, p.rounds, p.round, len(res.setupS)),
			fmt.Sprintf("per-round operations: %v; measured over the %d rounds with the most", counts, len(kept)),
			fmt.Sprintf("latency ms: p50 %.4f p90 %.4f p95 %.4f p99 %.4f", percentile(lat, 0.5), percentile(lat, 0.9), percentile(lat, 0.95), percentile(lat, 0.99)),
			fmt.Sprintf("op_tail_ms is p%g of %d samples, %d beyond it; %d answers compared with the serial reference",
				w.tailQ*100, len(lat), samplesBeyond(len(lat), w.tailQ), res.refCompared),
		},
	}, nil
}

// timedTrain is the untraced run of offline_train.
func timedTrain(w workload, seed int64, p plan) (report, error) {
	res, err := runTrain(seed, p, nil, nil)
	if err != nil {
		return report{}, err
	}
	return report{
		metrics: map[string]float64{
			"setup_s":    median(res.setupS),
			"ops_per_s":  median(res.rates),
			"op_p50_ms":  percentile(res.epochMS, 0.5),
			"op_tail_ms": percentile(res.epochMS, w.tailQ),
		},
		attempted: res.attempted, failed: res.failed, firstErr: res.firstErr,
		notes: []string{
			fmt.Sprintf("%s seed=%d rounds=%d×%d epochs set-ups=%d final val RMSE %.4f", w.name, seed, p.trainRounds, p.trainEpochs, len(res.setupS), res.valRMSE),
			fmt.Sprintf("op_tail_ms is p%g of %d samples, %d beyond it", w.tailQ*100, len(res.epochMS), samplesBeyond(len(res.epochMS), w.tailQ)),
		},
	}, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: advise_cold, advise_warm, ring_forward or offline_train")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Int("seconds", defaultSeconds, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = the traced run (per-layer metrics), 0 = the timed run (end-to-end metrics)")
	quick := fs.Bool("quick", false, "smoke-test size: 1 s warm-up, 2×1 s rounds, 2×3 epochs")
	aa := fs.Int("aa", 0, "A/A calibration: run every workload this many times (seeds seed..seed+n-1), report spreads, write bounds into BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	p := newPlan(*seconds, *quick)

	if *aa > 0 {
		if err := runAA(ctx, stdout, *aa, *seed, p, !*quick); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown -workload %q\n", *name)
		fs.Usage()
		return 2
	}
	rep, err := runOne(ctx, w, *seed, p, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	if err := rep.print(stdout, defs); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if rep.failed > 0 {
		fmt.Fprintf(stderr, "bench: %d of %d operations failed; first: %v\n", rep.failed, rep.attempted, rep.firstErr)
		return 1
	}
	return 0
}

// manifestPath is BENCHMARK.json at the checkout root.
func manifestPath(root string) string { return filepath.Join(root, "BENCHMARK.json") }

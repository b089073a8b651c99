package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// benchData is one parsed `go test -bench` run: the CPU line and every
// observed value per (benchmark, unit), in output order.
type benchData struct {
	CPU     string
	Samples map[string][]float64 // "name|unit" → values across -count reps
}

// comparison binds one tracked benchmark metric to its key in a
// BENCH_INFERENCE.json results object.
type comparison struct {
	Bench string // benchmark name as printed, minus the -GOMAXPROCS suffix
	Unit  string
	Key   string // results key in the baseline entry
}

// comparisons is the gate's tracked set. GNNForward and engine-single
// measure the same operation (one fused engine forward) from two harnesses;
// both gate against the recorded engine single-sample time. The grid-48
// rows are one PredictBatch over the 48-point matmul V100 grid (family
// evaluation); unbatched-48 is one Predict per point over the same samples,
// so a full pass that got slower cannot hide behind the family gain.
var comparisons = []comparison{
	{"BenchmarkPredictFastPath/tape-single", "ns/op", "tape_single_ns_op"},
	{"BenchmarkPredictFastPath/engine-single", "ns/op", "engine_single_ns_op"},
	{"BenchmarkGNNForward", "ns/op", "engine_single_ns_op"},
	{"BenchmarkPredictFastPath/engine32-single", "ns/op", "engine32_single_ns_op"},
	{"BenchmarkPredictFastPath/tape-grid-48", "ns/sample", "tape_grid48_ns_sample"},
	{"BenchmarkPredictFastPath/engine-grid-48", "ns/sample", "engine_grid48_ns_sample"},
	{"BenchmarkPredictFastPath/engine32-grid-48", "ns/sample", "engine32_grid48_ns_sample"},
	{"BenchmarkPredictFastPath/engine-unbatched-48", "ns/sample", "engine_unbatched48_ns_sample"},
	{"BenchmarkPredictFastPath/engine32-unbatched-48", "ns/sample", "engine32_unbatched48_ns_sample"},
}

// parseBench reads raw `go test -bench` output. Each benchmark result line
// looks like
//
//	BenchmarkGNNForward-4   6788   488010 ns/op   30 B/op   0 allocs/op
//
// with value/unit pairs after the iteration count; custom metrics
// (ReportMetric, e.g. ns/sample) appear as extra pairs. The trailing
// -GOMAXPROCS suffix is stripped so names are stable across runners.
func parseBench(r io.Reader) (*benchData, error) {
	data := &benchData{Samples: map[string][]float64{}}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if cpu, ok := strings.CutPrefix(line, "cpu:"); ok {
			data.CPU = strings.TrimSpace(cpu)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 {
			continue
		}
		// Benchmarks print a -GOMAXPROCS suffix on multi-proc runs and none
		// on single-proc ones, and names like "engine-grid-48" end in a
		// number themselves — so record each sample under both the raw name
		// and the suffix-stripped one; lookups hit whichever matches the
		// tracked name.
		names := []string{f[0]}
		if i := strings.LastIndex(f[0], "-"); i > 0 {
			if _, err := strconv.Atoi(f[0][i+1:]); err == nil {
				names = append(names, f[0][:i])
			}
		}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				break // benchmark lines end at the first non-numeric pair
			}
			for _, name := range names {
				data.Samples[name+"|"+f[i+1]] = append(data.Samples[name+"|"+f[i+1]], v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(data.Samples) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found")
	}
	return data, nil
}

// baselineEntry mirrors one element of BENCH_INFERENCE.json's benchmarks
// array; unknown fields are ignored so the schema can grow.
type baselineEntry struct {
	Date    string             `json:"date"`
	PR      int                `json:"pr"`
	CPU     string             `json:"cpu"`
	Results map[string]float64 `json:"results"`
}

type baselineFile struct {
	Benchmarks []baselineEntry `json:"benchmarks"`
}

// loadBaseline returns the latest (last appended) entry of the trajectory.
func loadBaseline(path string) (*baselineEntry, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f baselineFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no baseline entries", path)
	}
	return &f.Benchmarks[len(f.Benchmarks)-1], nil
}

// median returns the middle value (mean of the middle two for even counts).
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// gate compares the run against the baseline entry and returns a
// human-readable report plus the pass verdict.
func gate(data *benchData, base *baselineEntry, threshold float64) (string, bool) {
	var b strings.Builder
	pass := true
	fmt.Fprintf(&b, "benchgate: baseline PR %d (%s) on %q, threshold %.0f%%\n",
		base.PR, base.Date, base.CPU, threshold*100)

	if data.CPU == base.CPU && base.CPU != "" {
		fmt.Fprintf(&b, "mode: absolute (benchmark CPU matches baseline)\n")
		compared := 0
		for _, c := range comparisons {
			vals := data.Samples[c.Bench+"|"+c.Unit]
			want, ok := base.Results[c.Key]
			if len(vals) == 0 || !ok || want <= 0 {
				continue
			}
			med := median(vals)
			delta := med/want - 1
			verdict := "ok"
			if delta > threshold {
				verdict = "REGRESSION"
				pass = false
			}
			fmt.Fprintf(&b, "  %-46s median %12.0f %s vs baseline %12.0f (%+.1f%%) %s\n",
				c.Bench, med, c.Unit, want, delta*100, verdict)
			compared++
		}
		if compared == 0 {
			fmt.Fprintf(&b, "  no tracked benchmarks found in input\n")
			pass = false
		}
	} else {
		fmt.Fprintf(&b, "mode: speedup ratio (benchmark CPU %q differs from baseline)\n", data.CPU)
		tape := data.Samples["BenchmarkPredictFastPath/tape-single|ns/op"]
		engine := data.Samples["BenchmarkPredictFastPath/engine-single|ns/op"]
		baseSpeedup := base.Results["single_speedup"]
		if len(tape) == 0 || len(engine) == 0 || baseSpeedup <= 0 {
			fmt.Fprintf(&b, "  missing tape/engine samples or baseline single_speedup; cannot gate\n")
			return b.String(), false
		}
		speedup := median(tape) / median(engine)
		verdict := "ok"
		if speedup < baseSpeedup*(1-threshold) {
			verdict = "REGRESSION"
			pass = false
		}
		fmt.Fprintf(&b, "  tape/engine speedup %.2fx vs baseline %.2fx %s\n", speedup, baseSpeedup, verdict)
	}

	if pass {
		fmt.Fprintf(&b, "verdict: PASS\n")
	} else {
		fmt.Fprintf(&b, "verdict: FAIL\n")
	}
	return b.String(), pass
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// manifestFile is BENCHMARK.json: exactly these keys, in this order.
type manifestFile struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestE2E      `json:"end_to_end"`
	PerLayer   []manifestLayer    `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestE2E struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifestLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// boundCap is the widest regression bound the driver accepts. A metric
// whose A/A spread asks for more is reported as unresolved on that machine:
// it needs a steadier estimator or a quieter host, not a wider bound.
const boundCap = 0.25

// boundSpreads is how many interquartile spreads wide a bound must be.
const boundSpreads = 2

// writeManifest writes the BENCHMARK.json this code defines. bounds maps an
// end-to-end metric to its calibrated bound; a metric absent from it gets
// its floor.
func writeManifest(w io.Writer, bounds map[string]float64) error {
	m := manifestFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
	}
	for _, wl := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{Name: wl.name, Why: wl.why})
	}
	for _, d := range endToEnd {
		bound := d.floor
		if b, ok := bounds[d.name]; ok {
			bound = b
		}
		m.EndToEnd = append(m.EndToEnd, manifestE2E{Name: d.name, Unit: d.unit, Better: d.better, Bound: bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestLayer{Name: d.name, Unit: d.unit, Better: d.better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// runAA is the A/A calibration: the whole benchmark n times on one commit,
// each time with another seed. It prints, per workload and end-to-end
// metric, the median, the quartiles, their distance as a share of the
// median (the spread the driver judges) and (max−min)/median, then derives
// each metric's bound as max(floor, boundSpreads × the widest spread over
// workloads), capped at boundCap, and, when writeBounds is set, rewrites
// BENCHMARK.json with them. The output is markdown; bench/AA.md holds
// committed copies.
func runAA(ctx context.Context, w io.Writer, n int, seed int64, p plan, writeBounds bool) error {
	values := map[string]map[string][]float64{} // workload → metric → one value per run
	fmt.Fprintf(w, "# A/A calibration: %d runs per workload, seeds %d..%d\n\n", n, seed, seed+int64(n)-1)
	for _, wl := range workloads {
		values[wl.name] = map[string][]float64{}
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			rep, err := runOne(ctx, wl, seed+int64(i), p, false)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl.name, seed+int64(i), err)
			}
			if rep.failed > 0 {
				return fmt.Errorf("%s seed %d: %d of %d operations failed: %v", wl.name, seed+int64(i), rep.failed, rep.attempted, rep.firstErr)
			}
			for _, d := range endToEnd {
				values[wl.name][d.name] = append(values[wl.name][d.name], rep.metrics[d.name])
			}
		}
	}

	widest := map[string]float64{}
	fmt.Fprintln(w, "| workload | metric | unit | median | q1 | q3 | (q3−q1)/median | (max−min)/median |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			xs := values[wl.name][d.name]
			q1, q2, q3 := quartiles(xs)
			s := sortedCopy(xs)
			sp := spread(xs)
			if sp > widest[d.name] {
				widest[d.name] = sp
			}
			fmt.Fprintf(w, "| %s | %s | %s | %.5g | %.5g | %.5g | %.2f%% | %.2f%% |\n",
				wl.name, d.name, d.unit, q2, q1, q3, 100*sp, 100*(s[len(s)-1]-s[0])/q2)
		}
	}

	fmt.Fprintln(w, "\nEvery run, in seed order:")
	fmt.Fprintln(w)
	for _, wl := range workloads {
		for _, d := range endToEnd {
			fmt.Fprintf(w, "- %s %s: %.5g\n", wl.name, d.name, values[wl.name][d.name])
		}
	}

	bounds := map[string]float64{}
	fmt.Fprintf(w, "\n| metric | floor | widest spread | bound = min(%.2f, max(floor, %d × spread)) |\n", boundCap, boundSpreads)
	fmt.Fprintln(w, "|---|---|---|---|")
	var over []string
	for _, d := range endToEnd {
		b := d.floor
		if boundSpreads*widest[d.name] > b {
			b = boundSpreads * widest[d.name]
		}
		if b > boundCap {
			over = append(over, d.name)
			b = boundCap
		}
		bounds[d.name] = b
		fmt.Fprintf(w, "| %s | %.2f | %.2f%% | %.3f |\n", d.name, d.floor, 100*widest[d.name], b)
	}
	for _, name := range over {
		fmt.Fprintf(w, "\n**%s** is unresolved on this machine: %d × its widest spread is over the %.0f %% the driver accepts.\n", name, boundSpreads, 100*boundCap)
	}
	if !writeBounds {
		return nil
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	f, err := os.Create(manifestPath(root))
	if err != nil {
		return err
	}
	if err := writeManifest(f, bounds); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

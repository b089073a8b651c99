package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: paragraph
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkGNNForward-4      	    6788	    488010 ns/op	      30 B/op	       0 allocs/op
BenchmarkGNNForward-4      	    6500	    501000 ns/op	      30 B/op	       0 allocs/op
BenchmarkGNNForward-4      	    6900	    479000 ns/op	      30 B/op	       0 allocs/op
BenchmarkPredictFastPath/tape-single-4         	     810	   2647854 ns/op	 3016627 B/op	    1401 allocs/op
BenchmarkPredictFastPath/engine-single-4       	    4215	    490776 ns/op	       0 B/op	       0 allocs/op
BenchmarkPredictFastPath/tape-grid-48-4        	      26	 144031368 ns/op	   3000652 ns/sample	126995760 B/op	   67266 allocs/op
BenchmarkPredictFastPath/engine-grid-48-4      	     128	   4608000 ns/op	     96000 ns/sample	     386 B/op	       1 allocs/op
BenchmarkPredictFastPath/engine-unbatched-48-4 	     128	  22885920 ns/op	    476790 ns/sample	       0 B/op	       0 allocs/op
PASS
`

func sampleBaseline() *baselineEntry {
	return &baselineEntry{
		Date: "2026-08-08", PR: 7,
		CPU: "Intel(R) Xeon(R) Processor @ 2.10GHz",
		Results: map[string]float64{
			"tape_single_ns_op":            2650000,
			"engine_single_ns_op":          490000,
			"tape_grid48_ns_sample":        3000000,
			"engine_grid48_ns_sample":      100000,
			"engine_unbatched48_ns_sample": 480000,
			"single_speedup":               5.4,
		},
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("single median = %v", got)
	}
}

func TestParseBench(t *testing.T) {
	data, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if data.CPU != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Errorf("cpu = %q", data.CPU)
	}
	if got := data.Samples["BenchmarkGNNForward|ns/op"]; len(got) != 3 {
		t.Errorf("GNNForward samples = %v, want 3 reps", got)
	}
	// The -GOMAXPROCS suffix is stripped; custom ns/sample metrics are kept
	// separately from ns/op.
	if got := data.Samples["BenchmarkPredictFastPath/engine-grid-48|ns/sample"]; len(got) != 1 || got[0] != 96000 {
		t.Errorf("engine-grid-48 ns/sample = %v", got)
	}
	if got := data.Samples["BenchmarkPredictFastPath/engine-single|ns/op"]; len(got) != 1 || got[0] != 490776 {
		t.Errorf("engine-single ns/op = %v", got)
	}

	if _, err := parseBench(strings.NewReader("no benchmarks here\n")); err == nil {
		t.Error("empty input did not error")
	}
}

// TestParseBenchNoSuffix covers single-proc runs, where Go prints no
// -GOMAXPROCS suffix: a name whose own tail is numeric (engine-grid-48)
// must still be found under its printed name.
func TestParseBenchNoSuffix(t *testing.T) {
	out := `cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkPredictFastPath/engine-grid-48         	      78	   4544640 ns/op	     94680 ns/sample	     386 B/op	       1 allocs/op
`
	data, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	got := data.Samples["BenchmarkPredictFastPath/engine-grid-48|ns/sample"]
	if len(got) != 1 || got[0] != 94680 {
		t.Errorf("no-suffix engine-grid-48 ns/sample = %v", got)
	}
}

func TestGatePassesWithinThreshold(t *testing.T) {
	data, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	report, ok := gate(data, sampleBaseline(), 0.20)
	if !ok {
		t.Fatalf("gate failed on in-threshold run:\n%s", report)
	}
	if !strings.Contains(report, "mode: absolute") || !strings.Contains(report, "verdict: PASS") {
		t.Errorf("report:\n%s", report)
	}
}

// TestGateFailsOnSyntheticRegression is the acceptance check for the gate
// itself: a >20% slowdown of the single pass, of the grid call, or of the
// per-point loop over the grid must each flip the verdict.
func TestGateFailsOnSyntheticRegression(t *testing.T) {
	for name, edit := range map[string][2]string{
		"engine-single +33%":       {"4215	    490776 ns/op", "3000	    650000 ns/op"},
		"engine-grid-48 +35%":      {"     96000 ns/sample", "    130000 ns/sample"},
		"engine-unbatched-48 +34%": {"    476790 ns/sample", "    640000 ns/sample"},
	} {
		slower := strings.ReplaceAll(sampleOutput, edit[0], edit[1])
		if slower == sampleOutput {
			t.Fatalf("%s: fixture edit matched nothing", name)
		}
		data, err := parseBench(strings.NewReader(slower))
		if err != nil {
			t.Fatal(err)
		}
		report, ok := gate(data, sampleBaseline(), 0.20)
		if ok {
			t.Fatalf("gate passed %s:\n%s", name, report)
		}
		if !strings.Contains(report, "REGRESSION") || !strings.Contains(report, "verdict: FAIL") {
			t.Errorf("%s: report:\n%s", name, report)
		}
	}
}

func TestGateIgnoresFasterRuns(t *testing.T) {
	faster := strings.ReplaceAll(sampleOutput,
		"4215	    490776 ns/op",
		"9000	    240000 ns/op")
	data, err := parseBench(strings.NewReader(faster))
	if err != nil {
		t.Fatal(err)
	}
	if report, ok := gate(data, sampleBaseline(), 0.20); !ok {
		t.Fatalf("gate failed an improvement:\n%s", report)
	}
}

func TestGateCrossCPUUsesSpeedupRatio(t *testing.T) {
	base := sampleBaseline()
	base.CPU = "Apple M2"
	data, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	// Run speedup is 2647854/490776 ≈ 5.40 vs baseline 5.4: pass.
	report, ok := gate(data, base, 0.20)
	if !ok {
		t.Fatalf("ratio mode failed a matching speedup:\n%s", report)
	}
	if !strings.Contains(report, "mode: speedup ratio") {
		t.Errorf("report:\n%s", report)
	}

	// Engine 2× slower halves the speedup: fail even cross-hardware.
	slower := strings.ReplaceAll(sampleOutput,
		"4215	    490776 ns/op",
		"2000	    990000 ns/op")
	data, err = parseBench(strings.NewReader(slower))
	if err != nil {
		t.Fatal(err)
	}
	if report, ok := gate(data, base, 0.20); ok {
		t.Fatalf("ratio mode passed a halved speedup:\n%s", report)
	}
}

func TestGateMissingDataFails(t *testing.T) {
	data, err := parseBench(strings.NewReader("BenchmarkUnrelated-4 10 5 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if report, ok := gate(data, sampleBaseline(), 0.20); ok {
		t.Fatalf("gate passed with no tracked benchmarks:\n%s", report)
	}
	base := sampleBaseline()
	base.CPU = "other"
	if report, ok := gate(data, base, 0.20); ok {
		t.Fatalf("ratio mode passed with no tape/engine samples:\n%s", report)
	}
}

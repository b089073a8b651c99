package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// runQuick runs the benchmark's entry point in -quick mode and returns the
// decoded result line.
func runQuick(t *testing.T, args ...string) resultLine {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append([]string{"-quick", "-seed", "11"}, args...), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("bench %v exited %d\nstdout:\n%s\nstderr:\n%s", args, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res resultLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("bench %v: %+v", args, res)
	}
	return res
}

// The smoke test builds cmd/serve and drives every workload end to end at
// the -quick size (about half a minute in all), then one traced run.
func TestQuickRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("starts cmd/serve children; skipped under -short")
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			res := runQuick(t, "-workload", w.name, "-trace", "0")
			if len(res.Metrics) != len(endToEnd) {
				t.Fatalf("timed run reported %d metrics, want %d", len(res.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit || m.Value <= 0 {
					t.Errorf("%s = %+v, want a positive value in %s", d.name, m, d.unit)
				}
			}
		})
	}
	t.Run("traced", func(t *testing.T) {
		res := runQuick(t, "-workload", "ring_forward", "-trace", "1")
		if len(res.Metrics) != len(perLayer) {
			t.Fatalf("traced run reported %d metrics, want %d", len(res.Metrics), len(perLayer))
		}
		for _, d := range perLayer {
			if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("%s missing or in the wrong unit: %+v", d.name, m)
			}
		}
		for _, name := range []string{"shard.local_fallbacks_per_op", "serve.shed_per_op"} {
			if got := res.Metrics[name].Value; got != 0 {
				t.Errorf("%s = %v on ring_forward, want 0", name, got)
			}
		}
		// Every operation crosses the ring once — its own hop, or, when two
		// clients ask the receiver for one key at the same instant, the hop
		// the receiver's singleflight shares between them.
		hops := res.Metrics["shard.forwards_per_op"].Value + res.Metrics["serve.coalesced_per_op"].Value
		if hops < 1-1e-9 || hops > 1+1e-9 {
			t.Errorf("forwards_per_op + coalesced_per_op = %v on ring_forward, want 1", hops)
		}
	})
}

func TestUnknownWorkloadIsRefused(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, stdout.String())
	}
}

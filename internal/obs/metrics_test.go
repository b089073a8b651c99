package obs

import (
	"bytes"
	"math"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// expositionLine matches one sample line of the text format: a metric name
// with optional label set and a float value. Comment lines are matched
// separately.
var expositionLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)

func checkExposition(t *testing.T, text string) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Errorf("unparseable exposition line: %q", line)
		}
	}
}

func TestCounterExposition(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("serve_requests_total", "Requests by endpoint.", L("endpoint", "advise"))
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Fatalf("counter value = %d, want 3", c.Value())
	}
	var b bytes.Buffer
	reg.WritePrometheus(&b)
	out := b.String()
	checkExposition(t, out)
	for _, want := range []string{
		"# HELP serve_requests_total Requests by endpoint.",
		"# TYPE serve_requests_total counter",
		`serve_requests_total{endpoint="advise"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestFamiliesAndSeriesSorted(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("zzz_total", "", nil)
	reg.Counter("aaa_total", "", L("k", "b"))
	reg.Counter("aaa_total", "", L("k", "a"))
	var b bytes.Buffer
	reg.WritePrometheus(&b)
	out := b.String()
	ia, iz := strings.Index(out, "aaa_total"), strings.Index(out, "zzz_total")
	if ia < 0 || iz < 0 || ia > iz {
		t.Fatalf("families not sorted:\n%s", out)
	}
	if strings.Index(out, `k="a"`) > strings.Index(out, `k="b"`) {
		t.Fatalf("series not sorted by labels:\n%s", out)
	}
}

func TestDuplicateSeriesPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "", L("a", "1"))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate series did not panic")
		}
	}()
	reg.Counter("x_total", "", L("a", "1"))
}

func TestTypeConflictPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("type conflict did not panic")
		}
	}()
	reg.GaugeFunc("x_total", "", L("a", "1"), func() float64 { return 0 })
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("esc_total", "", L("peer", `he said "hi"\`+"\n"))
	var b bytes.Buffer
	reg.WritePrometheus(&b)
	want := `esc_total{peer="he said \"hi\"\\\n"} 0`
	if !strings.Contains(b.String(), want) {
		t.Fatalf("escaping wrong, want %q in:\n%s", want, b.String())
	}
}

func TestGaugeFunc(t *testing.T) {
	reg := NewRegistry()
	v := 7.5
	reg.GaugeFunc("pool_in_flight", "Evaluations in flight.", nil, func() float64 { return v })
	var b bytes.Buffer
	reg.WritePrometheus(&b)
	if !strings.Contains(b.String(), "pool_in_flight 7.5") {
		t.Fatalf("gauge missing:\n%s", b.String())
	}
	checkExposition(t, b.String())
}

func TestHistogramExposition(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", "Latency.", L("model", "default"), []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	var b bytes.Buffer
	reg.WritePrometheus(&b)
	out := b.String()
	checkExposition(t, out)
	for _, want := range []string{
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{model="default",le="0.1"} 1`,
		`lat_seconds_bucket{model="default",le="1"} 3`,
		`lat_seconds_bucket{model="default",le="10"} 4`,
		`lat_seconds_bucket{model="default",le="+Inf"} 5`,
		`lat_seconds_sum{model="default"} 56.05`,
		`lat_seconds_count{model="default"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-56.05) > 1e-9 {
		t.Errorf("Sum = %g, want 56.05", h.Sum())
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram quantile = %g, want 0", q)
	}
	// 10 observations uniform in (1,2]: interpolation stays inside the bucket.
	for i := 0; i < 10; i++ {
		h.Observe(1.5)
	}
	p50 := h.Quantile(0.5)
	if p50 < 1 || p50 > 2 {
		t.Errorf("p50 = %g, want within (1,2]", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < p50 || p99 > 2 {
		t.Errorf("p99 = %g, want in [p50,2]", p99)
	}
	// An observation beyond the last bound saturates at that bound.
	h.Observe(100)
	if q := h.Quantile(1); q != 4 {
		t.Errorf("overflow quantile = %g, want 4 (last finite bound)", q)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(DefLatencyBuckets)
	var wg sync.WaitGroup
	const goroutines, per = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if h.Count() != goroutines*per {
		t.Fatalf("Count = %d, want %d", h.Count(), goroutines*per)
	}
	if math.Abs(h.Sum()-goroutines*per*0.001) > 1e-6 {
		t.Fatalf("Sum = %g, want %g", h.Sum(), goroutines*per*0.001)
	}
}

func TestCollectFunc(t *testing.T) {
	reg := NewRegistry()
	reg.CollectFunc("fw_total", "Forwards by peer.", "counter", func(emit func(Labels, float64)) {
		emit(L("peer", "b"), 2)
		emit(L("peer", "a"), 1)
	})
	var b bytes.Buffer
	reg.WritePrometheus(&b)
	out := b.String()
	checkExposition(t, out)
	ia, ib := strings.Index(out, `peer="a"`), strings.Index(out, `peer="b"`)
	if ia < 0 || ib < 0 || ia > ib {
		t.Fatalf("collect series missing or unsorted:\n%s", out)
	}
}

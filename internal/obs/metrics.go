// Package obs is the serving tier's observability layer: request-scoped
// traces with named spans (trace.go), and a small metrics registry —
// counters, gauges, log-scaled histograms — exposed in the Prometheus text
// exposition format (this file). It is deliberately dependency-free: the
// instruments are plain atomics so they can sit on hot paths, and the
// exposition writer speaks just enough of the text format (version 0.0.4)
// for any Prometheus-compatible scraper.
//
// Two registration styles coexist. Instruments (Counter, Histogram) are the
// source of truth for what they count and are read lock-free at scrape
// time, whether the registry created them or a component that owns them
// registered them. Scrape-time functions (CounterFunc, GaugeFunc,
// CollectFunc) adapt state that already lives elsewhere — cache stats, pool
// occupancy, cluster forward tables — so /metrics cannot drift from
// /v1/stats.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name="value" pair of a metric series.
type Label struct{ Name, Value string }

// Labels is an ordered label set. Series identity is the rendered form, so
// two registrations with the same pairs in a different order are distinct;
// callers should keep a family's label order consistent.
type Labels []Label

// L builds a label set from alternating name, value strings.
func L(nv ...string) Labels {
	if len(nv)%2 != 0 {
		panic("obs: L needs name/value pairs")
	}
	ls := make(Labels, 0, len(nv)/2)
	for i := 0; i < len(nv); i += 2 {
		ls = append(ls, Label{Name: nv[i], Value: nv[i+1]})
	}
	return ls
}

// String renders the set as `a="b",c="d"` with label-value escaping.
func (ls Labels) String() string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func escapeHelp(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// Counter is a monotonically increasing integer, safe for concurrent use.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// DefLatencyBuckets are the registry's fixed log-scaled latency buckets in
// seconds: 1–2.5–5 steps per decade from 25µs to 10s. Wide enough for a
// cache hit (~µs) and a cold advise grid (~seconds) on one axis, few
// enough that a histogram stays a cache line of counters.
var DefLatencyBuckets = []float64{
	25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10,
}

// BatchSizeBuckets bucket a model call's sample count (power-of-two steps
// to well past the largest default advise grid, 48).
var BatchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// Histogram counts observations into fixed upper-bound buckets (le
// semantics, as Prometheus histograms) plus a running sum and count.
// Observe is lock-free; snapshots are read bucket-by-bucket and are
// consistent enough for monitoring. Quantile estimates by linear
// interpolation inside the target bucket, the same model
// histogram_quantile() applies server-side.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last = +Inf overflow
	sum    atomic.Uint64   // float64 bits
	count  atomic.Uint64
}

// NewHistogram returns a histogram over the given ascending upper bounds.
// The +Inf bucket is implicit. The histogram is standalone — register it
// with Registry.RegisterHistogram to expose it, or keep it private and
// read Count/Sum/Quantile directly.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		s := math.Float64frombits(old) + v
		if h.sum.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-quantile (0 < q <= 1) from the bucket counts by
// linear interpolation within the target bucket. Observations beyond the
// last finite bound are reported as that bound (the estimate saturates,
// as histogram_quantile does). Returns 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	counts := make([]uint64, len(h.counts))
	var total uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next {
			if i >= len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			return lo + (h.bounds[i]-lo)*(rank-cum)/float64(c)
		}
		cum = next
	}
	return h.bounds[len(h.bounds)-1]
}

// family is one exposition family: a name, HELP/TYPE header, and its
// series. Series render themselves; the family sorts them for a
// deterministic scrape.
type family struct {
	name, help, typ string
	series          []metricSeries
	seen            map[string]bool // rendered label sets, for dedup
	collect         func(emit func(Labels, float64))
}

type metricSeries struct {
	labels string
	write  func(w io.Writer, name, labels string)
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. All registration methods are safe for concurrent use
// but meant for startup; they panic on conflicting re-registration (same
// name with a different type or a duplicate label set), which is a
// programming error.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{families: map[string]*family{}} }

func (r *Registry) family(name, help, typ string) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, seen: map[string]bool{}}
		r.families[name] = f
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: %s re-registered as %s (was %s)", name, typ, f.typ))
	}
	return f
}

func (f *family) add(labels Labels, write func(w io.Writer, name, labels string)) {
	rendered := labels.String()
	if f.collect != nil {
		panic(fmt.Sprintf("obs: %s already has a collect function", f.name))
	}
	if f.seen[rendered] {
		panic(fmt.Sprintf("obs: duplicate series %s{%s}", f.name, rendered))
	}
	f.seen[rendered] = true
	f.series = append(f.series, metricSeries{labels: rendered, write: write})
}

// Counter creates, registers and returns a counter series.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	c := &Counter{}
	r.RegisterCounter(name, help, labels, c)
	return c
}

// RegisterCounter registers an existing counter as one series of the named
// family — the counterpart of RegisterHistogram for a counter another
// component owns (e.g. a batcher's cancellations) that must also serve
// /v1/stats.
func (r *Registry) RegisterCounter(name, help string, labels Labels, c *Counter) {
	r.CounterFunc(name, help, labels, func() float64 { return float64(c.Value()) })
}

// CounterFunc registers a counter series whose value is read at scrape
// time. The function must report a monotonically non-decreasing value.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() float64) {
	r.registerFunc(name, help, "counter", labels, fn)
}

// GaugeFunc registers a gauge series whose value is read at scrape time.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.registerFunc(name, help, "gauge", labels, fn)
}

func (r *Registry) registerFunc(name, help, typ string, labels Labels, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.family(name, help, typ).add(labels, func(w io.Writer, famName, rendered string) {
		writeSample(w, famName, "", rendered, "", fn())
	})
}

// Histogram creates, registers and returns a histogram series.
func (r *Registry) Histogram(name, help string, labels Labels, bounds []float64) *Histogram {
	h := NewHistogram(bounds)
	r.RegisterHistogram(name, help, labels, h)
	return h
}

// RegisterHistogram registers an existing histogram as one series of the
// named family — the hook for instruments owned by another component
// (e.g. a batcher's latency histogram) that must also serve /v1/stats.
func (r *Registry) RegisterHistogram(name, help string, labels Labels, h *Histogram) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.family(name, help, "histogram").add(labels, func(w io.Writer, famName, rendered string) {
		var cum uint64
		for i, bound := range h.bounds {
			cum += h.counts[i].Load()
			writeSample(w, famName, "_bucket", rendered,
				`le="`+formatFloat(bound)+`"`, float64(cum))
		}
		writeSample(w, famName, "_bucket", rendered, `le="+Inf"`, float64(h.Count()))
		writeSample(w, famName, "_sum", rendered, "", h.Sum())
		writeSample(w, famName, "_count", rendered, "", float64(h.Count()))
	})
}

// CollectFunc registers a family whose series are discovered at scrape
// time — for label sets that only exist once traffic shapes them, like
// per-peer cluster forward counters. typ must be "counter" or "gauge".
// The family admits no other registrations.
func (r *Registry) CollectFunc(name, help, typ string, collect func(emit func(Labels, float64))) {
	if typ != "counter" && typ != "gauge" {
		panic("obs: CollectFunc type must be counter or gauge")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, typ)
	if f.collect != nil || len(f.series) > 0 {
		panic(fmt.Sprintf("obs: %s already registered", name))
	}
	f.collect = collect
}

func writeSample(w io.Writer, name, suffix, labels, extra string, v float64) {
	switch {
	case labels == "" && extra == "":
		fmt.Fprintf(w, "%s%s %s\n", name, suffix, formatFloat(v))
	case labels == "":
		fmt.Fprintf(w, "%s%s{%s} %s\n", name, suffix, extra, formatFloat(v))
	case extra == "":
		fmt.Fprintf(w, "%s%s{%s} %s\n", name, suffix, labels, formatFloat(v))
	default:
		fmt.Fprintf(w, "%s%s{%s,%s} %s\n", name, suffix, labels, extra, formatFloat(v))
	}
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every family in text exposition format, families
// and series in deterministic (sorted) order.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	r.mu.Unlock()

	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		if f.collect != nil {
			type dyn struct {
				labels string
				v      float64
			}
			var rows []dyn
			f.collect(func(ls Labels, v float64) {
				rows = append(rows, dyn{labels: ls.String(), v: v})
			})
			sort.Slice(rows, func(i, j int) bool { return rows[i].labels < rows[j].labels })
			for _, row := range rows {
				writeSample(w, f.name, "", row.labels, "", row.v)
			}
			continue
		}
		series := append([]metricSeries(nil), f.series...)
		sort.Slice(series, func(i, j int) bool { return series[i].labels < series[j].labels })
		for _, s := range series {
			s.write(w, f.name, s.labels)
		}
	}
}

// Handler returns an http.Handler serving the registry in text exposition
// format (the GET /metrics endpoint).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"paragraph/internal/hw"
	"paragraph/internal/obs"
	"paragraph/internal/shard"
)

// metricsLine matches one sample line of the Prometheus text exposition
// format (comment lines are matched separately).
var metricsLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)

// scrapeMetrics GETs /metrics and validates every line of the exposition.
func scrapeMetrics(t *testing.T, s *Server) string {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: %d %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q, want text exposition 0.0.4", ct)
	}
	out := rec.Body.String()
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !metricsLine.MatchString(line) {
			t.Errorf("unparseable exposition line: %q", line)
		}
	}
	return out
}

func TestMetricsExposition(t *testing.T) {
	s := newTestServer(t)
	// One cold advise (evaluates through admission and batcher) and one warm
	// repeat (response-cache hit) give every request-path series a value.
	do(t, s, http.MethodPost, "/v1/advise", adviseReq("NVIDIA V100 (GPU)"), nil)
	do(t, s, http.MethodPost, "/v1/advise", adviseReq("NVIDIA V100 (GPU)"), nil)

	out := scrapeMetrics(t, s)
	for _, want := range []string{
		"# TYPE serve_requests_total counter",
		`serve_requests_total{endpoint="advise"} 2`,
		`serve_request_duration_seconds_bucket{endpoint="advise",le="+Inf"} 2`,
		`serve_request_duration_seconds_count{endpoint="advise"} 2`,
		"serve_advise_cache_hits_total 1",
		`serve_cache_entries{cache="advise"} 1`,
		`serve_cache_hits_total{cache="advise"} 1`,
		"serve_admit_admitted_total 1",
		"# TYPE serve_batcher_latency_seconds histogram",
		`serve_batcher_latency_seconds_count{platform="NVIDIA V100 (GPU)",model="default"}`,
		`serve_batch_size_bucket{platform="NVIDIA V100 (GPU)",model="default",le="+Inf"}`,
		`serve_batcher_batches_total{platform="NVIDIA V100 (GPU)",model="default"} 1`,
		`serve_advise_eval_seconds_count{platform="NVIDIA V100 (GPU)",model="default"} 1`,
		`serve_model_advise_total{platform="NVIDIA V100 (GPU)",model="default"} 2`,
		"serve_uptime_seconds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Traces started are the requests to traced endpoints: the two advises
	// counted above, each retained in the ring.
	if got := len(s.tracer.Recent(0)); got != 2 {
		t.Errorf("tracer retained %d traces, want one per advise request (2)", got)
	}
	// A non-cluster server must not advertise cluster series.
	if strings.Contains(out, "serve_cluster_") {
		t.Error("cluster series exposed outside cluster mode")
	}
}

func TestMetricsRejectsPost(t *testing.T) {
	s := newTestServer(t)
	if rec := do(t, s, http.MethodPost, "/metrics", nil, nil); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics = %d, want 405", rec.Code)
	}
}

// doTraced posts one request carrying an explicit trace id and returns the
// recorder.
func doTraced(t *testing.T, s *Server, path string, body any, traceID string) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, &buf)
	req.Header.Set(obs.TraceHeader, traceID)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

func TestTraceCapturesRequestSpans(t *testing.T) {
	s := newTestServer(t)
	rec := doTraced(t, s, "/v1/advise", adviseReq("NVIDIA V100 (GPU)"), "trace-advise-1")
	if rec.Code != http.StatusOK {
		t.Fatalf("advise: %d %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(obs.TraceHeader); got != "trace-advise-1" {
		t.Errorf("response trace header = %q, want the ingress id echoed", got)
	}

	var ft obs.FinishedTrace
	if r := do(t, s, http.MethodGet, "/v1/trace?id=trace-advise-1", nil, &ft); r.Code != http.StatusOK {
		t.Fatalf("GET /v1/trace?id=: %d %s", r.Code, r.Body.String())
	}
	if ft.Endpoint != "advise" || ft.Status != http.StatusOK {
		t.Errorf("trace = endpoint %q status %d, want advise/200", ft.Endpoint, ft.Status)
	}
	count, detail := map[string]int{}, map[string]string{}
	for _, sp := range ft.Spans {
		count[sp.Name]++
		detail[sp.Name] = sp.Detail
		if sp.DurUS < 0 {
			t.Errorf("span %q has negative duration %d", sp.Name, sp.DurUS)
		}
	}
	// A cold advise runs the full path: decode, response-cache lookup, pool
	// admission, then one span per phase — the front end over the whole grid
	// (4 GPU kinds × 2 teams × 1 threads), the single model call, the rank.
	for _, want := range []string{"decode", "cache_lookup", "pool_wait", "encode", "predict", "rank"} {
		if count[want] != 1 {
			t.Errorf("trace has %d %q spans, want 1 (got %v)", count[want], want, count)
		}
	}
	if count["queue_wait"] != 0 {
		t.Error("trace still carries a queue_wait span; there is no queue")
	}
	if detail["encode"] != "points=8" || detail["predict"] != "batch=8" {
		t.Errorf("encode/predict details = %q/%q, want points=8/batch=8", detail["encode"], detail["predict"])
	}
}

func TestTraceListingAndErrors(t *testing.T) {
	s := newTestServer(t)
	doTraced(t, s, "/v1/advise", adviseReq("NVIDIA V100 (GPU)"), "list-a")
	doTraced(t, s, "/v1/advise", pointReq(), "list-b")

	var list TraceListResponse
	do(t, s, http.MethodGet, "/v1/trace", nil, &list)
	if len(list.Traces) != 2 {
		t.Fatalf("retained %d traces, want 2", len(list.Traces))
	}
	if list.Traces[0].ID != "list-b" || list.Traces[1].ID != "list-a" {
		t.Errorf("traces not newest-first: %q then %q", list.Traces[0].ID, list.Traces[1].ID)
	}

	var one TraceListResponse
	do(t, s, http.MethodGet, "/v1/trace?n=1", nil, &one)
	if len(one.Traces) != 1 || one.Traces[0].ID != "list-b" {
		t.Errorf("?n=1 returned %d traces, want the newest only", len(one.Traces))
	}

	if rec := do(t, s, http.MethodGet, "/v1/trace?n=zero", nil, nil); rec.Code != http.StatusBadRequest {
		t.Errorf("bad ?n= returned %d, want 400", rec.Code)
	}
	if rec := do(t, s, http.MethodGet, "/v1/trace?id=never-seen", nil, nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown ?id= returned %d, want 404", rec.Code)
	}
}

func TestErrorAccountingByEndpointAndClass(t *testing.T) {
	s := newTestServer(t)
	// Two distinct 4xx failures against /v1/advise: a malformed body and a
	// wrong method.
	req := httptest.NewRequest(http.MethodPost, "/v1/advise", strings.NewReader("{not json"))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed advise = %d, want 400", rec.Code)
	}
	if r := do(t, s, http.MethodGet, "/v1/advise", nil, nil); r.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET advise = %d, want 405", r.Code)
	}

	out := scrapeMetrics(t, s)
	if want := `serve_errors_total{endpoint="advise",code="4xx"} 2`; !strings.Contains(out, want) {
		t.Errorf("exposition missing %q", want)
	}

	var st Stats
	do(t, s, http.MethodGet, "/v1/stats", nil, &st)
	if st.Requests.Errors != 2 {
		t.Errorf("stats errors = %d, want 2", st.Requests.Errors)
	}
	if st.Requests.Advise != 2 {
		t.Errorf("stats advise requests = %d, want 2 (failed requests count as received)", st.Requests.Advise)
	}
}

// surfaceServer is the same-surface goldens' server: the oracle backends
// in cluster mode as a one-member ring at RF 2 with its background loops
// off (nothing to reach, nothing timed), after a fixed request script —
// three advises (two cold, one repeat that hits the cache, one arriving
// forwarded by a peer) and one gossip exchange.
func surfaceServer(t *testing.T) *Server {
	t.Helper()
	s, err := NewServer([]Backend{
		{Machine: hw.Power9(), Model: oracleModel{}, Prep: testPrep()},
		{Machine: hw.V100(), Model: oracleModel{}, Prep: testPrep()},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	const self = "http://127.0.0.1:1"
	if err := s.EnableCluster(ClusterConfig{Self: self, Peers: []string{self}, Replication: 2, Heartbeat: -1}); err != nil {
		t.Fatal(err)
	}
	if rec := do(t, s, http.MethodPost, "/v1/advise", adviseReq("NVIDIA V100 (GPU)"), nil); rec.Code != http.StatusOK {
		t.Fatalf("advise: %d %s", rec.Code, rec.Body.String())
	}
	do(t, s, http.MethodPost, "/v1/advise", adviseReq("NVIDIA V100 (GPU)"), nil)
	forwarded := adviseReq("NVIDIA V100 (GPU)")
	forwarded.Bindings = map[string]float64{"n": 512}
	if rec := doH(t, s, http.MethodPost, "/v1/advise", forwarded,
		map[string]string{shard.ForwardedByHeader: self}); rec.Code != http.StatusOK {
		t.Fatalf("forwarded advise: %d %s", rec.Code, rec.Body.String())
	}
	if rec := do(t, s, http.MethodPost, "/v1/cluster/gossip", shard.View{From: self}, nil); rec.Code != http.StatusOK {
		t.Fatalf("gossip: %d %s", rec.Code, rec.Body.String())
	}
	return s
}

// metricSeries parses an exposition into its series: "TYPE name{labels}"
// per series (a histogram once, without its le buckets) and the value of
// every counter and gauge sample keyed by "name{labels}".
func metricSeries(out string) (series []string, values map[string]float64) {
	values = map[string]float64{}
	seen := map[string]bool{}
	types := map[string]string{}
	le := regexp.MustCompile(`,?le="[^"]*"`)
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
			types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		id := line[:i]
		name, labels, _ := strings.Cut(id, "{")
		typ := types[name]
		if typ == "" { // a histogram's _bucket, _sum or _count sample
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(name, suffix); base != name && types[base] == "histogram" {
					name, typ = base, "histogram"
				}
			}
			labels = strings.TrimPrefix(le.ReplaceAllString("{"+labels, "{"), "{")
		} else if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			values[id] = v
		}
		key := typ + " " + name
		if labels = strings.TrimSuffix(labels, "}"); labels != "" {
			key += "{" + labels + "}"
		}
		if !seen[key] {
			seen[key] = true
			series = append(series, key)
		}
	}
	sort.Strings(series)
	return series, values
}

// jsonKeyPaths lists every object key path in a JSON document, arrays
// folded to "[]", sorted.
func jsonKeyPaths(t *testing.T, raw []byte) []string {
	t.Helper()
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, child := range v {
				seen[prefix+"."+k] = true
				walk(prefix+"."+k, child)
			}
		case []any:
			for _, child := range v {
				walk(prefix+"[]", child)
			}
		}
	}
	walk("", doc)
	paths := make([]string, 0, len(seen))
	for p := range seen {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// surfaceText renders the surface TestServingSurfaceGolden pins.
func surfaceText(t *testing.T, s *Server) string {
	t.Helper()
	series, _ := metricSeries(scrapeMetrics(t, s))
	var b strings.Builder
	b.WriteString("# /metrics series\n")
	for _, l := range series {
		b.WriteString(l + "\n")
	}
	for _, path := range []string{"/v1/stats", "/v1/ring"} {
		rec := do(t, s, http.MethodGet, path, nil, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d", path, rec.Code)
		}
		b.WriteString("# " + path + " keys\n")
		for _, p := range jsonKeyPaths(t, rec.Body.Bytes()) {
			b.WriteString(p + "\n")
		}
	}
	return b.String()
}

// TestServingSurfaceGolden pins what the serving tier exposes — the
// /metrics series with their label sets and types, and the key paths of
// /v1/stats and /v1/ring — after surfaceServer's script, against
// testdata/surface.golden. A series or key that appears, vanishes or
// changes type is a change to the operator-facing surface and must be
// made deliberately, by rewriting the golden.
func TestServingSurfaceGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "surface.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := surfaceText(t, surfaceServer(t)); got != string(want) {
		gotLines, wantLines := map[string]bool{}, map[string]bool{}
		for _, l := range strings.Split(got, "\n") {
			gotLines[l] = true
		}
		for _, l := range strings.Split(string(want), "\n") {
			wantLines[l] = true
			if !gotLines[l] {
				t.Errorf("surface lost %q", l)
			}
		}
		for _, l := range strings.Split(got, "\n") {
			if !wantLines[l] {
				t.Errorf("surface gained %q", l)
			}
		}
	}
}

// TestServingCountsAgree reads every count surfaceServer's script moves,
// and the cluster counts it leaves at zero, from /metrics
// and from the JSON views, and requires both to equal the script's value.
func TestServingCountsAgree(t *testing.T) {
	s := surfaceServer(t)
	_, metrics := metricSeries(scrapeMetrics(t, s))
	st := getStats(t, s)
	var v100 ModelStats
	for _, m := range st.Models {
		if m.Platform == "NVIDIA V100 (GPU)" {
			v100 = m
		}
	}
	cl := st.Cluster
	model := `{platform="NVIDIA V100 (GPU)",model="default"}`
	for _, c := range []struct {
		series string
		json   uint64 // the JSON reading
		want   uint64
	}{
		{`serve_requests_total{endpoint="advise"}`, st.Requests.Advise, 3},
		{`serve_requests_total{endpoint="cluster"}`, st.Requests.Cluster, 1},
		{"serve_advise_cache_hits_total", st.AdviseCacheHits, 1},
		{"serve_coalesced_total", st.Coalesced, 0},
		{`serve_cache_hits_total{cache="advise"}`, st.AdviseCache.Hits, 1},
		{`serve_cache_misses_total{cache="advise"}`, st.AdviseCache.Misses, 2},
		{"serve_admit_admitted_total", st.Admit.Admitted, 2},
		{"serve_model_advise_total" + model, v100.Advise, 3},
		{"serve_batcher_batches_total" + model, v100.Batcher.Batches, 2},
		{"serve_batcher_cancelled_total" + model, v100.Batcher.Cancelled, 0},
		{"serve_cluster_forwarded_in_total", cl.ForwardedIn, 1},
		{"serve_cluster_local_fallbacks_total", cl.LocalFallbacks, 0},
		{"serve_cluster_replica_hits_total", cl.Replication.ReplicaHits, 0},
		{"serve_cluster_replication_writes_total", cl.Replication.Writes, 0},
		{"serve_cluster_replication_drops_total", cl.Replication.WriteDrops, 0},
		{"serve_cluster_replicated_in_total", cl.Replication.ReplicatedIn, 0},
		{"serve_cluster_gossip_sent_total", cl.Membership.GossipSent, 0},
		{"serve_cluster_gossip_received_total", cl.Membership.GossipReceived, 1},
		{"serve_cluster_gossip_errors_total", cl.Membership.GossipErrors, 0},
		{"serve_cluster_evictions_total", cl.Membership.Evictions, 0},
		{"serve_cluster_refutations_total", cl.Membership.Refutations, 0},
		{"serve_cluster_pruned_clients_total", cl.Membership.PrunedClients, 0},
		{"serve_cluster_outbox_delivered_total", cl.AntiEntropy.Delivered, 0},
		{"serve_cluster_outbox_errors_total", cl.AntiEntropy.Errors, 0},
	} {
		m, ok := metrics[c.series]
		if !ok {
			t.Errorf("%s: not in /metrics", c.series)
			continue
		}
		if m != float64(c.want) || c.json != c.want {
			t.Errorf("%s: /metrics %v, JSON %d, want %d", c.series, m, c.json, c.want)
		}
	}
}

package serve

import (
	"fmt"
	"sync"
	"time"

	"paragraph/internal/admit"
	"paragraph/internal/obs"
)

// serveEndpoints are the per-endpoint metric label values, one per mux
// route. /v1/stats reads most of them back for its requests section;
// metrics and trace exist only in the exposition (adding them to the
// stats JSON would break its byte-compatibility contract).
var serveEndpoints = []string{
	"advise", "healthz", "stats", "models", "ring",
	"replicate", "cluster", "metrics", "trace",
}

// endpointInstruments are one endpoint's request counter and latency
// histogram, incremented by the instrument middleware.
type endpointInstruments struct {
	requests *obs.Counter
	duration *obs.Histogram
}

// serveMetrics is the server's metric surface: every series /metrics
// exposes, built on the same instruments /v1/stats snapshots — one source
// of truth, two renderings. Every count the serving tier keeps itself is
// one lock-free instrument: created here (request and cluster
// counters) or owned by a model version and registered here (its batcher's
// and traffic instruments). Components with their own state (cache, fair
// queue, forwarder, membership, tracer) are read at scrape time.
type serveMetrics struct {
	reg       *obs.Registry
	endpoints map[string]*endpointInstruments

	coalesced *obs.Counter

	// shed counts admission rejections by reason (serve_shed_total).
	// Pre-registered for every reason so the series exist at zero —
	// operators alert on rate() over them, which needs a baseline.
	shed map[admit.Reason]*obs.Counter

	// rejected counts requests refused at the edge for what they ask, by
	// reason (serve_rejected_total); pre-registered like shed.
	rejected map[string]*obs.Counter

	mu     sync.Mutex
	errors map[string]*obs.Counter // endpoint "\x00" status class
}

// newServeMetrics builds the registry over a fully assembled server (its
// cache, fair queue and per-model batchers must exist; cluster series join
// later via registerCluster).
func newServeMetrics(s *Server) *serveMetrics {
	m := &serveMetrics{
		reg:       obs.NewRegistry(),
		endpoints: map[string]*endpointInstruments{},
		shed:      map[admit.Reason]*obs.Counter{},
		rejected:  map[string]*obs.Counter{},
		errors:    map[string]*obs.Counter{},
	}
	for _, reason := range admit.Reasons() {
		m.shed[reason] = m.reg.Counter("serve_shed_total",
			"Requests rejected by admission control, by reason.",
			obs.L("reason", string(reason)))
	}
	for _, reason := range []string{"grid_points", "space_value"} {
		m.rejected[reason] = m.reg.Counter("serve_rejected_total",
			"Requests refused for their content (400), by reason.",
			obs.L("reason", reason))
	}
	for _, ep := range serveEndpoints {
		m.endpoints[ep] = &endpointInstruments{
			requests: m.reg.Counter("serve_requests_total",
				"Requests received, by endpoint.", obs.L("endpoint", ep)),
			duration: m.reg.Histogram("serve_request_duration_seconds",
				"End-to-end request latency, by endpoint.", obs.L("endpoint", ep),
				obs.DefLatencyBuckets),
		}
	}
	m.reg.CounterFunc("serve_advise_cache_hits_total",
		"Advise responses answered from the response cache.", nil,
		func() float64 { return float64(s.adviseCache.Stats().Hits) })
	m.coalesced = m.reg.Counter("serve_coalesced_total",
		"Responses that shared an identical concurrent request's evaluation (singleflight).", nil)

	m.reg.GaugeFunc("serve_uptime_seconds", "Seconds since the server started.", nil,
		func() float64 { return time.Since(s.start).Seconds() })

	// The cache label predates there being one cache; it stays so existing
	// queries keep matching.
	labels := obs.L("cache", "advise")
	m.reg.GaugeFunc("serve_cache_entries", "Entries resident, by cache.", labels,
		func() float64 { return float64(s.adviseCache.Stats().Entries) })
	m.reg.CounterFunc("serve_cache_hits_total", "Cache hits, by cache.", labels,
		func() float64 { return float64(s.adviseCache.Stats().Hits) })
	m.reg.CounterFunc("serve_cache_misses_total", "Cache misses, by cache.", labels,
		func() float64 { return float64(s.adviseCache.Stats().Misses) })
	m.reg.CounterFunc("serve_cache_evictions_total", "LRU evictions, by cache.", labels,
		func() float64 { return float64(s.adviseCache.Stats().Evictions) })

	// Admission fair queue: aggregate depth and per-client lanes. Lanes
	// come and go with traffic, so the per-client series are discovered at
	// scrape time (CollectFunc) rather than pre-registered.
	m.reg.GaugeFunc("serve_admit_queued", "Requests waiting in the admission fair queue.", nil,
		func() float64 { return float64(s.admit.Counters().Queued) })
	m.reg.GaugeFunc("serve_admit_running", "Admitted evaluations currently holding a slot.", nil,
		func() float64 { return float64(s.admit.Counters().Running) })
	m.reg.GaugeFunc("serve_admit_lanes", "Per-client lanes currently tracked by the fair queue.", nil,
		func() float64 { return float64(s.admit.Counters().Lanes) })
	m.reg.CounterFunc("serve_admit_admitted_total", "Requests granted an evaluation slot.", nil,
		func() float64 { return float64(s.admit.Counters().Admitted) })
	m.reg.CollectFunc("serve_admit_lane_depth",
		"Requests queued per client lane.", "gauge",
		func(emit func(obs.Labels, float64)) {
			for _, l := range s.admit.Stats().LaneStats {
				emit(obs.L("client", l.Client), float64(l.Queued))
			}
		})
	m.reg.CollectFunc("serve_admit_client_admitted_total",
		"Requests admitted, by client.", "counter",
		func(emit func(obs.Labels, float64)) {
			for _, c := range s.admit.Stats().Clients {
				emit(obs.L("client", c.Client), float64(c.Admitted))
			}
		})
	m.reg.CollectFunc("serve_admit_client_shed_total",
		"Requests shed at the fair queue, by client.", "counter",
		func(emit func(obs.Labels, float64)) {
			for _, c := range s.admit.Stats().Clients {
				emit(obs.L("client", c.Client), float64(c.Shed))
			}
		})

	for machine, be := range s.backends {
		for name, ms := range be.models {
			m.registerModel(machine, name, ms)
		}
	}

	m.reg.CounterFunc("serve_traces_slow_total", "Traces logged as slow requests.", nil,
		func() float64 { return float64(s.tracer.SlowCount()) })
	return m
}

// registerModel adds one model version's series, once per version at
// boot.
func (m *serveMetrics) registerModel(machine, name string, ms *modelState) {
	labels := obs.L("platform", machine, "model", name)
	m.reg.RegisterHistogram("serve_batcher_latency_seconds",
		"Per-prediction model latency (a call's duration over its batch size), by model.",
		labels, ms.batcher.latency)
	m.reg.RegisterHistogram("serve_batch_size",
		"Samples per model call (an advise grid is one call), by model.", labels, ms.batcher.sizes)
	m.reg.CounterFunc("serve_batcher_batches_total",
		"Model calls, by model.", labels,
		func() float64 { return float64(ms.batcher.sizes.Count()) })
	m.reg.RegisterCounter("serve_batcher_cancelled_total",
		"Model calls abandoned by their context before the engine ran, by model.", labels,
		ms.batcher.cancelled)
	m.reg.RegisterHistogram("serve_advise_eval_seconds",
		"Whole cold advise evaluations (front end, one model call, rank); the median is admission's advise cost. By model.",
		labels, ms.adviseEval)
	m.reg.RegisterCounter("serve_model_advise_total",
		"Advise responses computed or served, by model.", labels, ms.advise)
}

// registerCluster adds the cluster-mode series, creating c's counters (c
// must not be visible to handlers before it returns). Per-peer forward
// counters are discovered at scrape time (peers appear once traffic reaches
// them), hence CollectFunc rather than fixed series.
func (m *serveMetrics) registerCluster(c *cluster) {
	c.forwardedIn = m.reg.Counter("serve_cluster_forwarded_in_total",
		"Requests received already forwarded by a peer.", nil)
	c.fallbacks = m.reg.Counter("serve_cluster_local_fallbacks_total",
		"Requests served locally because every owner was unreachable.", nil)
	c.replicaHits = m.reg.Counter("serve_cluster_replica_hits_total",
		"Forwards answered by a replica after the primary owner failed.", nil)
	c.repWrites = m.reg.Counter("serve_cluster_replication_writes_total",
		"Write-throughs owed to replicas through the outbox.", nil)
	c.repDrops = m.reg.Counter("serve_cluster_replication_drops_total",
		"Write-throughs dropped because the outbox was full.", nil)
	c.replicatedIn = m.reg.Counter("serve_cluster_replicated_in_total",
		"Cache entries accepted via POST /v1/replicate.", nil)
	m.reg.GaugeFunc("serve_cluster_replication_queue_depth",
		"(peer, key) pairs waiting in the outbox.", nil,
		func() float64 { return float64(c.out.size()) })
	m.reg.CollectFunc("serve_cluster_forwards_total",
		"Requests this process forwarded and had answered, by peer.", "counter",
		func(emit func(obs.Labels, float64)) {
			for _, ps := range c.fwd.Stats() {
				emit(obs.L("peer", ps.Peer), float64(ps.Forwards))
			}
		})
	m.reg.CollectFunc("serve_cluster_forward_errors_total",
		"Failed forward attempts (peer unreachable), by peer.", "counter",
		func(emit func(obs.Labels, float64)) {
			for _, ps := range c.fwd.Stats() {
				emit(obs.L("peer", ps.Peer), float64(ps.Errors))
			}
		})

	// Elastic membership: the gossip/eviction surface and the
	// self-healing (outbox) counters.
	m.reg.GaugeFunc("serve_cluster_epoch",
		"Ring version; increments on every membership change.", nil,
		func() float64 { return float64(c.mem.Epoch()) })
	m.reg.GaugeFunc("serve_cluster_members",
		"Live members in the current ring.", nil,
		func() float64 {
			ring := c.ring()
			if ring == nil {
				return 0
			}
			return float64(len(ring.Members()))
		})
	m.reg.GaugeFunc("serve_cluster_joined",
		"1 once a gossip reply has listed this peer alive (always 1 without seeds).", nil,
		func() float64 {
			if c.joined.Load() {
				return 1
			}
			return 0
		})
	c.gossipOut = m.reg.Counter("serve_cluster_gossip_sent_total",
		"Gossip exchanges this peer initiated and completed.", nil)
	c.gossipIn = m.reg.Counter("serve_cluster_gossip_received_total",
		"Gossip exchanges answered.", nil)
	c.gossipErrs = m.reg.Counter("serve_cluster_gossip_errors_total",
		"Failed gossip exchanges.", nil)
	m.reg.CounterFunc("serve_cluster_evictions_total",
		"Members this peer declared dead after missed heartbeats.", nil,
		func() float64 { return float64(c.mem.Counters().Evictions) })
	m.reg.CounterFunc("serve_cluster_refutations_total",
		"Times this peer refuted its own death or departure.", nil,
		func() float64 { return float64(c.mem.Counters().Refutations) })
	c.pruned = m.reg.Counter("serve_cluster_pruned_clients_total",
		"Idle peer HTTP clients closed after members left the ring.", nil)
	c.outDelivered = m.reg.Counter("serve_cluster_outbox_delivered_total",
		"Cache entries the outbox handed to owners a write-through, ring change or drain owed them.", nil)
	c.outErrs = m.reg.Counter("serve_cluster_outbox_errors_total",
		"Outbox handoff batches that failed; their entries stay pending.", nil)
}

// errorCounter returns (creating on first use) the serve_errors_total
// series for one endpoint and status class ("4xx", "5xx"). Lazy because
// the full endpoint × class product would be mostly dead series.
func (m *serveMetrics) errorCounter(endpoint string, status int) *obs.Counter {
	class := fmt.Sprintf("%dxx", status/100)
	key := endpoint + "\x00" + class
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.errors[key]
	if !ok {
		c = m.reg.Counter("serve_errors_total",
			"Error responses, by endpoint and status class.",
			obs.L("endpoint", endpoint, "code", class))
		m.errors[key] = c
	}
	return c
}

// requests reads one endpoint's request count (the /v1/stats source).
func (m *serveMetrics) requests(endpoint string) uint64 {
	return m.endpoints[endpoint].requests.Value()
}

// totalErrors sums the per-endpoint-per-class error counters, preserving
// the /v1/stats requests.errors field's original "all errors" semantics.
func (m *serveMetrics) totalErrors() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n uint64
	for _, c := range m.errors {
		n += c.Value()
	}
	return n
}

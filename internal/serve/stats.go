package serve

import (
	"time"

	"paragraph/internal/admit"
)

// ModelStats is the per-model-version slice of /v1/stats: traffic routed to
// one (platform, version) pair and its batcher's counters.
type ModelStats struct {
	Platform     string       `json:"platform"`
	Name         string       `json:"name"`
	Default      bool         `json:"default"`
	Advise       uint64       `json:"advise"`
	LastUsedUnix int64        `json:"last_used_unix,omitempty"` // 0 = never
	Batcher      BatcherStats `json:"batcher"`
}

// Stats is the /v1/stats payload: a full snapshot of the service's cache,
// batching, admission, singleflight and traffic counters, plus the per-model
// breakdown. It is assembled from the same instruments /metrics exposes
// (internal/obs via metrics.go), so the two endpoints cannot drift; the
// JSON shape predates the metrics registry and only loses a field with the
// endpoint it counted.
type Stats struct {
	UptimeSeconds float64  `json:"uptime_seconds"`
	Machines      []string `json:"machines"`

	Requests struct {
		Advise  uint64 `json:"advise"`
		Healthz uint64 `json:"healthz"`
		Stats   uint64 `json:"stats"`
		Models  uint64 `json:"models"`
		Ring    uint64 `json:"ring"`
		// Replicate counts POST /v1/replicate arrivals (peer write-
		// throughs); omitted at zero so non-replicated tiers keep their
		// exact pre-replication stats payload.
		Replicate uint64 `json:"replicate,omitempty"`
		// Cluster counts /v1/cluster/* arrivals (gossip, and any unknown
		// path under the prefix);
		// omitted at zero outside cluster mode.
		Cluster uint64 `json:"cluster,omitempty"`
		Errors  uint64 `json:"errors"`
	} `json:"requests"`

	AdviseCacheHits uint64 `json:"advise_cache_hits"`
	// Coalesced counts requests answered by an identical concurrent
	// request's evaluation (singleflight) instead of their own.
	Coalesced   uint64     `json:"coalesced"`
	AdviseCache CacheStats `json:"advise_cache"`
	// EncodeCache is always zero: the encoded-graph cache is gone (no two
	// points of a grid share a graph, so it never hit). The field stays only
	// because the frozen bench/tracerun.go reads it; it goes with ROADMAP
	// item 4(d).
	EncodeCache CacheStats `json:"encode_cache"`

	Models []ModelStats `json:"models"`

	// Admit is the fair-queue admission view: per-client lanes, queue
	// depth, and shed counters (the overload-control surface).
	Admit admit.QueueStats `json:"admit"`
	// Shed breaks admission rejections down by reason, mirroring
	// serve_shed_total{reason} in /metrics.
	Shed map[string]uint64 `json:"shed"`

	// Cluster is the consistent-hash tier view (ring membership, ownership
	// fractions, per-peer forward/fallback counters); nil outside cluster
	// mode. GET /v1/ring serves the same payload on its own.
	Cluster *RingResponse `json:"cluster,omitempty"`
}

// snapshot assembles the stats payload from the server's live components.
func (s *Server) snapshot() Stats {
	st := Stats{UptimeSeconds: time.Since(s.start).Seconds()}
	st.Machines = s.machineNames()
	st.Requests.Advise = s.metrics.requests("advise")
	st.Requests.Healthz = s.metrics.requests("healthz")
	st.Requests.Stats = s.metrics.requests("stats")
	st.Requests.Models = s.metrics.requests("models")
	st.Requests.Ring = s.metrics.requests("ring")
	st.Requests.Replicate = s.metrics.requests("replicate")
	st.Requests.Cluster = s.metrics.requests("cluster")
	st.Requests.Errors = s.metrics.totalErrors()
	st.AdviseCache = s.adviseCache.Stats()
	st.AdviseCacheHits = st.AdviseCache.Hits
	st.Coalesced = s.metrics.coalesced.Value()
	for _, machine := range st.Machines {
		be := s.backends[machine]
		for _, name := range be.modelNames() {
			ms := be.models[name]
			st.Models = append(st.Models, ModelStats{
				Platform:     machine,
				Name:         name,
				Default:      name == be.defaultName,
				Advise:       ms.advise.Value(),
				LastUsedUnix: ms.lastUsed.Load(),
				Batcher:      ms.batcher.Stats(),
			})
		}
	}
	st.Admit = s.admit.Stats()
	st.Shed = make(map[string]uint64, len(admit.Reasons()))
	for _, reason := range admit.Reasons() {
		st.Shed[string(reason)] = s.metrics.shed[reason].Value()
	}
	if s.cluster != nil {
		ring := s.Ring()
		st.Cluster = &ring
	}
	return st
}

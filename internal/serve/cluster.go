package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"paragraph/internal/obs"
	"paragraph/internal/shard"
)

// Cluster mode: N serve processes share one consistent-hash ring over the
// content-addressed request keys (internal/shard), so every advise key
// has a deterministic owner list — the first `rf` distinct peers
// clockwise from the key's hash (Ring.Owners). Owners[0] is the primary:
// a request landing elsewhere is proxied to it, so the primary's cache and
// singleflight see all traffic for its keys and the tier's aggregate cache
// capacity scales with N instead of every peer re-earning every entry.
//
// With Replication > 1 the remaining owners are replicas: when the primary
// evaluates a miss it owes the finished entry to them, and its outbox
// (outbox.go) delivers it over POST /v1/replicate off the request path;
// when the primary is
// unreachable a forwarding peer tries the replicas in successor order
// before degrading to local evaluation. One peer death therefore costs a
// forwarding detour, never the recomputation of that peer's cache.
// Forwarding stays strictly best-effort: if every owner is unreachable the
// receiving peer serves the request locally (degraded — a duplicate
// evaluation, never a failure), and a loop-guard header caps any request
// at one forwarding hop even while peers' member lists disagree
// mid-rollout. docs/ARCHITECTURE.md walks the full state machine.

// ClusterConfig puts a Server into cluster mode. Self, Peers and Seeds are
// peer base URLs ("http://host:port").
type ClusterConfig struct {
	// Self is this process's base URL as the other peers reach it. It is
	// added to the member set if Peers omits it.
	Self string
	// Peers is a fixed member list the ring starts from, normally
	// including Self; cmd/serve leaves it empty, and in-process callers
	// use it to build a whole ring at once. Peers listed here but never
	// started are evicted by the failure detector like any other silent
	// member.
	Peers []string
	// Seeds are existing cluster members to join through: the server
	// starts as a ring of Peers (or of itself) and its gossip rounds
	// exchange views with every seed — the first at once, then one per
	// heartbeat — until a reply lists it alive.
	Seeds []string
	// Replication is how many ring successors own each key (the tier's
	// RF). 1 — or 0, the zero value — keeps the original single-owner
	// behavior with no replication traffic at all; values above the
	// current ring size are clamped to it at use time. Every peer must use
	// the same value.
	Replication int
	// Heartbeat is the gossip interval, and every tick also retries the
	// outbox (0 = 1s default; < 0 disables the background gossip loop,
	// seed joins included — tests drive membership by hand — while the
	// outbox flusher still runs). A silent member
	// turns suspect in /v1/ring health after 3 heartbeats and is declared
	// dead and dropped from the ring after 10 — a comfortable multiple, so
	// healthy peers never evict each other on jitter.
	Heartbeat time.Duration
}

// drainTimeout bounds a planned departure (DrainCluster).
const drainTimeout = 30 * time.Second

// cluster is the Server's live cluster state. The ring is no longer a
// fixed field: membership owns it and swaps in a new epoch-stamped ring on
// every join, departure or eviction — the request path reads the current
// snapshot through ring().
type cluster struct {
	self string
	mem  *shard.Membership
	fwd  *shard.Forwarder
	rf   int // configured replication factor, >= 1; clamped per-use by Owners

	seeds     []string
	heartbeat time.Duration
	out       outbox

	quit     chan struct{}
	bg       sync.WaitGroup
	stopOnce sync.Once
	joined   atomic.Bool // a gossip reply listed us alive (or no seeds were needed)
	draining atomic.Bool // a planned departure started

	// The cluster's counts, each one instrument: registerCluster
	// (metrics.go) creates them in the /metrics registry and Ring reads
	// them back for /v1/ring.
	forwardedIn  *obs.Counter // requests received already forwarded by a peer
	fallbacks    *obs.Counter // every owner unreachable, served locally instead
	replicaHits  *obs.Counter // forwards answered by a replica after the primary failed
	repWrites    *obs.Counter // write-throughs the outbox took, one per replica
	repDrops     *obs.Counter // write-throughs the full outbox refused
	replicatedIn *obs.Counter // cache entries accepted via POST /v1/replicate

	gossipIn   *obs.Counter // gossip exchanges received
	gossipOut  *obs.Counter // gossip exchanges sent and answered
	gossipErrs *obs.Counter // gossip sends that reached no peer
	pruned     *obs.Counter // peer clients dropped on ring rebuilds

	outDelivered *obs.Counter // cache entries the outbox delivered to peers
	outErrs      *obs.Counter // outbox batches that failed to encode or post
}

// ring returns the current ring snapshot — nil only after this peer
// departed a single-member cluster. Hold the returned pointer across
// related calls for a consistent view.
func (c *cluster) ring() *shard.Ring { return c.mem.Ring() }

// NormalizePeerURL validates a peer base URL and strips the trailing slash
// so ring membership comparison is exact. cmd/serve calls it during flag
// validation to reject bad -self/-seed before the expensive backend build;
// EnableCluster applies it again so programmatic callers get the same
// normalization, and a gossip view naming a peer in any other form is
// refused.
func NormalizePeerURL(raw string) (string, error) {
	raw = strings.TrimRight(strings.TrimSpace(raw), "/")
	u, err := url.Parse(raw)
	if err != nil {
		return "", fmt.Errorf("serve: peer URL %q: %w", raw, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("serve: peer URL %q must be http(s)://host:port", raw)
	}
	if u.Host == "" || u.Path != "" || u.RawQuery != "" {
		return "", fmt.Errorf("serve: peer URL %q must be a bare base URL", raw)
	}
	return raw, nil
}

// EnableCluster switches the server into cluster mode. Call it after
// NewServer and before serving traffic; a server without it behaves
// exactly as before (every request served locally, /v1/ring reports
// enabled=false).
func (s *Server) EnableCluster(cfg ClusterConfig) error {
	if s.cluster != nil {
		return fmt.Errorf("serve: cluster mode already enabled")
	}
	self, err := NormalizePeerURL(cfg.Self)
	if err != nil {
		return fmt.Errorf("serve: -self: %w", err)
	}
	members := make([]string, 0, len(cfg.Peers))
	for _, p := range cfg.Peers {
		m, err := NormalizePeerURL(p)
		if err != nil {
			return err
		}
		members = append(members, m)
	}
	seeds := make([]string, 0, len(cfg.Seeds))
	for _, p := range cfg.Seeds {
		m, err := NormalizePeerURL(p)
		if err != nil {
			return fmt.Errorf("serve: -seed: %w", err)
		}
		if m != self {
			seeds = append(seeds, m)
		}
	}
	if cfg.Replication < 0 {
		return fmt.Errorf("serve: replication factor %d must be >= 1", cfg.Replication)
	}
	rf := cfg.Replication
	if rf < 1 {
		rf = 1
	}
	heartbeat := cfg.Heartbeat
	loops := heartbeat >= 0
	if heartbeat <= 0 {
		// Negative disables the loops but keeps a sane interval for the
		// per-exchange timeouts of hand-driven rounds (tests).
		heartbeat = time.Second
	}
	c := &cluster{
		self:      self,
		rf:        rf,
		seeds:     seeds,
		heartbeat: heartbeat,
		out:       outbox{pending: map[handoff]struct{}{}, limit: adviseCacheSize * rf, kick: make(chan struct{}, 1)},
		quit:      make(chan struct{}),
		fwd:       shard.NewForwarder(self),
	}
	mem, err := shard.NewMembership(shard.MembershipConfig{
		Self:         self,
		Peers:        members,
		SuspectAfter: 3 * heartbeat,
		EvictAfter:   10 * heartbeat,
		// Every ring swap prunes the forwarder's peer clients down to the
		// new member set, closing departed peers' idle connections — the
		// membership-shrink counterpart of the lazily created clients — and
		// kicks the outbox, so the keys the change owes a new owner start
		// moving at once rather than on the next tick.
		OnChange: func(ring *shard.Ring, _ uint64) {
			var keep []string
			if ring != nil {
				keep = ring.Members()
			}
			c.pruned.Add(uint64(c.fwd.Prune(keep)))
			c.out.kickFlush()
		},
	})
	if err != nil {
		return err
	}
	c.mem = mem
	c.out.ring = mem.Ring()
	c.joined.Store(len(seeds) == 0)
	s.metrics.registerCluster(c) // c's counters exist before a handler can see c
	s.cluster = c
	s.startClusterLoops(loops)
	return nil
}

// noteForwarded counts an incoming peer-forwarded request. Called at
// handler entry so the counter reflects every forwarded arrival, cache hit
// or miss, matching its documented "requests received already forwarded"
// semantics.
func (s *Server) noteForwarded(r *http.Request) {
	if c := s.cluster; c != nil && r.Header.Get(shard.ForwardedByHeader) != "" {
		c.forwardedIn.Inc()
	}
}

// isForwarded reports whether r already carries the loop-guard header (it
// was forwarded here by a peer and must be served locally).
func (s *Server) isForwarded(r *http.Request) bool {
	return r.Header.Get(shard.ForwardedByHeader) != ""
}

// route decides where a request with the given content-addressed key is
// served. targets is the ordered list of peers to try — the key's primary
// owner first, then its replicas in successor order, self excluded; empty
// targets means serve locally without trying anyone, because cluster mode
// is off, the request already carries the loop-guard header (that is what
// breaks forwarding cycles when two peers' rings disagree — forwarded
// reports it), or this process is the key's primary owner. owners is the
// key's full owner list (nil at rf=1, when no write-through can happen)
// and owned reports whether this process is on it: an owned miss that
// ends up evaluated locally is written through to the other owners
// afterwards (replicate, which reuses the list rather than re-walking the
// ring).
func (s *Server) route(forwarded bool, key string) (targets, owners []string, owned bool) {
	c := s.cluster
	if c == nil {
		return nil, nil, false
	}
	// One ring snapshot per request: membership may swap the ring between
	// statements, but a single request must route against one epoch.
	ring := c.ring()
	if ring == nil {
		// Self departed and no other member remains: serve locally.
		return nil, nil, false
	}
	if c.rf == 1 {
		// Single-owner fast path: no successor list to build (Owner is an
		// allocation-free binary search), and with no replicas owned only
		// gates a write-through that can never happen.
		owner := ring.Owner(key)
		if owner == c.self || forwarded {
			return nil, nil, owner == c.self
		}
		return []string{owner}, nil, false
	}
	owners = ring.Owners(key, c.rf)
	if forwarded {
		// Forced local: still report ownership so a primary evaluating a
		// forwarded-in miss replicates the result.
		return nil, owners, slices.Contains(owners, c.self)
	}
	if owners[0] == c.self {
		return nil, owners, true
	}
	targets = make([]string, 0, len(owners))
	for _, o := range owners {
		if o == c.self {
			owned = true
			continue
		}
		targets = append(targets, o)
	}
	return targets, owners, owned
}

// proxiedResponse is a peer's verbatim answer, carried through the
// singleflight so every request sharing the flight relays the same bytes.
type proxiedResponse struct {
	status int
	body   []byte
}

// tryForward re-marshals a decoded advise request and forwards it on
// behalf of client (see cluster.forward); a request that will not marshal
// is served locally like one no owner answered.
func (s *Server) tryForward(ctx context.Context, tr *obs.Trace, targets []string, client string, req *AdviseRequest) (proxiedResponse, bool) {
	body, err := json.Marshal(req)
	if err != nil {
		return proxiedResponse{}, false
	}
	return s.cluster.forward(ctx, tr, targets, client, "/v1/advise", body)
}

// forward posts body to the targets in successor order — the primary owner
// first, then the replicas — relaying the first answer it gets. ok=false
// means every target was unreachable (one local fallback is counted) and
// the caller must serve locally — degraded, never failing. An answer from
// any target after the first is counted as a replica hit: the primary was
// down but the tier's warmth survived on a successor. A target's HTTP
// errors are authoritative answers and come back ok=true, relayed not
// retried. The hop is recorded as a "forward" span on tr, annotated with
// the answering peer (or "unreachable"), and carries tr's id so the
// answering peer's trace joins this request's, client so the peer queues
// the evaluation in the origin client's fair-queue lane, and ctx's
// remaining deadline budget so the peer sheds by the same clock the origin
// would.
func (c *cluster) forward(ctx context.Context, tr *obs.Trace, targets []string, client, path string, body []byte) (proxiedResponse, bool) {
	meta := shard.Meta{TraceID: tr.ID(), Client: client, Deadline: remainingBudget(ctx)}
	sp := tr.StartSpan("forward")
	for i, t := range targets {
		status, respBody, err := c.fwd.Forward(ctx, t, path, body, meta)
		if err != nil {
			continue
		}
		if i > 0 {
			c.replicaHits.Inc()
		}
		sp.Annotate(t)
		sp.End()
		return proxiedResponse{status: status, body: respBody}, true
	}
	c.fallbacks.Inc()
	sp.Annotate("unreachable")
	sp.End()
	return proxiedResponse{}, false
}

// replicate writes a freshly cached entry through to the key's other
// owners: it owes the key to each of them in the outbox and kicks the
// flusher, which posts the entry off the request path and keeps a pair the
// replica did not take for the next flush. The receiving peer's
// /v1/replicate handler only inserts into its local cache — it never
// forwards or re-replicates, so replication traffic cannot cycle. owners
// and owned come from route for the same request (one ring walk serves
// both routing and write-through); only an owner replicates — a non-owner
// that evaluated a key because every owner was down has nowhere useful to
// write.
func (s *Server) replicate(key string, owners []string, owned bool) {
	c := s.cluster
	if c == nil || c.rf < 2 || !owned || len(owners) == 0 {
		return
	}
	for _, o := range owners {
		if o == c.self {
			continue
		}
		if c.out.add(o, key) {
			c.repWrites.Inc()
		} else {
			c.repDrops.Inc()
		}
	}
	c.out.kickFlush()
}

// maxReplicateBytes bounds one /v1/replicate body. Entries are ranked
// grids (at most a few hundred recommendations, plus transformed sources),
// far below this; the cap exists so a confused or hostile peer cannot make
// the handler buffer arbitrary payloads.
const maxReplicateBytes = 4 << 20

// handleReplicate accepts one outbox batch from a peer: write-throughs of
// keys this process replicates, or entries a ring change or a drain handed
// it. The body is the cache-snapshot schema (entry.go); its entries are
// inserted into the local advise-response cache and nothing else happens — no forwarding, no
// re-replication, no evaluation — which is the loop guard that keeps
// replication traffic acyclic by construction.
//
// The sender must identify itself as a known member via the forwarded-by
// header (the forwarder's control path sets it). This is trust-model
// consistency, not authentication — the tier has none anywhere — but it
// keeps the only cache-writing endpoint from accepting writes from
// clients that know nothing about the cluster. Known deliberately includes
// tombstoned members, not just current ring members: a draining peer's
// final key handoff arrives after its departure tombstone, and an evicted
// peer's in-flight outbox batches race its eviction — both carry entries
// worth keeping.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	c := s.cluster
	if c == nil {
		s.fail(w, http.StatusConflict, "replication requires cluster mode")
		return
	}
	if from := r.Header.Get(shard.ForwardedByHeader); !c.mem.Knows(from) {
		s.fail(w, http.StatusForbidden, "replicate writes must come from a known cluster member")
		return
	}
	n, err := s.RestoreCache(http.MaxBytesReader(w, r.Body, maxReplicateBytes))
	if err != nil {
		s.fail(w, http.StatusBadRequest, "bad replicate body: %v", err)
		return
	}
	c.replicatedIn.Add(uint64(n))
	s.writeJSON(w, http.StatusOK, map[string]int{"accepted": n})
}

// writeProxied relays a peer's response verbatim.
func (s *Server) writeProxied(w http.ResponseWriter, pr proxiedResponse) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(pr.status)
	_, _ = w.Write(pr.body)
}

// servedBy names this process in responses it computed (or answered from
// its own cache); "" outside cluster mode keeps the field omitted.
func (s *Server) servedBy() string {
	if s.cluster == nil {
		return ""
	}
	return s.cluster.self
}

// RingMember is one peer's row in the /v1/ring payload.
type RingMember struct {
	Peer string `json:"peer"`
	Self bool   `json:"self,omitempty"`
	// Ownership is the exact fraction of the key space this peer owns.
	Ownership float64 `json:"ownership"`
	// Forwards counts requests this process proxied to the peer and got an
	// answer for; Errors counts failed proxy attempts (each one fell back
	// to local serving). Both are zero for Self.
	Forwards uint64 `json:"forwards,omitempty"`
	Errors   uint64 `json:"errors,omitempty"`
	// Status is the member's gossip state ("alive"; ring members are
	// always alive) and Suspect this observer's staleness judgment: the
	// member's record has stopped advancing but has not yet crossed the
	// eviction deadline.
	Status  string `json:"status,omitempty"`
	Suspect bool   `json:"suspect,omitempty"`
	// AgeSeconds is how long ago this observer last saw the member's
	// gossip record advance (0 for Self between heartbeats).
	AgeSeconds float64 `json:"age_seconds,omitempty"`
}

// DepartedMember is a tombstoned peer in the membership section: "left"
// for a planned departure, "dead" for an eviction verdict.
type DepartedMember struct {
	Peer   string `json:"peer"`
	Status string `json:"status"`
}

// MembershipStats is the gossip-membership section of /v1/ring, present
// whenever cluster mode is on.
type MembershipStats struct {
	// Joined reports whether a gossip reply has listed this peer alive
	// (always true without -seed).
	Joined bool `json:"joined"`
	// Draining reports a planned departure in progress (or completed).
	Draining bool `json:"draining,omitempty"`
	// GossipSent counts heartbeat exchanges this peer initiated and got
	// answered; GossipReceived counts exchanges it answered;
	// GossipErrors counts sends that reached no peer.
	GossipSent     uint64 `json:"gossip_sent"`
	GossipReceived uint64 `json:"gossip_received"`
	GossipErrors   uint64 `json:"gossip_errors"`
	// Evictions counts dead verdicts this peer issued itself;
	// Refutations counts tombstones about itself it overrode.
	Evictions   uint64 `json:"evictions"`
	Refutations uint64 `json:"refutations"`
	// PrunedClients counts peer HTTP clients dropped on ring rebuilds.
	PrunedClients uint64 `json:"pruned_clients,omitempty"`
	// Departed lists tombstoned peers, sorted by name.
	Departed []DepartedMember `json:"departed,omitempty"`
}

// AntiEntropyStats is the self-healing section of /v1/ring: the outbox
// that hands entries to the owners a write-through, a ring change or a
// drain owes them.
type AntiEntropyStats struct {
	// Delivered counts cache entries the outbox handed to peers; Pending
	// is how many (peer, key) pairs wait for the next flush; Errors counts
	// handoff batches that failed.
	Delivered uint64 `json:"delivered"`
	Pending   int    `json:"pending"`
	Errors    uint64 `json:"errors"`
}

// ReplicationStats is the replication section of /v1/ring and
// /v1/stats.cluster, present only when the replication factor is above 1
// (an RF=1 tier keeps the exact pre-replication payload).
type ReplicationStats struct {
	// Factor is how many ring successors own each key.
	Factor int `json:"factor"`
	// Writes counts (replica, key) pairs this process owed to the outbox
	// after evaluating a key it owns; a failed delivery stays pending and
	// counts in anti_entropy.errors.
	Writes uint64 `json:"writes"`
	// WriteDrops counts write-throughs the full outbox refused —
	// backpressure sheds replication, never requests.
	WriteDrops uint64 `json:"write_drops"`
	// ReplicatedIn counts entries this process accepted into its cache via
	// POST /v1/replicate.
	ReplicatedIn uint64 `json:"replicated_in"`
	// ReplicaHits counts forwards this process had answered by a replica
	// after the key's primary owner was unreachable — cache warmth that
	// survived a peer death.
	ReplicaHits uint64 `json:"replica_hits"`
}

// KeyOwners reports one key's owner list (GET /v1/ring?key=K): the
// primary owner first, replicas in failover order after it.
type KeyOwners struct {
	Key    string   `json:"key"`
	Owners []string `json:"owners"`
}

// RingResponse is the GET /v1/ring payload (also embedded in /v1/stats as
// "cluster"). Outside cluster mode only Enabled=false is meaningful.
type RingResponse struct {
	Enabled bool   `json:"enabled"`
	Self    string `json:"self,omitempty"`
	VNodes  int    `json:"vnodes,omitempty"`
	// Epoch is the ring version: it increments exactly when the ring
	// member set changes, and stamps which membership view the counters
	// below were read against.
	Epoch   uint64       `json:"epoch,omitempty"`
	Members []RingMember `json:"members,omitempty"`
	// ForwardedIn counts requests that arrived already forwarded by a peer
	// (this process answered them as owner). Deliberately not omitempty:
	// operators and scripts read these as plain numbers even at zero.
	ForwardedIn uint64 `json:"forwarded_in"`
	// LocalFallbacks counts requests whose every owner was unreachable,
	// served locally instead.
	LocalFallbacks uint64 `json:"local_fallbacks"`
	// Replication is the replicated-ownership view; nil when the factor
	// is 1 (no replication configured).
	Replication *ReplicationStats `json:"replication,omitempty"`
	// Membership is the gossip view: gossip/eviction counters and
	// tombstoned peers.
	Membership *MembershipStats `json:"membership,omitempty"`
	// AntiEntropy is the self-healing view: the outbox's handoffs.
	AntiEntropy *AntiEntropyStats `json:"anti_entropy,omitempty"`
	// KeyOwners answers a ?key= query with that key's owner list; nil
	// otherwise.
	KeyOwners *KeyOwners `json:"key_owners,omitempty"`
}

// Ring snapshots the cluster view (the /v1/ring payload).
func (s *Server) Ring() RingResponse {
	c := s.cluster
	if c == nil {
		return RingResponse{Enabled: false}
	}
	ring := c.ring()
	resp := RingResponse{
		Enabled:        true,
		Self:           c.self,
		Epoch:          c.mem.Epoch(),
		ForwardedIn:    c.forwardedIn.Value(),
		LocalFallbacks: c.fallbacks.Value(),
	}
	if c.rf > 1 {
		// Report the effective factor: the configured rf clamped to the
		// live member count, since Owners clamps the same way per key.
		// Under elastic membership the configured value cannot be clamped
		// at enable time — the cluster may grow into it later.
		factor := c.rf
		if ring != nil && len(ring.Members()) < factor {
			factor = len(ring.Members())
		}
		resp.Replication = &ReplicationStats{
			Factor:       factor,
			Writes:       c.repWrites.Value(),
			WriteDrops:   c.repDrops.Value(),
			ReplicatedIn: c.replicatedIn.Value(),
			ReplicaHits:  c.replicaHits.Value(),
		}
	}
	counters := c.mem.Counters()
	ms := &MembershipStats{
		Joined:         c.joined.Load(),
		Draining:       c.draining.Load(),
		GossipSent:     c.gossipOut.Value(),
		GossipReceived: c.gossipIn.Value(),
		GossipErrors:   c.gossipErrs.Value(),
		Evictions:      counters.Evictions,
		Refutations:    counters.Refutations,
		PrunedClients:  c.pruned.Value(),
	}
	resp.AntiEntropy = &AntiEntropyStats{
		Delivered: c.outDelivered.Value(),
		Pending:   c.out.size(),
		Errors:    c.outErrs.Value(),
	}
	health := map[string]shard.MemberHealth{}
	for _, h := range c.mem.Health() {
		health[h.Name] = h
		if h.Status != shard.StatusAlive {
			ms.Departed = append(ms.Departed, DepartedMember{Peer: h.Name, Status: string(h.Status)})
		}
	}
	resp.Membership = ms
	if ring == nil {
		return resp
	}
	resp.VNodes = ring.VNodes()
	ownership := ring.Ownership()
	peerStats := map[string]shard.PeerStats{}
	for _, ps := range c.fwd.Stats() {
		peerStats[ps.Peer] = ps
	}
	for _, m := range ring.Members() {
		h := health[m]
		resp.Members = append(resp.Members, RingMember{
			Peer:       m,
			Self:       m == c.self,
			Ownership:  ownership[m],
			Forwards:   peerStats[m].Forwards,
			Errors:     peerStats[m].Errors,
			Status:     string(h.Status),
			Suspect:    h.Suspect,
			AgeSeconds: h.AgeSeconds,
		})
	}
	return resp
}

func (s *Server) handleRing(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	resp := s.Ring()
	if key := r.URL.Query().Get("key"); key != "" && s.cluster != nil {
		if ring := s.cluster.ring(); ring != nil {
			resp.KeyOwners = &KeyOwners{
				Key:    key,
				Owners: ring.Owners(key, s.cluster.rf),
			}
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

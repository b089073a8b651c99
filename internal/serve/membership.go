package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"paragraph/internal/obs"
	"paragraph/internal/shard"
)

// Elastic membership wiring: this file connects the shard.Membership state
// machine to the serving tier. Three background loops run per cluster-mode
// process — a join loop that announces the peer to a seed until admitted,
// a heartbeat loop that gossips the epoch-stamped view (and sweeps silent
// members into eviction), and an anti-entropy loop that diffs Ring.Owners
// against the local cache and pulls the replica entries this peer should
// hold but does not, so a rejoined or freshly added peer converges to full
// warmth without waiting on traffic. The /v1/cluster/* endpoints are the
// wire surface: join and gossip carry membership views, leave triggers a
// planned-departure drain, and keys/entry serve the anti-entropy pulls
// (entry doubles as the request path's read-repair source).

// maxGossipBytes bounds one gossip or join body; views are a few hundred
// bytes per member.
const maxGossipBytes = 1 << 20

// handleCluster routes the /v1/cluster/* surface. Every endpoint requires
// cluster mode; the sub-routes are dispatched here rather than registered
// individually so non-cluster servers keep a single 409 surface.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		s.fail(w, http.StatusConflict, "cluster endpoints require cluster mode")
		return
	}
	switch strings.TrimPrefix(r.URL.Path, "/v1/cluster/") {
	case "join":
		s.handleClusterJoin(w, r)
	case "gossip":
		s.handleClusterGossip(w, r)
	case "leave":
		s.handleClusterLeave(w, r)
	case "keys":
		s.handleClusterKeys(w, r)
	case "entry":
		s.handleClusterEntry(w, r)
	default:
		s.fail(w, http.StatusNotFound, "unknown cluster endpoint")
	}
}

// joinRequest is the POST /v1/cluster/join body.
type joinRequest struct {
	// Peer is the joining process's base URL as the cluster reaches it.
	Peer string `json:"peer"`
}

// handleClusterJoin admits a peer: its record enters the view at an
// incarnation above any tombstone it left behind, the ring rebuilds under
// a new epoch, and the merged view goes back so the joiner adopts the
// cluster's full record set in one round trip. Any member can admit —
// "seed" is a role the joiner picks, not a special node.
func (s *Server) handleClusterJoin(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req joinRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxGossipBytes)).Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, "bad join body: %v", err)
		return
	}
	peer, err := NormalizePeerURL(req.Peer)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	c := s.cluster
	if peer != c.self {
		c.joinsIn.Inc()
	}
	view := c.mem.Join(peer)
	s.writeJSON(w, http.StatusOK, view)
}

// handleClusterGossip answers one heartbeat exchange: merge the sender's
// view, note the contact as proof of life, and reply with the local view
// so the exchange converges both directions (push-pull).
func (s *Server) handleClusterGossip(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var view shard.View
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxGossipBytes)).Decode(&view); err != nil {
		s.fail(w, http.StatusBadRequest, "bad gossip body: %v", err)
		return
	}
	if view.From == "" {
		s.fail(w, http.StatusBadRequest, "gossip view missing sender")
		return
	}
	c := s.cluster
	c.gossipIn.Inc()
	c.mem.Observe(view.From)
	c.mem.Merge(view)
	s.writeJSON(w, http.StatusOK, c.mem.View())
}

// handleClusterLeave starts this peer's planned departure: announce the
// departure tombstone, stream owned keys to their new owners, and report
// what moved. The process keeps serving (local-only) afterwards — exiting
// is the operator's next step, or SIGTERM's, which runs the same drain
// and finds it already done.
func (s *Server) handleClusterLeave(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	s.writeJSON(w, http.StatusOK, s.DrainCluster(r.Context()))
}

// clusterKeysResponse is the GET /v1/cluster/keys payload: the local
// advise-response cache's key list, the anti-entropy diff source.
type clusterKeysResponse struct {
	Epoch uint64   `json:"epoch"`
	Keys  []string `json:"keys"`
}

// handleClusterKeys lists the local cache's keys. Keys are content hashes
// — cheap to ship and meaningless without the entries — and the list is
// what a sweeping peer diffs against Ring.Owners to find entries it
// should hold.
func (s *Server) handleClusterKeys(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	items := s.adviseCache.Items()
	resp := clusterKeysResponse{Epoch: s.cluster.mem.Epoch(), Keys: make([]string, 0, len(items))}
	for _, it := range items {
		resp.Keys = append(resp.Keys, it.Key)
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleClusterEntry serves one cache entry (?key=K) in the replicate wire
// schema, feeding anti-entropy refills and read repairs. It reads through
// Peek so peer probes distort neither recency nor the hit/miss counters,
// and 404s on a miss — the puller tries the next holder.
func (s *Server) handleClusterEntry(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	key := r.URL.Query().Get("key")
	if key == "" {
		s.fail(w, http.StatusBadRequest, "key required")
		return
	}
	v, ok := s.adviseCache.Peek(key)
	if !ok {
		s.fail(w, http.StatusNotFound, "no entry for key")
		return
	}
	body, err := encodeEntries(CacheItem{Key: key, Val: v})
	if err != nil {
		s.fail(w, http.StatusNotFound, "entry not servable: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

// --- background loops ---

// startClusterLoops launches the join, gossip and anti-entropy loops.
// Called by EnableCluster when Heartbeat >= 0; Server.Close stops them.
func (s *Server) startClusterLoops() {
	c := s.cluster
	if len(c.seeds) > 0 {
		c.bg.Add(1)
		go s.joinLoop()
	}
	c.bg.Add(1)
	go s.gossipLoop()
	if c.antiEntropy > 0 {
		c.bg.Add(1)
		go s.antiEntropyLoop()
	}
}

// stop terminates the background loops and the forwarder's async workers.
func (c *cluster) stop() {
	c.stopOnce.Do(func() { close(c.quit) })
	c.bg.Wait()
	c.fwd.Close()
}

// joinLoop announces this peer to its seeds until one admits it: POST
// /v1/cluster/join, merge the returned view, done. Retries every
// heartbeat — a seed that is itself still starting is the normal case
// during a fleet boot.
func (s *Server) joinLoop() {
	c := s.cluster
	defer c.bg.Done()
	ticker := time.NewTicker(c.heartbeat)
	defer ticker.Stop()
	for {
		if s.tryJoin() {
			return
		}
		select {
		case <-c.quit:
			return
		case <-ticker.C:
		}
	}
}

// tryJoin attempts one join round over the seeds, returning success.
func (s *Server) tryJoin() bool {
	c := s.cluster
	body, err := json.Marshal(joinRequest{Peer: c.self})
	if err != nil {
		return false
	}
	for _, seed := range c.seeds {
		ctx, cancel := context.WithTimeout(context.Background(), c.heartbeat)
		status, resp, err := c.fwd.Control(ctx, http.MethodPost, seed, "/v1/cluster/join", body)
		cancel()
		if err != nil || status/100 != 2 {
			c.gossipErrs.Inc()
			continue
		}
		var view shard.View
		if err := json.Unmarshal(resp, &view); err != nil {
			c.gossipErrs.Inc()
			continue
		}
		c.mem.Merge(view)
		c.joined.Store(true)
		return true
	}
	return false
}

// gossipLoop is the heartbeat: every interval it sweeps the failure
// detector and pushes the local view to every other ring member, merging
// each answer back (push-pull, so one exchange converges both sides).
func (s *Server) gossipLoop() {
	c := s.cluster
	defer c.bg.Done()
	ticker := time.NewTicker(c.heartbeat)
	defer ticker.Stop()
	for {
		select {
		case <-c.quit:
			return
		case <-ticker.C:
			s.gossipOnce(context.Background(), c.heartbeat)
		}
	}
}

// gossipOnce runs one heartbeat round: sweep, beat, exchange with every
// other ring member concurrently. Each exchange is bounded by hop — the
// heartbeat interval on the loop, so a hung peer cannot stall the round
// past one tick.
func (s *Server) gossipOnce(ctx context.Context, hop time.Duration) {
	c := s.cluster
	c.mem.Sweep()
	view := c.mem.Beat()
	ring := c.ring()
	if ring == nil {
		return
	}
	body, err := json.Marshal(view)
	if err != nil {
		return
	}
	var wg sync.WaitGroup
	for _, peer := range ring.Members() {
		if peer == c.self {
			continue
		}
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			hopCtx, cancel := context.WithTimeout(ctx, hop)
			defer cancel()
			status, resp, err := c.fwd.Control(hopCtx, http.MethodPost, peer, "/v1/cluster/gossip", body)
			if err != nil || status/100 != 2 {
				c.gossipErrs.Inc()
				return
			}
			var remote shard.View
			if err := json.Unmarshal(resp, &remote); err != nil {
				c.gossipErrs.Inc()
				return
			}
			c.mem.Observe(peer)
			c.mem.Merge(remote)
			c.gossipOut.Inc()
		}(peer)
	}
	wg.Wait()
}

// antiEntropyLoop periodically runs the self-healing sweep.
func (s *Server) antiEntropyLoop() {
	c := s.cluster
	defer c.bg.Done()
	ticker := time.NewTicker(c.antiEntropy)
	defer ticker.Stop()
	for {
		select {
		case <-c.quit:
			return
		case <-ticker.C:
			s.antiEntropyOnce(context.Background())
		}
	}
}

// antiEntropyOnce is one self-healing sweep: fetch every other ring
// member's key list, keep the keys this peer owns (Ring.Owners) but does
// not hold, and pull the missing entries with bounded concurrency. This is
// how a rejoined or freshly added peer converges to full replica warmth
// without client traffic — the cache-tier analogue of loading exactly the
// missing shard slices in parallel instead of recomputing them. The sweep
// runs entirely off the request path: fetches are capped at
// refillConcurrency and every pull is a cheap cache-to-cache copy.
func (s *Server) antiEntropyOnce(ctx context.Context) {
	c := s.cluster
	ring := c.ring()
	if ring == nil || len(ring.Members()) < 2 || c.mem.Left() {
		return
	}
	local := map[string]bool{}
	for _, it := range s.adviseCache.Items() {
		local[it.Key] = true
	}
	// missing maps each absent owned key to the peers advertising it.
	missing := map[string][]string{}
	for _, peer := range ring.Members() {
		if peer == c.self {
			continue
		}
		hopCtx, cancel := context.WithTimeout(ctx, c.heartbeat+5*time.Second)
		status, body, err := c.fwd.Control(hopCtx, http.MethodGet, peer, "/v1/cluster/keys", nil)
		cancel()
		if err != nil || status/100 != 2 {
			c.aeErrs.Inc()
			continue
		}
		var resp clusterKeysResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			c.aeErrs.Inc()
			continue
		}
		for _, key := range resp.Keys {
			if local[key] {
				continue
			}
			if !slices.Contains(ring.Owners(key, c.rf), c.self) {
				continue
			}
			missing[key] = append(missing[key], peer)
		}
	}
	if len(missing) > 0 {
		keys := make([]string, 0, len(missing))
		for k := range missing {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sem := make(chan struct{}, refillConcurrency)
		var wg sync.WaitGroup
		for _, key := range keys {
			wg.Add(1)
			sem <- struct{}{}
			go func(key string, holders []string) {
				defer wg.Done()
				defer func() { <-sem }()
				if s.pullEntry(ctx, key, holders) {
					c.aeRefills.Inc()
				} else {
					c.aeErrs.Inc()
				}
			}(key, missing[key])
		}
		wg.Wait()
	}
	c.aeSweeps.Inc()
	c.lastSweepUnix.Store(time.Now().Unix())
}

// pullEntry is the anti-entropy refill of one key: fetch it from the first
// holder that still has it.
func (s *Server) pullEntry(ctx context.Context, key string, holders []string) bool {
	_, _, ok := s.fetchEntry(ctx, key, holders, s.cluster.heartbeat+5*time.Second)
	return ok
}

// fetchEntry asks peers in order for their copy of one cache entry (GET
// /v1/cluster/entry), each probe bounded by timeout, and inserts the first
// usable answer into the local cache. Self is skipped; a peer that is
// down, lacks the entry, or answers a body that does not decode to exactly
// this key is passed over.
func (s *Server) fetchEntry(ctx context.Context, key string, peers []string, timeout time.Duration) (val any, from string, ok bool) {
	c := s.cluster
	for _, peer := range peers {
		if peer == c.self {
			continue
		}
		hopCtx, cancel := context.WithTimeout(ctx, timeout)
		status, body, err := c.fwd.Control(hopCtx, http.MethodGet, peer,
			"/v1/cluster/entry?key="+url.QueryEscape(key), nil)
		cancel()
		if err != nil || status != http.StatusOK {
			continue
		}
		it, err := decodeEntry(body)
		if err != nil || it.Key != key {
			continue
		}
		s.adviseCache.Add(key, it.Val)
		return it.Val, peer, true
	}
	return nil, "", false
}

// --- read repair ---

// repairedEntry marks a singleflight value that was pulled from a
// co-owner's cache instead of evaluated: the handlers render it as a cache
// hit, because it is one — the tier had the entry, just not this process.
type repairedEntry struct{ val any }

// tryRepair attempts to answer an owned miss from a co-owner's cache
// before paying a local evaluation. The window it exists for: a peer that
// just rejoined owns its old keys again but holds none of them until the
// next anti-entropy sweep; its co-owners (who replicated the entries, or
// inherited them from the departed peer's drain) still do. One bounded GET
// per co-owner is noise next to a full grid evaluation, and on a genuinely
// cold key every probe 404s fast. Returns the repaired value and whether
// repair succeeded.
func (s *Server) tryRepair(ctx context.Context, tr *obs.Trace, key string, owners []string, owned bool) (any, bool) {
	c := s.cluster
	if c == nil || !owned || len(owners) < 2 {
		return nil, false
	}
	sp := tr.StartSpan("read_repair")
	defer sp.End()
	val, from, ok := s.fetchEntry(ctx, key, owners, 2*time.Second)
	if !ok {
		c.repairMisses.Inc()
		sp.Annotate("miss")
		return nil, false
	}
	c.readRepairs.Inc()
	sp.Annotate(from)
	return val, true
}

// --- planned departure ---

// DrainReport summarizes a planned departure: what the leaving peer owned
// and what it managed to stream to the new owners before the deadline.
type DrainReport struct {
	// AlreadyDraining reports a second drain request: the first one's
	// handoff already ran (or is running) and this call did nothing.
	AlreadyDraining bool `json:"already_draining,omitempty"`
	// Epoch is the ring version after the departure tombstone.
	Epoch uint64 `json:"epoch"`
	// OwnedKeys is how many local cache entries this peer owned under the
	// pre-departure ring; Streamed how many were delivered to at least
	// one new owner; Errors how many batch posts failed.
	OwnedKeys int `json:"owned_keys"`
	Streamed  int `json:"streamed"`
	Batches   int `json:"batches"`
	Errors    int `json:"errors"`
	// Targets are the peers that received handoff batches, sorted.
	Targets   []string `json:"targets,omitempty"`
	ElapsedMS float64  `json:"elapsed_ms"`
}

// drainBatchLimit caps entries per handoff POST; drainBatchBytes caps the
// body well under maxReplicateBytes so a receiver never rejects a batch
// for size.
const (
	drainBatchLimit = 128
	drainBatchBytes = 1 << 20
)

// DrainCluster executes this peer's planned departure: tombstone self in
// the membership view, run a gossip round synchronously (so the tier
// re-rings before the handoff lands), then stream every owned cache entry
// to its new owners over the /v1/replicate wire schema in bounded batches,
// all within drainTimeout of ctx. Idempotent — the second caller (POST
// /v1/cluster/leave followed by SIGTERM is the normal pair) gets
// AlreadyDraining and no work. Outside cluster mode it reports an empty
// drain. The process keeps serving afterwards, local-only; exiting is the
// caller's decision.
func (s *Server) DrainCluster(ctx context.Context) DrainReport {
	c := s.cluster
	if c == nil {
		return DrainReport{}
	}
	if !c.draining.CompareAndSwap(false, true) {
		return DrainReport{AlreadyDraining: true, Epoch: c.mem.Epoch()}
	}
	ctx, cancel := context.WithTimeout(ctx, drainTimeout)
	defer cancel()
	start := time.Now()
	oldRing := c.ring()
	c.mem.Leave(c.self)
	report := DrainReport{Epoch: c.mem.Epoch()}
	if oldRing == nil {
		report.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
		return report
	}

	// Announce first, through a gossip round with the drain's longer
	// per-exchange bound: peers that re-ring before the handoff arrives
	// accept the writes anyway (the tombstone keeps us a known member), and
	// announcing early stops them forwarding fresh misses to a peer that
	// is about to vanish.
	s.gossipOnce(ctx, c.heartbeat+5*time.Second)

	newRing := c.ring()
	if newRing == nil {
		// Single-member cluster: nowhere to hand keys to.
		report.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
		return report
	}

	// Partition the owned entries by new owner. Every new owner gets a
	// copy (not just the ones that lack it): re-adding an existing key is
	// a cheap overwrite with identical bytes, and pushing to all owners
	// restores full replica fan-out in one pass.
	perTarget := map[string][]CacheItem{}
	for _, it := range s.adviseCache.Items() {
		if !slices.Contains(oldRing.Owners(it.Key, c.rf), c.self) {
			continue
		}
		report.OwnedKeys++
		for _, owner := range newRing.Owners(it.Key, c.rf) {
			perTarget[owner] = append(perTarget[owner], it)
		}
	}
	targets := make([]string, 0, len(perTarget))
	for t := range perTarget {
		targets = append(targets, t)
	}
	sort.Strings(targets)
	report.Targets = targets

	streamed := map[string]bool{}
	for _, target := range targets {
		s.drainTo(ctx, target, perTarget[target], &report, streamed)
		if ctx.Err() != nil {
			break
		}
	}
	report.Streamed = len(streamed)
	c.drainedOut.Add(uint64(report.Streamed))
	report.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	return report
}

// drainTo streams one target's entries in bounded batches over the
// replicate wire schema, marking delivered keys in streamed. A batch is
// encoded once and sent; one whose body comes out over drainBatchBytes is
// halved until it fits (or is a single entry). The next batch is sized from
// the bytes per entry of the one just built — the response cache mixes
// rankings carrying source with 60-byte predictions, so a run of large
// entries must neither be re-encoded at full width every time nor leave
// the small ones after it trickling out a few per POST.
func (s *Server) drainTo(ctx context.Context, target string, items []CacheItem, report *DrainReport, streamed map[string]bool) {
	n := drainBatchLimit
	for len(items) > 0 && ctx.Err() == nil {
		n = min(n, len(items))
		body, err := encodeEntries(items[:n]...)
		for err == nil && len(body) > drainBatchBytes && n > 1 {
			n /= 2
			body, err = encodeEntries(items[:n]...)
		}
		batch := items[:n]
		items = items[n:]
		if err != nil {
			report.Errors++
			continue
		}
		n = max(1, min(drainBatchLimit, n*drainBatchBytes/len(body)))
		status, _, err := s.cluster.fwd.Forward(ctx, target, "/v1/replicate", body, shard.Meta{})
		if err == nil && status/100 == 2 {
			for _, it := range batch {
				streamed[it.Key] = true
			}
		} else {
			report.Errors++
		}
		report.Batches++
	}
}

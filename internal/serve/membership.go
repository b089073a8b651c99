package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"paragraph/internal/obs"
	"paragraph/internal/shard"
)

// Elastic membership wiring: this file connects the shard.Membership state
// machine to the serving tier. Two background loops run per cluster-mode
// process — a join loop that announces the peer to a seed until admitted,
// and a heartbeat loop that gossips the epoch-stamped view (sweeping
// silent members into eviction) and then flushes the outbox (outbox.go),
// so the entries a ring change owes a joiner or a surviving owner reach
// it one tick later without waiting on traffic. The /v1/cluster/*
// endpoints are the wire surface: join and gossip carry membership views,
// leave triggers a planned-departure drain, and entry is the request
// path's read-repair source.

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
// departure tombstone, hand owned keys to their new owners, and report
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

// handleClusterEntry serves one cache entry (?key=K) in the replicate wire
// schema, feeding read repairs. It reads through Peek so peer probes
// distort neither recency nor the hit/miss counters, and 404s on a miss —
// the puller tries the next holder.
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

// startClusterLoops launches the join and gossip loops. Called by
// EnableCluster when Heartbeat >= 0; Server.Close stops them.
func (s *Server) startClusterLoops() {
	c := s.cluster
	if len(c.seeds) > 0 {
		c.bg.Add(1)
		go s.joinLoop()
	}
	c.bg.Add(1)
	go s.gossipLoop()
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
// each answer back (push-pull, so one exchange converges both sides), then
// flushes the outbox against the ring that round left, within one more
// interval.
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
			ctx, cancel := context.WithTimeout(context.Background(), c.heartbeat)
			c.out.flushMu.Lock()
			s.flushOutbox(ctx)
			c.out.flushMu.Unlock()
			cancel()
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

// --- read repair ---

// fetchEntry asks peers in order for their copy of one cache entry (GET
// /v1/cluster/entry), each probe bounded by 2 s, and inserts the first
// usable answer into the local cache. Self is skipped; a peer that is
// down, lacks the entry, or answers a body that does not decode to exactly
// this key is passed over.
func (s *Server) fetchEntry(ctx context.Context, key string, peers []string) (val any, from string, ok bool) {
	c := s.cluster
	for _, peer := range peers {
		if peer == c.self {
			continue
		}
		hopCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
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

// repairedEntry marks a singleflight value that was pulled from a
// co-owner's cache instead of evaluated: the handlers render it as a cache
// hit, because it is one — the tier had the entry, just not this process.
type repairedEntry struct{ val any }

// tryRepair attempts to answer an owned miss from a co-owner's cache
// before paying a local evaluation. The window it exists for: a peer that
// just rejoined owns its old keys again but holds none of them until its
// co-owners' next outbox flush hands them over, while those co-owners
// (who replicated the entries, or inherited them from the departed peer's
// drain) already hold them. One bounded GET per co-owner is noise next to
// a full grid evaluation, and on a genuinely cold key every probe 404s
// fast. Returns the repaired value and whether repair succeeded.
func (s *Server) tryRepair(ctx context.Context, tr *obs.Trace, key string, owners []string, owned bool) (any, bool) {
	c := s.cluster
	if c == nil || !owned || len(owners) < 2 {
		return nil, false
	}
	sp := tr.StartSpan("read_repair")
	defer sp.End()
	val, from, ok := s.fetchEntry(ctx, key, owners)
	if !ok {
		c.repairMisses.Inc()
		sp.Annotate("miss")
		return nil, false
	}
	c.readRepairs.Inc()
	sp.Annotate(from)
	return val, true
}

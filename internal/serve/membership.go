package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"time"

	"paragraph/internal/shard"
)

// Elastic membership wiring: this file connects the shard.Membership state
// machine to the serving tier. Two background loops run per cluster-mode
// process — a join loop that announces the peer to a seed until admitted,
// and a heartbeat loop that gossips the epoch-stamped view (sweeping
// silent members into eviction) and then kicks the outbox flusher
// (outbox.go), so whatever a flush could not deliver is retried every
// tick. The /v1/cluster/* endpoints are the wire surface: join and gossip
// carry membership views, and leave triggers a planned-departure drain.

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

// --- background loops ---

// startClusterLoops launches the outbox flusher, and with loops (Heartbeat
// >= 0) the join and gossip loops. Called by EnableCluster; Server.Close
// stops them.
func (s *Server) startClusterLoops(loops bool) {
	c := s.cluster
	c.bg.Add(1)
	go s.flushLoop()
	if !loops {
		return
	}
	if len(c.seeds) > 0 {
		c.bg.Add(1)
		go s.joinLoop()
	}
	c.bg.Add(1)
	go s.gossipLoop()
}

// stop terminates the background loops and the outbox flusher.
func (c *cluster) stop() {
	c.stopOnce.Do(func() { close(c.quit) })
	c.bg.Wait()
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
// kicks the outbox flusher, which retries every pair still pending.
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
			c.out.kickFlush()
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

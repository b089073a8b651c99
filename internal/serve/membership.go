package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"time"

	"paragraph/internal/shard"
)

// Elastic membership wiring: this file connects the shard.Membership state
// machine to the serving tier. One background loop runs per cluster-mode
// process: the heartbeat, which gossips the epoch-stamped view (sweeping
// silent members into eviction) and then kicks the outbox flusher
// (outbox.go), so whatever a flush could not deliver is retried every
// tick. A gossip exchange is the only membership message: a peer started
// with seeds joins by exchanging views with them, at start-up and then
// every heartbeat until a reply lists it alive. POST /v1/cluster/gossip is
// the whole wire surface; a planned departure is DrainCluster, which a
// shutdown runs.

// maxGossipBytes bounds one gossip body; views are a few hundred bytes per
// member.
const maxGossipBytes = 1 << 20

// handleCluster serves the /v1/cluster/ prefix: gossip is its one route.
// The prefix is registered whole so every path under it, known or not,
// answers 409 outside cluster mode.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		s.fail(w, http.StatusConflict, "cluster endpoints require cluster mode")
		return
	}
	if r.URL.Path != "/v1/cluster/gossip" {
		s.fail(w, http.StatusNotFound, "unknown cluster endpoint")
		return
	}
	s.handleClusterGossip(w, r)
}

// handleClusterGossip answers one heartbeat exchange: merge the sender's
// view, note the contact as proof of life, and reply with the local view
// so the exchange converges both directions (push-pull). A sender this
// peer has never heard of is admitted by the merge itself — that is how a
// peer joins.
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
	if err := checkView(view); err != nil {
		s.fail(w, http.StatusBadRequest, "bad gossip view: %v", err)
		return
	}
	c := s.cluster
	c.gossipIn.Inc()
	c.mem.Observe(view.From)
	c.mem.Merge(view)
	s.writeJSON(w, http.StatusOK, c.mem.View())
}

// checkView refuses a view naming anything but a peer base URL in the form
// NormalizePeerURL gives it, or carrying a status outside the wire set.
// Every alive name a view carries takes a share of the key space, so the
// sender and each member must be a peer the ring could reach.
func checkView(v shard.View) error {
	names := []string{v.From}
	for _, m := range v.Members {
		if m.Status != shard.StatusAlive && m.Status != shard.StatusLeft && m.Status != shard.StatusDead {
			return fmt.Errorf("member %q: unknown status %q", m.Name, m.Status)
		}
		names = append(names, m.Name)
	}
	for _, name := range names {
		if norm, err := NormalizePeerURL(name); err != nil || norm != name {
			return fmt.Errorf("%q is not a peer base URL in normal form", name)
		}
	}
	return nil
}

// --- background loops ---

// startClusterLoops launches the outbox flusher, and with loops (Heartbeat
// >= 0) the gossip loop. Called by EnableCluster; Server.Close stops them.
func (s *Server) startClusterLoops(loops bool) {
	c := s.cluster
	c.bg.Add(1)
	go s.flushLoop()
	if !loops {
		return
	}
	c.bg.Add(1)
	go s.gossipLoop()
}

// stop terminates the background loops and the outbox flusher.
func (c *cluster) stop() {
	c.stopOnce.Do(func() { close(c.quit) })
	c.bg.Wait()
}

// gossipLoop is the heartbeat: every interval it sweeps the failure
// detector and exchanges views with every other ring member (and the seeds
// until one admits this peer), then kicks the outbox flusher, which
// retries every pair still pending. A peer with seeds to join through runs
// its first round at once, so it is admitted at start-up rather than a
// heartbeat later.
func (s *Server) gossipLoop() {
	c := s.cluster
	defer c.bg.Done()
	if !c.joined.Load() {
		s.gossipOnce(context.Background(), c.heartbeat)
	}
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
// target concurrently. Each exchange is bounded by hop — the heartbeat
// interval on the loop, so a hung peer cannot stall the round past one
// tick.
func (s *Server) gossipOnce(ctx context.Context, hop time.Duration) {
	c := s.cluster
	c.mem.Sweep()
	body, err := json.Marshal(c.mem.Beat())
	if err != nil {
		return
	}
	var wg sync.WaitGroup
	for _, peer := range c.gossipTargets() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.exchange(ctx, hop, peer, body)
		}()
	}
	wg.Wait()
}

// gossipTargets lists whom a round exchanges views with: every other ring
// member, plus the seeds until a reply has listed this peer alive.
func (c *cluster) gossipTargets() []string {
	var targets []string
	if ring := c.ring(); ring != nil {
		for _, peer := range ring.Members() {
			if peer != c.self {
				targets = append(targets, peer)
			}
		}
	}
	if !c.joined.Load() {
		for _, seed := range c.seeds {
			if !slices.Contains(targets, seed) {
				targets = append(targets, seed)
			}
		}
	}
	return targets
}

// exchange posts body, this peer's view, to peer and merges the reply. A
// reply listing this peer alive means peer holds it in its ring: the peer
// has joined. A reply holding this peer's own tombstone was refuted by the
// merge, so the exchange runs again at once with the refuting view, at
// most twice: a restart over a left or dead record is admitted in the
// round that found the record, the start-up round included.
func (s *Server) exchange(ctx context.Context, hop time.Duration, peer string, body []byte) {
	c := s.cluster
	for retries := 0; ; retries++ {
		hopCtx, cancel := context.WithTimeout(ctx, hop)
		status, resp, err := c.fwd.Control(hopCtx, http.MethodPost, peer, "/v1/cluster/gossip", body)
		cancel()
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
		switch statusOf(remote, c.self) {
		case shard.StatusAlive:
			c.joined.Store(true)
			return
		case "":
			return
		}
		if retries == 2 || c.mem.Left() {
			return // a departed peer's own tombstone stands
		}
		if body, err = json.Marshal(c.mem.View()); err != nil {
			return
		}
	}
}

// statusOf returns name's status in v, or "" when v holds no record of it.
func statusOf(v shard.View, name string) shard.Status {
	for _, m := range v.Members {
		if m.Name == name {
			return m.Status
		}
	}
	return ""
}

package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"paragraph/internal/advisor"
	"paragraph/internal/shard"
	"paragraph/internal/variants"
)

// elasticHeartbeat is the gossip interval for the elastic-membership tests:
// fast enough that joins, evictions and outbox handoffs land within a
// test's patience, slow enough that loaded CI machines don't false-evict
// (a member is evicted after 10x this).
const elasticHeartbeat = 25 * time.Millisecond

// elasticPeer is one live peer of an elastic cluster: unlike clusterPeer,
// its listener address can be re-bound after kill so a "restarted" process
// keeps its ring identity.
type elasticPeer struct {
	srv *Server
	hs  *httptest.Server
	url string
}

// kill fully stops the peer: listener first (no new requests), then the
// server (loops, batchers, forwarder). Safe to call twice — the
// cleanup-driven second closes are no-ops.
func (p *elasticPeer) kill() {
	p.hs.Close()
	p.srv.Close()
}

// listenOn binds addr ("" = fresh ephemeral port), retrying briefly: a
// just-killed peer's port can take a moment to become bindable again.
func listenOn(t *testing.T, addr string) net.Listener {
	t.Helper()
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln
		}
		if time.Now().After(deadline) {
			t.Fatalf("re-binding %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// bootElasticPeer starts one peer on a bound listener (listenOn), so a
// caller can know the peer's URL before it exists. The caller sets
// bootstrap Peers or Seeds in cfg; Self and (unless overridden) the fast
// heartbeat are wired here.
func bootElasticPeer(t *testing.T, ln net.Listener, cfg ClusterConfig) *elasticPeer {
	t.Helper()
	s := newTestServer(t)
	cfg.Self = "http://" + ln.Addr().String()
	if cfg.Heartbeat == 0 {
		cfg.Heartbeat = elasticHeartbeat
	}
	// Cluster mode is on before the first request can arrive: handlers
	// read s.cluster, which EnableCluster writes.
	if err := s.EnableCluster(cfg); err != nil {
		t.Fatal(err)
	}
	hs := &httptest.Server{Listener: ln, Config: &http.Server{Handler: s.Handler()}}
	hs.Start()
	t.Cleanup(hs.Close)
	return &elasticPeer{srv: s, hs: hs, url: cfg.Self}
}

// startElasticCluster boots n statically bootstrapped peers (each knows
// the full member list up front, through ClusterConfig.Peers).
func startElasticCluster(t *testing.T, n, rf int, cfg ClusterConfig) []*elasticPeer {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		lns[i] = listenOn(t, "")
		urls[i] = "http://" + lns[i].Addr().String()
	}
	peers := make([]*elasticPeer, n)
	for i := range peers {
		s := newTestServer(t)
		c := cfg
		c.Self = urls[i]
		c.Peers = urls
		c.Replication = rf
		if c.Heartbeat == 0 {
			c.Heartbeat = elasticHeartbeat
		}
		if err := s.EnableCluster(c); err != nil { // before serving, as in bootElasticPeer
			t.Fatal(err)
		}
		hs := &httptest.Server{Listener: lns[i], Config: &http.Server{Handler: s.Handler()}}
		hs.Start()
		t.Cleanup(hs.Close)
		peers[i] = &elasticPeer{srv: s, hs: hs, url: urls[i]}
	}
	return peers
}

// waitCond polls cond until it holds, failing the test once d passes.
func waitCond(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitRingSize waits until every listed peer's ring holds exactly want
// members.
func waitRingSize(t *testing.T, peers []*elasticPeer, want int) {
	t.Helper()
	waitCond(t, 10*time.Second, fmt.Sprintf("all rings to reach %d members", want), func() bool {
		for _, p := range peers {
			ring := p.srv.cluster.ring()
			if ring == nil || len(ring.Members()) != want {
				return false
			}
		}
		return true
	})
}

// totalReplicatedIn sums the entries the peers accepted via /v1/replicate.
func totalReplicatedIn(peers []*elasticPeer) uint64 {
	var n uint64
	for _, p := range peers {
		n += p.srv.cluster.replicatedIn.Value()
	}
	return n
}

// TestClusterJoinViaSeed: a peer started with only -seed joins the ring at
// runtime — no restarts, no synchronized member lists — by gossiping with
// its seed, and both sides converge on the same two-member ring under a
// bumped epoch.
func TestClusterJoinViaSeed(t *testing.T) {
	t.Run("fresh", func(t *testing.T) {
		seed := bootElasticPeer(t, listenOn(t, ""), ClusterConfig{})
		joiner := bootElasticPeer(t, listenOn(t, ""), ClusterConfig{Seeds: []string{seed.url}})
		both := []*elasticPeer{seed, joiner}
		waitCond(t, 10*time.Second, "the joiner's admission", joiner.srv.cluster.joined.Load)
		waitRingSize(t, both, 2)
		if seed.srv.cluster.gossipIn.Value() == 0 {
			t.Error("seed answered no gossip")
		}
		sr, jr := seed.srv.Ring(), joiner.srv.Ring()
		if sr.Epoch < 2 {
			t.Errorf("seed epoch = %d after a join, want >= 2", sr.Epoch)
		}
		if len(sr.Members) != 2 || len(jr.Members) != 2 {
			t.Fatalf("ring views: seed %d members, joiner %d", len(sr.Members), len(jr.Members))
		}
		for i := range sr.Members {
			if sr.Members[i].Peer != jr.Members[i].Peer {
				t.Errorf("member %d differs: %q vs %q", i, sr.Members[i].Peer, jr.Members[i].Peer)
			}
		}

		// The joined tier routes: a key each member owns, sent to the
		// joiner, is answered by its owner.
		ring := joiner.srv.cluster.ring()
		for _, owner := range both {
			req := findOwnedBinding(t, ring, owner.url, 60000)
			if resp := postAdvise(t, joiner.url, req); resp.ServedBy != owner.url {
				t.Errorf("n=%v served by %q, want its owner %q", req.Bindings["n"], resp.ServedBy, owner.url)
			}
		}
	})

	// A seed that is not up yet is retried every heartbeat.
	t.Run("seed starts late", func(t *testing.T) {
		seedLn := listenOn(t, "")
		seedAddr := seedLn.Addr().String()
		seedLn.Close()
		joiner := bootElasticPeer(t, listenOn(t, ""), ClusterConfig{Seeds: []string{"http://" + seedAddr}})
		waitCond(t, 10*time.Second, "the joiner to miss its absent seed", func() bool {
			return joiner.srv.cluster.gossipErrs.Value() > 0
		})
		if joiner.srv.cluster.joined.Load() {
			t.Fatal("joiner admitted before its seed started")
		}
		seed := bootElasticPeer(t, listenOn(t, seedAddr), ClusterConfig{})
		waitCond(t, 10*time.Second, "the joiner's admission", joiner.srv.cluster.joined.Load)
		waitRingSize(t, []*elasticPeer{seed, joiner}, 2)
	})

	// A restart over the joiner's own tombstone is admitted by the start-up
	// exchange alone: the heartbeat is far longer than the wait, so no tick
	// can help.
	t.Run("restart over own tombstone", func(t *testing.T) {
		const slow = 10 * time.Second
		seed := bootElasticPeer(t, listenOn(t, ""), ClusterConfig{Heartbeat: slow})
		joinerLn := listenOn(t, "")
		addr := joinerLn.Addr().String()
		joiner := bootElasticPeer(t, joinerLn, ClusterConfig{Seeds: []string{seed.url}, Heartbeat: slow})
		waitCond(t, 5*time.Second, "the first join", func() bool {
			return len(seed.srv.cluster.ring().Members()) == 2
		})
		joiner.srv.DrainCluster(context.Background())
		joiner.kill()
		if dep := seed.srv.Ring().Membership.Departed; len(dep) != 1 || dep[0].Status != "left" {
			t.Fatalf("seed departed view = %+v, want the joiner left", dep)
		}

		restarted := bootElasticPeer(t, listenOn(t, addr), ClusterConfig{Seeds: []string{seed.url}, Heartbeat: slow})
		waitCond(t, 5*time.Second, "the restarted peer's admission", restarted.srv.cluster.joined.Load)
		for _, p := range []*elasticPeer{seed, restarted} {
			if ring := p.srv.cluster.ring(); ring == nil || len(ring.Members()) != 2 {
				t.Fatalf("%s ring = %v after the admission, want both peers", p.url, ring.Members())
			}
		}
		if n := restarted.srv.cluster.mem.Counters().Refutations; n != 1 {
			t.Errorf("restarted peer refutations = %d, want 1 (its left record)", n)
		}
		if dep := seed.srv.Ring().Membership.Departed; len(dep) != 0 {
			t.Errorf("seed still lists %+v as departed", dep)
		}
	})
}

// TestClusterGossipRejectsGarbage: the gossip endpoint validates its method
// and body — a view is the only way into the ring, so it admits nothing
// but peer base URLs with a wire status — no other /v1/cluster/* route
// exists, and the whole surface 409s outside cluster mode.
func TestClusterGossipRejectsGarbage(t *testing.T) {
	peers := startElasticCluster(t, 1, 1, ClusterConfig{Heartbeat: -1})
	s := peers[0].srv
	if rec := doRaw(t, s, http.MethodPost, "/v1/cluster/gossip", []byte("{nope"), ""); rec.Code != http.StatusBadRequest {
		t.Errorf("garbage gossip: %d, want 400", rec.Code)
	}
	if rec := doRaw(t, s, http.MethodGet, "/v1/cluster/gossip", nil, ""); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET gossip: %d, want 405", rec.Code)
	}
	const ok = "http://127.0.0.1:2"
	alive := func(name string) string {
		return `{"name":"` + name + `","incarnation":1,"heartbeat":1,"status":"alive"}`
	}
	for _, body := range []string{
		`{"members":[]}`, // no sender
		`{"from":"ftp://nope","members":[` + alive("ftp://nope") + `]}`,
		`{"from":"http://127.0.0.1:1/x?y","members":[` + alive("http://127.0.0.1:1/x?y") + `]}`,
		`{"from":"http://127.0.0.1:2/","members":[` + alive("http://127.0.0.1:2/") + `]}`,
		`{"from":"` + ok + `","members":[` + alive(ok) + `,` + alive("ftp://nope") + `]}`,
		`{"from":"` + ok + `","members":[` + alive(ok) + `,` + alive(" http://127.0.0.1:3") + `]}`,
		`{"from":"` + ok + `","members":[{"name":"` + ok + `","incarnation":1,"status":"zombie"}]}`,
		`{"from":"` + ok + `","members":[{"name":"` + ok + `","incarnation":1}]}`,
	} {
		if rec := doRaw(t, s, http.MethodPost, "/v1/cluster/gossip", []byte(body), ""); rec.Code != http.StatusBadRequest {
			t.Errorf("gossip %s: %d, want 400", body, rec.Code)
		}
	}
	if got := s.cluster.ring().Members(); len(got) != 1 {
		t.Errorf("ring after refused gossip = %v, want just self", got)
	}
	// The join and leave routes are gone; an old peer's read-repair probe
	// (entry) and the retired key list are unknown endpoints like any other.
	for _, path := range []string{"/v1/cluster/what", "/v1/cluster/entry?key=k", "/v1/cluster/keys"} {
		if rec := doRaw(t, s, http.MethodGet, path, nil, ""); rec.Code != http.StatusNotFound {
			t.Errorf("GET %s: %d, want 404", path, rec.Code)
		}
	}
	for _, path := range []string{"/v1/cluster/join", "/v1/cluster/leave"} {
		if rec := doRaw(t, s, http.MethodPost, path, []byte(`{"peer":"`+ok+`"}`), ""); rec.Code != http.StatusNotFound {
			t.Errorf("POST %s: %d, want 404", path, rec.Code)
		}
	}
	plain := newTestServer(t)
	for _, path := range []string{"/v1/cluster/gossip", "/v1/cluster/join", "/v1/cluster/leave", "/v1/cluster/what"} {
		if rec := doRaw(t, plain, http.MethodPost, path, []byte(`{}`), ""); rec.Code != http.StatusConflict {
			t.Errorf("POST %s outside cluster mode: %d, want 409", path, rec.Code)
		}
	}
}

// TestClusterLeaveDrainsToNewOwners: a planned departure tombstones the
// leaving peer in every survivor's view and streams its owned entries to
// the new owners before it exits, so no warmth is lost. Loops are disabled
// — the drain's own synchronous announce must be enough.
func TestClusterLeaveDrainsToNewOwners(t *testing.T) {
	peers := startElasticCluster(t, 2, 1, ClusterConfig{Heartbeat: -1})
	a, b := peers[0], peers[1]

	// Two keys each peer owns, all sent to A.
	const aOwned = 2
	var reqs []AdviseRequest
	ring := a.srv.cluster.ring()
	from := 70000.0
	for _, owner := range []string{a.url, a.url, b.url, b.url} {
		req := findOwnedBinding(t, ring, owner, from)
		from = req.Bindings["n"] + 1
		reqs = append(reqs, req)
		postAdvise(t, a.url, req)
	}

	report := a.srv.DrainCluster(context.Background())
	if report.OwnedKeys != aOwned || report.Streamed != aOwned || report.Errors != 0 {
		t.Fatalf("drain report %+v, want owned=streamed=%d with no errors", report, aOwned)
	}

	// The survivor re-ringed on the drain's synchronous announce...
	bRing := b.srv.cluster.ring()
	if bRing == nil || len(bRing.Members()) != 1 || bRing.Members()[0] != b.url {
		t.Fatalf("survivor ring = %v, want just itself", bRing.Members())
	}
	view := b.srv.Ring()
	if len(view.Membership.Departed) != 1 || view.Membership.Departed[0].Status != "left" {
		t.Fatalf("survivor departed view = %+v, want A left", view.Membership.Departed)
	}
	// ...and answers every key warm, including the handed-off ones.
	for _, req := range reqs {
		if resp := postAdvise(t, b.url, req); !resp.Cached {
			t.Fatalf("n=%v cold on the survivor after drain", req.Bindings["n"])
		}
	}

	// A second drain is a no-op.
	second := a.srv.DrainCluster(context.Background())
	if !second.AlreadyDraining {
		t.Errorf("second drain = %+v, want AlreadyDraining", second)
	}
}

// memberRow returns peer's row in s's /v1/ring members[].
func memberRow(t *testing.T, s *Server, peer string) RingMember {
	t.Helper()
	for _, m := range s.Ring().Members {
		if m.Peer == peer {
			return m
		}
	}
	t.Fatalf("%s is not in the ring view", peer)
	return RingMember{}
}

// TestClusterDrainIsNotCountedAsForwards: a drain's handoff batches are
// control-plane traffic, so the leaver's members[].forwards and errors —
// the request-forwarding counts bench's shard.forwards_per_op reads — do
// not move.
func TestClusterDrainIsNotCountedAsForwards(t *testing.T) {
	peers := startElasticCluster(t, 2, 1, ClusterConfig{Heartbeat: -1})
	a, b := peers[0], peers[1]
	postAdvise(t, a.url, findOwnedBinding(t, a.srv.cluster.ring(), a.url, 75000))
	postAdvise(t, a.url, findOwnedBinding(t, a.srv.cluster.ring(), b.url, 75000))

	before := memberRow(t, a.srv, b.url)
	if before.Forwards != 1 {
		t.Fatalf("forwards to B = %d before the drain, want the one B-owned request", before.Forwards)
	}
	if report := a.srv.DrainCluster(context.Background()); report.Streamed != 1 || report.Errors != 0 {
		t.Fatalf("drain report %+v, want the one A-owned entry streamed", report)
	}
	if after := memberRow(t, a.srv, b.url); after.Forwards != before.Forwards || after.Errors != before.Errors {
		t.Errorf("members[B] forwards/errors %d/%d after the drain, want %d/%d",
			after.Forwards, after.Errors, before.Forwards, before.Errors)
	}
}

// TestClusterEvictsSilentPeer: a crashed peer (no drain, no goodbye) is
// declared dead after 10 silent heartbeats and drops out of the survivors'
// rings; the tier keeps serving its keys by fallback.
func TestClusterEvictsSilentPeer(t *testing.T) {
	peers := startElasticCluster(t, 3, 1, ClusterConfig{})
	peers[2].kill()
	survivors := peers[:2]
	waitRingSize(t, survivors, 2)

	evictions := survivors[0].srv.cluster.mem.Counters().Evictions +
		survivors[1].srv.cluster.mem.Counters().Evictions
	if evictions == 0 {
		t.Error("no survivor recorded an eviction")
	}
	for _, p := range survivors {
		view := p.srv.Ring()
		if len(view.Membership.Departed) != 1 || view.Membership.Departed[0].Status != "dead" {
			t.Fatalf("departed view = %+v, want the crashed peer dead", view.Membership.Departed)
		}
		if view.Epoch < 2 {
			t.Errorf("epoch = %d after an eviction, want >= 2", view.Epoch)
		}
	}
	// The dead peer's keys are served by the survivors (re-evaluated — it
	// crashed with its cache; rf=1 means no replica held copies).
	for i := 0; i < 4; i++ {
		if resp := postAdvise(t, survivors[0].url, bindN(float64(80000+16*i))); len(resp.Recommendations) == 0 {
			t.Fatal("post-eviction request returned an empty ranking")
		}
	}
}

// totalDelivered sums the entries the peers' outboxes handed off.
func totalDelivered(peers []*elasticPeer) uint64 {
	var n uint64
	for _, p := range peers {
		n += p.srv.cluster.outDelivered.Value()
	}
	return n
}

// TestClusterHandoffWarmsJoinedPeer is the self-healing acceptance test: a
// fresh peer joins a warm RF=2 tier and reaches full replica warmth —
// every owned key resident locally — through its holders' outboxes alone,
// with no client traffic to it.
func TestClusterHandoffWarmsJoinedPeer(t *testing.T) {
	peers := startElasticCluster(t, 3, 2, ClusterConfig{})

	// The joiner's address is bound first, so the ring it will join is
	// known up front and every warmed key can be one it is going to own.
	joinerLn := listenOn(t, "")
	joinerURL := "http://" + joinerLn.Addr().String()
	members := []string{joinerURL}
	for _, p := range peers {
		members = append(members, p.url)
	}
	ring4, err := shard.NewRing(members, peers[0].srv.cluster.ring().VNodes())
	if err != nil {
		t.Fatal(err)
	}
	var reqs []AdviseRequest
	for n := 100000.0; len(reqs) < 6; n++ {
		if req := bindN(n); slices.Contains(ring4.Owners(adviseKeyFor(t, req), 2), joinerURL) {
			reqs = append(reqs, req)
			postAdvise(t, peers[0].url, req)
		}
	}
	// Each write-through is one outbox delivery, so the handoff is counted
	// from here.
	waitCond(t, 10*time.Second, "write-through replication", func() bool {
		return totalDelivered(peers) >= uint64(len(reqs))
	})
	before := totalDelivered(peers)

	joiner := bootElasticPeer(t, joinerLn, ClusterConfig{
		Seeds:       []string{peers[0].url},
		Replication: 2,
	})
	waitRingSize(t, append(append([]*elasticPeer{}, peers...), joiner), 4)

	// Each warmed key has two holders, both its owners on the three-member
	// ring, and the joiner is the one owner the join gave it: so once the
	// holders have delivered two entries per key, every key is in the
	// joiner's cache, with no client request having reached it.
	waitCond(t, 10*time.Second, "the holders to hand every warmed key to the joiner", func() bool {
		return totalDelivered(peers)-before >= uint64(2*len(reqs))
	})
	// A replay through the joiner is all local hits: none recomputed.
	for _, req := range reqs {
		if resp := postAdvise(t, joiner.url, req); !resp.Cached || resp.ServedBy != joiner.url {
			t.Errorf("n=%v replayed as cached:%v served_by:%q, want a local hit", req.Bindings["n"], resp.Cached, resp.ServedBy)
		}
	}
}

// TestClusterEvictionRestoresReplicaCount: a peer that crashes without a
// drain is evicted, and the survivors hand each other the keys whose owner
// list gained a member, so with no client traffic every warmed key ends up
// resident on both of its surviving owners.
func TestClusterEvictionRestoresReplicaCount(t *testing.T) {
	peers := startElasticCluster(t, 3, 2, ClusterConfig{})
	var keys []string
	for i := 0; i < 12; i++ {
		req := bindN(float64(120000 + 16*i))
		keys = append(keys, adviseKeyFor(t, req))
		postAdvise(t, peers[0].url, req)
	}
	waitCond(t, 10*time.Second, "write-through replication", func() bool {
		return totalReplicatedIn(peers) >= uint64(len(keys))
	})

	peers[2].kill()
	survivors := peers[:2]
	waitRingSize(t, survivors, 2)
	waitCond(t, 10*time.Second, "every warmed key on both survivors", func() bool {
		for _, p := range survivors {
			for _, key := range keys {
				if _, ok := p.srv.adviseCache.Peek(key); !ok {
					return false
				}
			}
		}
		return true
	})
}

// TestClusterOutboxRetriesAndDrops drives the outbox by hand against a
// receiver whose answers the test steers: a write-through the replica does
// not take stays pending and lands on a later flush, and a pair whose
// entry was evicted or whose target no longer owns the key is dropped.
func TestClusterOutboxRetriesAndDrops(t *testing.T) {
	const (
		pass = iota
		abort
		unavailable
	)
	var mode atomic.Int32
	recv := newTestServer(t)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch mode.Load() {
		case abort:
			panic(http.ErrAbortHandler) // the connection drops: unreachable
		case unavailable:
			http.Error(w, "unavailable", http.StatusServiceUnavailable)
			return
		}
		recv.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(hs.Close)
	sender := bootElasticPeer(t, listenOn(t, ""), ClusterConfig{Peers: []string{hs.URL}, Replication: 2, Heartbeat: -1})
	if err := recv.EnableCluster(ClusterConfig{Self: hs.URL, Peers: []string{sender.url}, Replication: 2, Heartbeat: -1}); err != nil {
		t.Fatal(err)
	}
	s, c := sender.srv, sender.srv.cluster
	// Every flush below is the test's: holding flushMu throughout keeps out
	// the flusher, which the write-through and the departure kick.
	c.out.flushMu.Lock()
	defer c.out.flushMu.Unlock()
	flush := func() DrainReport { return s.flushOutbox(context.Background()) }

	// A write-through the replica does not take stays pending until it
	// does: a dropped connection, then a 503, then a delivery.
	owed := CacheItem{Key: Key("owed"), Val: []advisor.Recommendation{{Kind: variants.CPU, Threads: 8, PredictedUS: 7.5}}}
	s.adviseCache.Add(owed.Key, owed.Val)
	s.replicate(owed.Key, []string{sender.url, hs.URL}, true)
	for _, m := range []int32{abort, unavailable} {
		mode.Store(m)
		if r := flush(); r.Streamed != 0 || r.Errors != 1 || c.out.size() != 1 {
			t.Fatalf("flush in mode %d = %+v with %d pending, want one failed batch and the pair kept", m, r, c.out.size())
		}
	}
	mode.Store(pass)
	if r := flush(); r.Streamed != 1 || r.Errors != 0 || c.out.size() != 0 {
		t.Fatalf("flush with the replica back = %+v with %d pending, want the write-through delivered", r, c.out.size())
	}
	holds(t, "retried write-through", recv, []CacheItem{owed})
	if got := c.outErrs.Value(); got != 2 {
		t.Errorf("outbox errors = %d, want the 2 failed flushes", got)
	}
	if rep := s.Ring().Replication; rep.Writes != 1 || rep.WriteDrops != 0 {
		t.Errorf("replication writes/drops = %d/%d, want 1/0", rep.Writes, rep.WriteDrops)
	}

	// A pair whose entry is gone is dropped unsent.
	c.out.add(hs.URL, Key("never cached"))
	if r := flush(); r.Batches != 0 || c.out.size() != 0 {
		t.Fatalf("flush of an evicted entry = %+v with %d pending, want it dropped unsent", r, c.out.size())
	}

	// So is one whose target has left the ring.
	gone := CacheItem{Key: Key("target gone"), Val: []advisor.Recommendation{{Kind: variants.CPU, Threads: 8, PredictedUS: 9.5}}}
	s.adviseCache.Add(gone.Key, gone.Val)
	c.out.add(hs.URL, gone.Key)
	c.mem.Leave(hs.URL)
	if r := flush(); r.Batches != 0 || c.out.size() != 0 {
		t.Fatalf("flush after the target left = %+v with %d pending, want the pair dropped unsent", r, c.out.size())
	}
	if _, ok := recv.adviseCache.Peek(gone.Key); ok {
		t.Error("an entry was handed to a peer that no longer owns it")
	}
}

// TestClusterRollingRestartZeroMisses is the tentpole acceptance test: a
// 3-peer RF=2 tier warmed with a key set survives draining, killing and
// rejoining each peer in turn — every replay throughout the roll is
// answered from cache (drain hands keys off, and the survivors' outboxes
// re-warm the rejoined peer before it is asked), so the roll costs zero
// evaluations.
func TestClusterRollingRestartZeroMisses(t *testing.T) {
	peers := startElasticCluster(t, 3, 2, ClusterConfig{})

	var reqs []AdviseRequest
	for i := 0; i < 12; i++ {
		req := bindN(float64(110000 + 16*i))
		reqs = append(reqs, req)
		postAdvise(t, peers[0].url, req)
	}
	waitCond(t, 10*time.Second, "write-through replication", func() bool {
		return totalReplicatedIn(peers) >= 12
	})

	for i := range peers {
		victim := peers[i]
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		report := victim.srv.DrainCluster(ctx)
		cancel()
		if report.Errors != 0 {
			t.Fatalf("round %d: drain errors: %+v", i, report)
		}
		addr := victim.url[len("http://"):]
		victim.kill()

		survivors := []*elasticPeer{peers[(i+1)%3], peers[(i+2)%3]}
		waitRingSize(t, survivors, 2)
		for _, req := range reqs {
			if resp := postAdvise(t, survivors[0].url, req); !resp.Cached {
				t.Fatalf("round %d: n=%v cold on the survivors after drain", i, req.Bindings["n"])
			}
		}

		// Restart on the same address — same ring identity, empty cache —
		// joining through a survivor.
		peers[i] = bootElasticPeer(t, listenOn(t, addr), ClusterConfig{
			Seeds:       []string{survivors[0].url},
			Replication: 2,
		})
		waitRingSize(t, peers, 3)
		// Each survivor starts handing the restarted peer its keys in the
		// flush its own ring change kicks; wait until both have flushed
		// under the three-member ring with nothing left pending.
		waitCond(t, 10*time.Second, "the survivors to hand off to the restarted peer", func() bool {
			for _, p := range survivors {
				c := p.srv.cluster
				c.out.flushMu.Lock()
				done := c.out.ring == c.ring() && c.out.size() == 0
				c.out.flushMu.Unlock()
				if !done {
					return false
				}
			}
			return true
		})
		for _, req := range reqs {
			if resp := postAdvise(t, peers[i].url, req); !resp.Cached {
				t.Fatalf("round %d: n=%v recomputed after the restart (warmth lost)", i, req.Bindings["n"])
			}
		}
	}
}

package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"paragraph/internal/advisor"
	"paragraph/internal/shard"
)

// elasticHeartbeat is the gossip interval for the elastic-membership tests:
// fast enough that joins, evictions and anti-entropy sweeps land within a
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
// the full member list up front, as with cmd/serve -peers).
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

// waitFor polls cond until it holds or the deadline passes.
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
// runtime — no restarts, no synchronized member lists — and both sides
// converge on the same two-member ring under a bumped epoch.
func TestClusterJoinViaSeed(t *testing.T) {
	seed := bootElasticPeer(t, listenOn(t, ""), ClusterConfig{})
	joiner := bootElasticPeer(t, listenOn(t, ""), ClusterConfig{Seeds: []string{seed.url}})
	both := []*elasticPeer{seed, joiner}
	waitRingSize(t, both, 2)

	if !joiner.srv.cluster.joined.Load() {
		t.Error("joiner never marked itself admitted")
	}
	if seed.srv.cluster.joinsIn.Value() == 0 {
		t.Error("seed admitted nobody")
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

	// The joined tier routes: a key each member owns, sent to the joiner, is
	// answered by its owner.
	ring := joiner.srv.cluster.ring()
	for _, owner := range both {
		req := findOwnedBinding(t, ring, owner.url, 60000)
		if resp := postAdvise(t, joiner.url, req); resp.ServedBy != owner.url {
			t.Errorf("n=%v served by %q, want its owner %q", req.Bindings["n"], resp.ServedBy, owner.url)
		}
	}
}

// TestClusterGossipRejectsGarbage: the gossip and join endpoints validate
// their methods and bodies, and the whole surface 409s outside cluster mode.
func TestClusterGossipRejectsGarbage(t *testing.T) {
	peers := startElasticCluster(t, 1, 1, ClusterConfig{Heartbeat: -1})
	s := peers[0].srv
	if rec := doRaw(t, s, http.MethodPost, "/v1/cluster/gossip", []byte("{nope"), ""); rec.Code != http.StatusBadRequest {
		t.Errorf("garbage gossip: %d, want 400", rec.Code)
	}
	if rec := doRaw(t, s, http.MethodPost, "/v1/cluster/gossip", []byte(`{"members":[]}`), ""); rec.Code != http.StatusBadRequest {
		t.Errorf("gossip without sender: %d, want 400", rec.Code)
	}
	if rec := doRaw(t, s, http.MethodGet, "/v1/cluster/join", nil, ""); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET join: %d, want 405", rec.Code)
	}
	if rec := doRaw(t, s, http.MethodPost, "/v1/cluster/join", []byte(`{"peer":"ftp://nope"}`), ""); rec.Code != http.StatusBadRequest {
		t.Errorf("bad join peer URL: %d, want 400", rec.Code)
	}
	if rec := doRaw(t, s, http.MethodGet, "/v1/cluster/what", nil, ""); rec.Code != http.StatusNotFound {
		t.Errorf("unknown cluster endpoint: %d, want 404", rec.Code)
	}
	plain := newTestServer(t)
	if rec := doRaw(t, plain, http.MethodPost, "/v1/cluster/join", []byte(`{}`), ""); rec.Code != http.StatusConflict {
		t.Errorf("cluster endpoint outside cluster mode: %d, want 409", rec.Code)
	}
}

// TestClusterKeysAndEntryEndpoints: the anti-entropy wire surface serves
// the local key list and single entries in the replicate snapshot schema.
func TestClusterKeysAndEntryEndpoints(t *testing.T) {
	peers := startElasticCluster(t, 1, 1, ClusterConfig{Heartbeat: -1})
	p := peers[0]
	req := bindN(42)
	postAdvise(t, p.url, req)
	key := adviseKeyFor(t, req)

	var keys clusterKeysResponse
	if rec := do(t, p.srv, http.MethodGet, "/v1/cluster/keys", nil, &keys); rec.Code != http.StatusOK {
		t.Fatalf("keys: %d", rec.Code)
	}
	if len(keys.Keys) != 1 || keys.Keys[0] != key {
		t.Fatalf("keys = %v, want [%s]", keys.Keys, key)
	}
	if keys.Epoch == 0 {
		t.Error("keys response carries no epoch")
	}

	rec := doRaw(t, p.srv, http.MethodGet, "/v1/cluster/entry?key="+key, nil, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("entry: %d", rec.Code)
	}
	it, err := decodeEntry(rec.Body.Bytes())
	if err != nil || it.Key != key {
		t.Fatalf("entry decode: key=%q err=%v", it.Key, err)
	}
	if _, ok := it.Val.([]advisor.Recommendation); !ok {
		t.Fatalf("entry value type %T, want recommendations", it.Val)
	}
	if rec := doRaw(t, p.srv, http.MethodGet, "/v1/cluster/entry?key=deadbeef", nil, ""); rec.Code != http.StatusNotFound {
		t.Errorf("missing entry: %d, want 404", rec.Code)
	}
	if rec := doRaw(t, p.srv, http.MethodGet, "/v1/cluster/entry", nil, ""); rec.Code != http.StatusBadRequest {
		t.Errorf("entry without key: %d, want 400", rec.Code)
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

	var report DrainReport
	if rec := do(t, a.srv, http.MethodPost, "/v1/cluster/leave", nil, &report); rec.Code != http.StatusOK {
		t.Fatalf("leave: %d", rec.Code)
	}
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

	// A second drain (the SIGTERM after an explicit leave) is a no-op.
	second := a.srv.DrainCluster(context.Background())
	if !second.AlreadyDraining {
		t.Errorf("second drain = %+v, want AlreadyDraining", second)
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

// TestClusterReadRepairServesOwnedMiss: an owned miss whose co-owner holds
// the entry is answered from the co-owner's cache — reported cached, no
// local evaluation — and the repaired entry sticks locally.
func TestClusterReadRepairServesOwnedMiss(t *testing.T) {
	peers := startElasticCluster(t, 2, 2, ClusterConfig{Heartbeat: -1})
	a, b := peers[0], peers[1]

	// A key whose primary is A, planted only in B's cache (the co-owner):
	// exactly the state a just-rejoined A would be in.
	req := findOwnedBinding(t, a.srv.cluster.ring(), a.url, 90000)
	key := adviseKeyFor(t, req)
	kind, err := kindByName("gpu_collapse")
	if err != nil {
		t.Fatal(err)
	}
	planted := []advisor.Recommendation{{Kind: kind, Teams: 64, Threads: 128, PredictedUS: 123.5}}
	body, err := encodeEntries(CacheItem{Key: key, Val: planted})
	if err != nil {
		t.Fatal(err)
	}
	if rec := doRaw(t, b.srv, http.MethodPost, "/v1/replicate", body, a.url); rec.Code != http.StatusOK {
		t.Fatalf("planting entry on B: %d", rec.Code)
	}

	resp := postAdvise(t, a.url, req)
	if !resp.Cached {
		t.Error("read-repaired response not reported cached")
	}
	if len(resp.Recommendations) != 1 || resp.Recommendations[0].PredictedUS != 123.5 {
		t.Fatalf("response %+v did not come from the planted co-owner entry", resp.Recommendations)
	}
	if got := a.srv.cluster.readRepairs.Value(); got != 1 {
		t.Errorf("read repairs = %d, want 1", got)
	}
	// The repair warmed A: the replay is a plain local hit.
	if again := postAdvise(t, a.url, req); !again.Cached {
		t.Error("repaired entry did not stick in the local cache")
	}
	if got := a.srv.cluster.readRepairs.Value(); got != 1 {
		t.Errorf("replay repaired again (%d), want the local cache to answer", got)
	}
}

// TestClusterAntiEntropyWarmsJoinedPeer is the self-healing acceptance
// test: a fresh peer joins a warm RF=2 tier and reaches full replica
// warmth — every owned key resident locally — through the anti-entropy
// sweep alone, no client traffic to it.
func TestClusterAntiEntropyWarmsJoinedPeer(t *testing.T) {
	cfg := ClusterConfig{AntiEntropy: 150 * time.Millisecond}
	peers := startElasticCluster(t, 3, 2, cfg)

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
	waitCond(t, 10*time.Second, "write-through replication", func() bool {
		return totalReplicatedIn(peers) >= uint64(len(reqs))
	})

	joiner := bootElasticPeer(t, joinerLn, ClusterConfig{
		Seeds:       []string{peers[0].url},
		Replication: 2,
		AntiEntropy: 150 * time.Millisecond,
	})
	waitRingSize(t, append(append([]*elasticPeer{}, peers...), joiner), 4)

	// The second sweep counted after the ring reached four members began
	// with that ring, and a sweep is counted only once its pulls are in the
	// cache: so every warmed key has been refilled by then, with no client
	// request reaching the joiner.
	sweeps := joiner.srv.cluster.aeSweeps.Value()
	waitCond(t, 10*time.Second, "two anti-entropy sweeps on the four-member ring", func() bool {
		return joiner.srv.cluster.aeSweeps.Value() >= sweeps+2
	})
	if got := joiner.srv.cluster.aeRefills.Value(); got < uint64(len(reqs)) {
		t.Errorf("anti-entropy refills = %d, want >= %d", got, len(reqs))
	}
	// A replay through the joiner is all local hits: none recomputed, none
	// pulled on demand by read repair.
	for _, req := range reqs {
		if resp := postAdvise(t, joiner.url, req); !resp.Cached || resp.ServedBy != joiner.url {
			t.Errorf("n=%v replayed as cached:%v served_by:%q, want a local hit", req.Bindings["n"], resp.Cached, resp.ServedBy)
		}
	}
	if got := joiner.srv.cluster.readRepairs.Value(); got != 0 {
		t.Errorf("read repairs = %d, want 0: the sweep alone must warm the joiner", got)
	}
}

// TestClusterRollingRestartZeroMisses is the tentpole acceptance test: a
// 3-peer RF=2 tier warmed with a key set survives draining, killing and
// rejoining each peer in turn — every replay throughout the roll is
// answered from cache (drain hands keys off, read repair and anti-entropy
// re-warm the rejoined peer), so the roll costs zero evaluations.
func TestClusterRollingRestartZeroMisses(t *testing.T) {
	cfg := ClusterConfig{AntiEntropy: 150 * time.Millisecond}
	peers := startElasticCluster(t, 3, 2, cfg)

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
			AntiEntropy: 150 * time.Millisecond,
		})
		waitRingSize(t, peers, 3)
		for _, req := range reqs {
			if resp := postAdvise(t, peers[i].url, req); !resp.Cached {
				t.Fatalf("round %d: n=%v recomputed after the restart (warmth lost)", i, req.Bindings["n"])
			}
		}
	}
}

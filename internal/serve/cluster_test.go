package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"paragraph/internal/admit"
	"paragraph/internal/advisor"
	"paragraph/internal/apps"
	"paragraph/internal/gnn"
	"paragraph/internal/hw"
	"paragraph/internal/obs"
	"paragraph/internal/shard"
)

// clusterPeer is one live peer: a Server with identical oracle backends on
// a real listener (forwarding needs real HTTP), in cluster mode.
type clusterPeer struct {
	srv  *Server
	http *httptest.Server
}

// startCluster boots n peers serving identical backends and enables
// cluster mode on each with the full member list (single-owner, rf=1).
func startCluster(t *testing.T, n int) []*clusterPeer {
	t.Helper()
	return startClusterRF(t, n, 1)
}

// startClusterRF is startCluster with a replication factor.
func startClusterRF(t *testing.T, n, rf int) []*clusterPeer {
	t.Helper()
	peers := make([]*clusterPeer, n)
	var urls []string
	for i := range peers {
		s := newTestServer(t)
		hs := httptest.NewServer(s.Handler())
		t.Cleanup(hs.Close)
		peers[i] = &clusterPeer{srv: s, http: hs}
		urls = append(urls, hs.URL)
	}
	for i, p := range peers {
		if err := p.srv.EnableCluster(ClusterConfig{Self: urls[i], Peers: urls, Replication: rf}); err != nil {
			t.Fatal(err)
		}
	}
	return peers
}

// peerByURL maps a base URL back to its peer.
func peerByURL(t *testing.T, peers []*clusterPeer, url string) *clusterPeer {
	t.Helper()
	for _, p := range peers {
		if p.http.URL == url {
			return p
		}
	}
	t.Fatalf("no peer serves %s", url)
	return nil
}

// postAdviseErr sends one advise request over real HTTP and decodes the
// reply; safe to call from any goroutine.
func postAdviseErr(base string, req AdviseRequest) (AdviseResponse, error) {
	var out AdviseResponse
	body, err := json.Marshal(req)
	if err != nil {
		return out, err
	}
	resp, err := http.Post(base+"/v1/advise", "application/json", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("advise at %s: %d", base, resp.StatusCode)
	}
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

// postAdvise is postAdviseErr for the test goroutine: failures are fatal.
func postAdvise(t *testing.T, base string, req AdviseRequest) AdviseResponse {
	t.Helper()
	out, err := postAdviseErr(base, req)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func bindN(n float64) AdviseRequest {
	req := adviseReq("NVIDIA V100 (GPU)")
	req.Bindings = map[string]float64{"n": n}
	return req
}

// TestClusterForwardsToOwner is the tier's acceptance test: across a
// spread of requests sent to one peer, keys owned by the other peer are
// forwarded (nonzero forward counters, responses attributed to the owner),
// and sending the same request to either peer yields byte-identical
// rankings.
func TestClusterForwardsToOwner(t *testing.T) {
	peers := startCluster(t, 2)
	a, b := peers[0], peers[1]

	forwarded := 0
	for i := 0; i < 16; i++ {
		req := bindN(float64(64 + 16*i))
		fromA := postAdvise(t, a.http.URL, req)
		if fromA.ServedBy == "" {
			t.Fatal("cluster-mode response has no served_by")
		}
		if fromA.ServedBy == b.http.URL {
			forwarded++
		}
		// The same request through the other peer must carry the identical
		// ranking (and the same owner), no matter who received it.
		fromB := postAdvise(t, b.http.URL, req)
		aj, _ := json.Marshal(fromA.Recommendations)
		bj, _ := json.Marshal(fromB.Recommendations)
		if !bytes.Equal(aj, bj) {
			t.Fatalf("rankings differ across receiving peers for n=%v:\n%s\n%s",
				req.Bindings["n"], aj, bj)
		}
		if fromA.ServedBy != fromB.ServedBy {
			t.Errorf("n=%v attributed to %s via A but %s via B",
				req.Bindings["n"], fromA.ServedBy, fromB.ServedBy)
		}
	}
	if forwarded == 0 {
		t.Fatal("no request sent to peer A was owned by peer B; ring partitioning broken")
	}

	ringA := a.srv.Ring()
	if !ringA.Enabled || len(ringA.Members) != 2 {
		t.Fatalf("ring view = %+v", ringA)
	}
	var fwdToB uint64
	for _, m := range ringA.Members {
		if m.Peer == b.http.URL {
			fwdToB = m.Forwards
		}
	}
	if fwdToB == 0 {
		t.Error("peer A's ring stats show no forwards to peer B")
	}
	if b.srv.Ring().ForwardedIn == 0 {
		t.Error("peer B never observed a forwarded-in request")
	}
	// The tier is cache-coherent: replaying a request through the non-owner
	// is a cache hit on the owner.
	req := bindN(64)
	replay := postAdvise(t, a.http.URL, req)
	if !replay.Cached && replay.ServedBy != a.http.URL {
		t.Errorf("replayed forwarded request not served from the owner's cache: %+v", replay)
	}
}

// TestClusterDegradesWhenPeerDies: with the owner gone, the surviving peer
// answers everything itself — fallback counters move, requests never fail.
func TestClusterDegradesWhenPeerDies(t *testing.T) {
	peers := startCluster(t, 2)
	a, b := peers[0], peers[1]
	b.http.Close() // peer B vanishes (crash, deploy, partition)

	for i := 0; i < 16; i++ {
		resp := postAdvise(t, a.http.URL, bindN(float64(1000+16*i)))
		if resp.ServedBy != a.http.URL {
			t.Fatalf("with the only other peer dead, served_by = %q", resp.ServedBy)
		}
		if len(resp.Recommendations) == 0 {
			t.Fatal("degraded serving returned an empty ranking")
		}
	}
	ring := a.srv.Ring()
	if ring.LocalFallbacks == 0 {
		t.Error("peer A served everything without recording any local fallback")
	}
}

// TestClusterLoopGuard: a request already forwarded once is answered
// locally even by a non-owner, so disagreeing rings cannot cycle requests.
func TestClusterLoopGuard(t *testing.T) {
	peers := startCluster(t, 2)
	a, b := peers[0], peers[1]

	// Find a request owned by B, then send it to A pre-marked as forwarded:
	// A must serve it itself instead of bouncing it onward.
	for i := 0; i < 32; i++ {
		req := bindN(float64(5000 + 16*i))
		probe := postAdvise(t, b.http.URL, req)
		if probe.ServedBy != b.http.URL {
			continue // B forwarded it to A; want a B-owned key
		}
		body, _ := json.Marshal(req)
		hreq, _ := http.NewRequest(http.MethodPost, a.http.URL+"/v1/advise", bytes.NewReader(body))
		hreq.Header.Set(shard.ForwardedByHeader, "http://third-party:1")
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		var out AdviseResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if out.ServedBy != a.http.URL {
			t.Fatalf("pre-forwarded request was re-forwarded to %q", out.ServedBy)
		}
		if a.srv.Ring().ForwardedIn == 0 {
			t.Error("forwarded-in counter did not move")
		}
		return
	}
	t.Skip("no B-owned key found in 32 probes (astronomically unlikely)")
}

// adviseKeyFor replicates handleAdvise's cache-key derivation so tests can
// pick bindings with a known ring owner without sending probe traffic.
func adviseKeyFor(t *testing.T, req AdviseRequest) string {
	t.Helper()
	k, ok := apps.ByName(req.Kernel)
	if !ok {
		t.Fatalf("unknown kernel %q", req.Kernel)
	}
	space := req.Space.space()
	return Key("advise", req.Machine, "default", kernelKey(k), advisor.BindingsKey(req.Bindings),
		fmtInts(space.CPUThreads), fmtInts(space.GPUTeams), fmtInts(space.GPUThreads))
}

// findOwnedBinding returns an advise request whose cache key is owned by
// the wanted peer, found by key computation alone (no traffic, no cache
// warming).
func findOwnedBinding(t *testing.T, ring *shard.Ring, owner string, from float64) AdviseRequest {
	t.Helper()
	for n := from; n < from+512; n++ {
		req := bindN(n)
		if ring.Owner(adviseKeyFor(t, req)) == owner {
			return req
		}
	}
	t.Fatalf("no binding owned by %s in 512 candidates", owner)
	return AdviseRequest{}
}

// TestClusterForwardedInCountsCacheHits: a forwarded request answered from
// the owner's cache still counts in the owner's forwarded_in — the counter
// tracks forwarded arrivals, not just forwarded misses.
func TestClusterForwardedInCountsCacheHits(t *testing.T) {
	peers := startCluster(t, 2)
	a, b := peers[0], peers[1]
	req := findOwnedBinding(t, b.srv.cluster.ring(), b.http.URL, 9000)

	// Warm the owner directly (no forwarding involved)...
	if warm := postAdvise(t, b.http.URL, req); warm.ServedBy != b.http.URL {
		t.Fatalf("B-owned key served by %q", warm.ServedBy)
	}
	before := b.srv.Ring().ForwardedIn
	// ...then reach the warm key through the non-owner: the forward lands as
	// a cache hit on B and must still move B's forwarded_in.
	via := postAdvise(t, a.http.URL, req)
	if !via.Cached || via.ServedBy != b.http.URL {
		t.Fatalf("forwarded warm request = cached:%v served_by:%q, want owner cache hit",
			via.Cached, via.ServedBy)
	}
	if got := b.srv.Ring().ForwardedIn; got != before+1 {
		t.Errorf("owner forwarded_in = %d, want %d (cache-hit forwards must count)", got, before+1)
	}
}

// TestClusterForwardKeepsClientLane: a cold miss forwarded to its owner
// is queued in the origin client's fair-queue lane, not in one lane for
// the forwarding peer — two client ids sent through the non-owner show up
// as two clients in the owner's /v1/stats.
func TestClusterForwardKeepsClientLane(t *testing.T) {
	peers := startCluster(t, 2)
	a, b := peers[0], peers[1]
	ring := b.srv.cluster.ring()
	first := findOwnedBinding(t, ring, b.http.URL, 9000)
	second := findOwnedBinding(t, ring, b.http.URL, first.Bindings["n"]+1)
	for client, req := range map[string]AdviseRequest{"alice": first, "bob": second} {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		hr, err := http.NewRequest(http.MethodPost, a.http.URL+"/v1/advise", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		hr.Header.Set(admit.ClientHeader, client)
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		var out AdviseResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || out.ServedBy != b.http.URL || out.Cached {
			t.Fatalf("%s: served_by %q cached %v (%v), want a cold answer from the owner", client, out.ServedBy, out.Cached, err)
		}
	}
	resp, err := http.Get(b.http.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Admit struct {
			Clients []struct {
				Client   string `json:"client"`
				Admitted uint64 `json:"admitted"`
			} `json:"clients"`
		} `json:"admit"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	got := map[string]uint64{}
	for _, c := range st.Admit.Clients {
		got[c.Client] = c.Admitted
	}
	if len(got) != 2 || got["alice"] != 1 || got["bob"] != 1 {
		t.Errorf("owner admit.clients = %v, want alice and bob admitted once each", got)
	}
}

// slowOracle is oracleModel with a per-batch delay, stretching the owner's
// evaluation window so concurrent misses at the non-owner demonstrably
// overlap one in-flight forward.
type slowOracle struct{ d time.Duration }

func (m slowOracle) PredictBatch(ss []*gnn.Sample) []float64 {
	time.Sleep(m.d)
	return oracleModel{}.PredictBatch(ss)
}

// TestClusterForwardCollapsesConcurrentMisses: identical concurrent misses
// at a non-owner share one proxied hop (forward-or-evaluate runs inside
// the singleflight), instead of each holding a connection to the owner.
func TestClusterForwardCollapsesConcurrentMisses(t *testing.T) {
	build := func(model advisor.BatchPredictor) *Server {
		s, err := NewServer([]Backend{{Machine: hw.V100(), Model: model, Prep: testPrep()}}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	a := build(oracleModel{})
	b := build(slowOracle{d: 30 * time.Millisecond})
	ha, hb := httptest.NewServer(a.Handler()), httptest.NewServer(b.Handler())
	t.Cleanup(ha.Close)
	t.Cleanup(hb.Close)
	urls := []string{ha.URL, hb.URL}
	for _, s := range []*Server{a, b} {
		self := urls[0]
		if s == b {
			self = urls[1]
		}
		if err := s.EnableCluster(ClusterConfig{Self: self, Peers: urls}); err != nil {
			t.Fatal(err)
		}
	}

	req := findOwnedBinding(t, a.cluster.ring(), hb.URL, 7000)
	const clients = 8
	var wg sync.WaitGroup
	var mu sync.Mutex
	var bodies [][]byte
	start := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := postAdviseErr(ha.URL, req)
			if err != nil {
				t.Error(err)
				return
			}
			j, _ := json.Marshal(resp.Recommendations)
			mu.Lock()
			bodies = append(bodies, j)
			mu.Unlock()
		}()
	}
	close(start)
	wg.Wait()

	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("concurrent responses diverge:\n%s\n%s", bodies[0], bodies[i])
		}
	}
	var fwd uint64
	for _, m := range a.Ring().Members {
		if m.Peer == hb.URL {
			fwd = m.Forwards
		}
	}
	if fwd == 0 {
		t.Fatal("no forward reached the owner")
	}
	if fwd == clients {
		t.Errorf("all %d concurrent identical misses forwarded separately; singleflight did not collapse them", clients)
	}
	t.Logf("%d concurrent identical misses -> %d forwards to the owner", clients, fwd)
}

// waitReplicated waits until the peer has accepted at least want entries
// via /v1/replicate — write-through is asynchronous, so tests must wait
// for it to land before acting on it.
func waitReplicated(t *testing.T, p *clusterPeer, want uint64) {
	t.Helper()
	waitCond(t, 10*time.Second, fmt.Sprintf("%s to accept %d replicated entries", p.http.URL, want), func() bool {
		return p.srv.cluster.replicatedIn.Value() >= want
	})
}

// TestClusterReplicationSurvivesPrimaryDeath is the RF=2 acceptance test:
// warming a key on its primary writes the entry through to the replica, so
// after the primary is killed the same request — sent to a peer that owns
// nothing of it — is answered from the replica's cache (a replica hit, not
// a recomputation). One peer death loses no warmth.
func TestClusterReplicationSurvivesPrimaryDeath(t *testing.T) {
	peers := startClusterRF(t, 3, 2)
	ring := peers[0].srv.cluster.ring()

	// Pick a request whose full owner list we know up front.
	req := findOwnedBinding(t, ring, peers[0].http.URL, 20000)
	owners := ring.Owners(adviseKeyFor(t, req), 2)
	primary := peerByURL(t, peers, owners[0])
	replica := peerByURL(t, peers, owners[1])
	var third *clusterPeer
	for _, p := range peers {
		if p != primary && p != replica {
			third = p
		}
	}

	// Warm the primary directly: it evaluates, caches, and write-throughs.
	warm := postAdvise(t, primary.http.URL, req)
	if warm.Cached || warm.ServedBy != primary.http.URL {
		t.Fatalf("warm request = cached:%v served_by:%q, want a primary evaluation",
			warm.Cached, warm.ServedBy)
	}
	waitReplicated(t, replica, 1)
	if pr := primary.srv.Ring().Replication; pr == nil || pr.Writes == 0 {
		t.Fatalf("primary recorded no replication writes: %+v", pr)
	}
	if rr := replica.srv.Ring().Replication; rr == nil || rr.ReplicatedIn == 0 {
		t.Fatalf("replica recorded no replicated-in entries: %+v", rr)
	}

	// The primary dies. A non-owner must now get the warmed answer through
	// the replica — cached, attributed to the replica, counted as a
	// replica hit, with no local_fallback (the tier never degraded).
	primary.http.Close()
	resp := postAdvise(t, third.http.URL, req)
	if !resp.Cached {
		t.Fatalf("post-death request recomputed (cached=false): %+v", resp)
	}
	if resp.ServedBy != replica.http.URL {
		t.Fatalf("post-death request served by %q, want the replica %q",
			resp.ServedBy, replica.http.URL)
	}
	tr := third.srv.Ring()
	if tr.Replication == nil || tr.Replication.ReplicaHits == 0 {
		t.Errorf("forwarding peer recorded no replica hit: %+v", tr.Replication)
	}
	if tr.LocalFallbacks != 0 {
		t.Errorf("replica failover counted %d local fallbacks, want 0", tr.LocalFallbacks)
	}

	// Asked directly, the replica serves its copy as a plain local hit.
	direct := postAdvise(t, replica.http.URL, req)
	if !direct.Cached || direct.ServedBy != replica.http.URL {
		t.Errorf("replica direct hit = cached:%v served_by:%q", direct.Cached, direct.ServedBy)
	}
}

// TestClusterReplicaMissForwardsToPrimary: a replica that misses still
// routes the request to the primary — the primary's cache and singleflight
// keep absorbing all of the key's traffic, and the write-through then
// lands the entry on the replica for failover.
func TestClusterReplicaMissForwardsToPrimary(t *testing.T) {
	peers := startClusterRF(t, 3, 2)
	ring := peers[0].srv.cluster.ring()

	req := findOwnedBinding(t, ring, peers[0].http.URL, 30000)
	owners := ring.Owners(adviseKeyFor(t, req), 2)
	primary := peerByURL(t, peers, owners[0])
	replica := peerByURL(t, peers, owners[1])

	resp := postAdvise(t, replica.http.URL, req)
	if resp.ServedBy != primary.http.URL {
		t.Fatalf("replica miss served by %q, want forwarded to the primary %q",
			resp.ServedBy, primary.http.URL)
	}
	// The primary's evaluation is written through to the replica, which
	// then answers the same request from its own cache.
	waitReplicated(t, replica, 1)
	direct := postAdvise(t, replica.http.URL, req)
	if !direct.Cached || direct.ServedBy != replica.http.URL {
		t.Errorf("replicated key on the replica = cached:%v served_by:%q, want a local hit",
			direct.Cached, direct.ServedBy)
	}
}

// TestClusterColdMissPeerTraffic pins what a cold owned miss costs the
// key's co-owner at rf 2: no /v1/cluster/* request, since nothing probes
// it before the evaluation, and at most one /v1/replicate per miss, since
// the outbox may carry several write-throughs in one batch. These are
// exact counts, read as deltas of the co-owner's /v1/stats.
func TestClusterColdMissPeerTraffic(t *testing.T) {
	peers := startElasticCluster(t, 3, 2, ClusterConfig{Heartbeat: -1})
	a, b := peers[0], peers[1]
	ring := a.srv.cluster.ring()
	const misses = 4
	var reqs []AdviseRequest
	for n := 130000.0; len(reqs) < misses; n++ {
		if n == 132000 {
			t.Fatalf("no %d keys owned by [A, B] in 2000 candidates", misses)
		}
		if req := bindN(n); slices.Equal(ring.Owners(adviseKeyFor(t, req), 2), []string{a.url, b.url}) {
			reqs = append(reqs, req)
		}
	}

	before := b.srv.snapshot().Requests
	for _, req := range reqs {
		if resp := postAdvise(t, a.url, req); resp.Cached || resp.ServedBy != a.url {
			t.Fatalf("n=%v answered cached:%v served_by:%q, want a cold evaluation on A", req.Bindings["n"], resp.Cached, resp.ServedBy)
		}
	}
	waitCond(t, 10*time.Second, "the write-throughs to land", func() bool {
		return b.srv.cluster.replicatedIn.Value() >= misses
	})
	after := b.srv.snapshot().Requests
	if got := after.Cluster - before.Cluster; got != 0 {
		t.Errorf("%d cold misses cost the co-owner %d /v1/cluster/* requests, want 0", misses, got)
	}
	if got := after.Replicate - before.Replicate; got < 1 || got > misses {
		t.Errorf("%d cold misses cost the co-owner %d /v1/replicate requests, want 1..%d", misses, got, misses)
	}
}

// TestClusterReplicationFactorClamp: rf above the cluster size is clamped
// to it, and rf=1 reports no replication section at all — the RF=1 wire
// format stays byte-identical to the pre-replication tier.
func TestClusterReplicationFactorClamp(t *testing.T) {
	clamped := startClusterRF(t, 2, 99)
	if rep := clamped[0].srv.Ring().Replication; rep == nil || rep.Factor != 2 {
		t.Errorf("rf=99 on 2 peers reports %+v, want factor clamped to 2", rep)
	}

	plain := startCluster(t, 2)
	ring := plain[0].srv.Ring()
	if ring.Replication != nil {
		t.Errorf("rf=1 tier reports a replication section: %+v", ring.Replication)
	}
	raw, err := json.Marshal(ring)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"replication", "key_owners"} {
		if bytes.Contains(raw, []byte(field)) {
			t.Errorf("rf=1 ring payload leaks %q: %s", field, raw)
		}
	}

	s := newTestServer(t)
	if err := s.EnableCluster(ClusterConfig{Self: "http://a:1", Peers: []string{"http://b:2"}, Replication: -1}); err == nil {
		t.Error("negative replication factor accepted")
	}
}

// TestReplicateEndpoint covers the write-through receiver: it rejects
// non-cluster servers and malformed bodies, and an accepted entry becomes
// a local cache hit.
func TestReplicateEndpoint(t *testing.T) {
	plain := newTestServer(t)
	var e errorResponse
	if rec := do(t, plain, http.MethodPost, "/v1/replicate", map[string]int{"version": 1}, &e); rec.Code != http.StatusConflict {
		t.Errorf("replicate outside cluster mode: %d %q", rec.Code, e.Error)
	}

	peers := startClusterRF(t, 2, 2)
	a := peers[0]

	// A valid single-entry snapshot from a ring member is accepted and
	// immediately servable.
	req := bindN(40000)
	key := adviseKeyFor(t, req)
	body, err := encodeEntries(CacheItem{Key: key, Val: []advisor.Recommendation{{Threads: 8, PredictedUS: 123}}})
	if err != nil {
		t.Fatal(err)
	}
	rec := doRaw(t, a.srv, http.MethodPost, "/v1/replicate", body, peers[1].http.URL)
	var accepted struct {
		Accepted int `json:"accepted"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &accepted); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || accepted.Accepted != 1 {
		t.Fatalf("replicate = %d %+v, want one accepted entry", rec.Code, accepted)
	}
	if rep := a.srv.Ring().Replication; rep == nil || rep.ReplicatedIn != 1 {
		t.Errorf("replicated_in after accepted write = %+v", rep)
	}
	if _, ok := a.srv.adviseCache.Get(key); !ok {
		t.Error("accepted replicate entry not in the cache")
	}

	// Writes without a ring-member identity, from a non-member, malformed,
	// or with the wrong method are rejected without side effects.
	if rec := doRaw(t, a.srv, http.MethodPost, "/v1/replicate", body, ""); rec.Code != http.StatusForbidden {
		t.Errorf("replicate without a member identity: %d", rec.Code)
	}
	if rec := doRaw(t, a.srv, http.MethodPost, "/v1/replicate", body, "http://outsider:1"); rec.Code != http.StatusForbidden {
		t.Errorf("replicate from a non-member: %d", rec.Code)
	}
	if rec := doRaw(t, a.srv, http.MethodPost, "/v1/replicate", []byte("{not json"), peers[1].http.URL); rec.Code != http.StatusBadRequest {
		t.Errorf("malformed replicate body: %d", rec.Code)
	}
	if rec := doRaw(t, a.srv, http.MethodGet, "/v1/replicate", nil, peers[1].http.URL); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/replicate: %d", rec.Code)
	}
}

// doRaw sends raw bytes through the handler, optionally identifying the
// sender via the forwarded-by header ("" leaves it unset).
func doRaw(t *testing.T, s *Server, method, path string, body []byte, forwardedBy string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if forwardedBy != "" {
		req.Header.Set(shard.ForwardedByHeader, forwardedBy)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// TestRingKeyOwnersQuery: GET /v1/ring?key=K reports the key's owner list
// (primary first) straight off the ring.
func TestRingKeyOwnersQuery(t *testing.T) {
	peers := startClusterRF(t, 3, 2)
	a := peers[0]
	var ring RingResponse
	if rec := do(t, a.srv, http.MethodGet, "/v1/ring?key=somekey", nil, &ring); rec.Code != http.StatusOK {
		t.Fatalf("/v1/ring?key=: %d", rec.Code)
	}
	if ring.KeyOwners == nil || ring.KeyOwners.Key != "somekey" || len(ring.KeyOwners.Owners) != 2 {
		t.Fatalf("key_owners = %+v, want 2 owners for somekey", ring.KeyOwners)
	}
	if want := a.srv.cluster.ring().Owners("somekey", 2); ring.KeyOwners.Owners[0] != want[0] || ring.KeyOwners.Owners[1] != want[1] {
		t.Errorf("key_owners = %v, ring says %v", ring.KeyOwners.Owners, want)
	}
}

// TestRingEndpointOutsideCluster: a plain server answers /v1/ring with
// enabled=false and keeps stats clusterless.
func TestRingEndpointOutsideCluster(t *testing.T) {
	s := newTestServer(t)
	var ring RingResponse
	if rec := do(t, s, http.MethodGet, "/v1/ring", nil, &ring); rec.Code != http.StatusOK {
		t.Fatalf("/v1/ring: %d", rec.Code)
	}
	if ring.Enabled || ring.Self != "" || len(ring.Members) != 0 {
		t.Errorf("clusterless ring view = %+v", ring)
	}
	var st Stats
	do(t, s, http.MethodGet, "/v1/stats", nil, &st)
	if st.Cluster != nil {
		t.Errorf("clusterless stats carry a cluster section: %+v", st.Cluster)
	}
	if st.Requests.Ring != 1 {
		t.Errorf("ring request counter = %d, want 1", st.Requests.Ring)
	}
}

// TestEnableClusterValidation covers config rejection and the self-healing
// member list (self absent from peers is added).
func TestEnableClusterValidation(t *testing.T) {
	bad := []ClusterConfig{
		{Self: "", Peers: []string{"http://a:1"}},
		{Self: "not-a-url", Peers: []string{"http://a:1"}},
		{Self: "ftp://a:1", Peers: []string{"http://b:2"}},
		{Self: "http://a:1", Peers: []string{"http://b:2/path"}},
	}
	for i, cfg := range bad {
		s := newTestServer(t)
		if err := s.EnableCluster(cfg); err == nil {
			t.Errorf("case %d: EnableCluster(%+v) accepted", i, cfg)
		}
	}

	s := newTestServer(t)
	if err := s.EnableCluster(ClusterConfig{
		Self:  "http://a:1",
		Peers: []string{"http://b:2/", "http://c:3"}, // self omitted, trailing slash
	}); err != nil {
		t.Fatal(err)
	}
	ring := s.Ring()
	if len(ring.Members) != 3 {
		t.Fatalf("members = %+v, want self added for 3 total", ring.Members)
	}
	sum := 0.0
	for _, m := range ring.Members {
		if m.Peer != "http://a:1" && m.Peer != "http://b:2" && m.Peer != "http://c:3" {
			t.Errorf("unexpected member %q", m.Peer)
		}
		sum += m.Ownership
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("ownership fractions sum to %v", sum)
	}
	if err := s.EnableCluster(ClusterConfig{Self: "http://a:1"}); err == nil {
		t.Error("second EnableCluster accepted")
	}
}

// TestClusterStatsSection: in cluster mode /v1/stats embeds the ring view.
func TestClusterStatsSection(t *testing.T) {
	peers := startCluster(t, 2)
	var st Stats
	resp, err := http.Get(peers[0].http.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Cluster == nil || !st.Cluster.Enabled || st.Cluster.Self != peers[0].http.URL {
		t.Fatalf("stats cluster section = %+v", st.Cluster)
	}
	if len(st.Cluster.Members) != 2 {
		t.Errorf("stats cluster members = %+v", st.Cluster.Members)
	}
}

// postAdviseTraced is postAdvise with an explicit trace id on the request,
// for asserting cross-peer trace propagation.
func postAdviseTraced(t *testing.T, base string, req AdviseRequest, traceID string) AdviseResponse {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, base+"/v1/advise", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(obs.TraceHeader, traceID)
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced advise at %s: %d", base, resp.StatusCode)
	}
	var out AdviseResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// findTrace returns the retained trace with the given id and endpoint.
func findTrace(tr *obs.Tracer, id, endpoint string) (obs.FinishedTrace, bool) {
	for _, ft := range tr.Recent(0) {
		if ft.ID == id && ft.Endpoint == endpoint {
			return ft, true
		}
	}
	return obs.FinishedTrace{}, false
}

// TestClusterTracePropagation: one trace id, sent with the request to a
// non-owning peer, must stitch the request's path together — the origin's
// trace records the forwarded hop, and the owner finishes a trace under
// the same id for the evaluation. (The write-through to a replica is not
// on the request's path and carries no trace id.)
func TestClusterTracePropagation(t *testing.T) {
	peers := startClusterRF(t, 3, 2)
	origin := peers[0]

	var traceID string
	var resp AdviseResponse
	for i := 0; i < 64 && traceID == ""; i++ {
		id := fmt.Sprintf("prop-%d", i)
		out := postAdviseTraced(t, origin.http.URL, bindN(float64(64+16*i)), id)
		if out.ServedBy != "" && out.ServedBy != origin.http.URL {
			traceID, resp = id, out
		}
	}
	if traceID == "" {
		t.Fatal("no request sent to the origin peer was owned elsewhere; ring partitioning broken")
	}

	// Origin: an advise trace under the ingress id whose forward span names
	// the peer that answered.
	ft, ok := findTrace(origin.srv.tracer, traceID, "advise")
	if !ok {
		t.Fatalf("origin retained no advise trace %q", traceID)
	}
	if ft.Status != http.StatusOK {
		t.Fatalf("origin trace status = %d, want 200", ft.Status)
	}
	forwarded := false
	for _, sp := range ft.Spans {
		if sp.Name == "forward" {
			forwarded = true
			if sp.Detail != resp.ServedBy {
				t.Errorf("forward span names %q, but %q served the request", sp.Detail, resp.ServedBy)
			}
		}
	}
	if !forwarded {
		t.Errorf("origin trace has no forward span: %+v", ft.Spans)
	}

	// Owner: the same id covers the actual evaluation on the serving peer.
	owner := peerByURL(t, peers, resp.ServedBy)
	oft, ok := findTrace(owner.srv.tracer, traceID, "advise")
	if !ok {
		t.Fatalf("serving peer retained no advise trace %q", traceID)
	}
	names := map[string]bool{}
	for _, sp := range oft.Spans {
		names[sp.Name] = true
	}
	if !names["predict"] {
		t.Errorf("owner trace spans %v, want a predict span", names)
	}
}

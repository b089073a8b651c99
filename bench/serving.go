package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sync"
	"time"

	"paragraph/internal/serve"
	"paragraph/internal/shard"
)

// serving is a set-up serving workload: running children, ready to be
// measured.
type serving struct {
	procs  []*serveProc // every child, receiver first
	target string       // the child the clients talk to
	owner  string       // ring_forward: the member that owns every key ("" elsewhere)
	expect expect
	keys   []request // the warm key set (nil for advise_cold)
	ops    int       // requests sent while setting up
}

func (s *serving) stop() {
	// Children are signalled together so ring members do not wait out each
	// other's departure drain one after the other.
	var wg sync.WaitGroup
	for _, p := range s.procs {
		wg.Add(1)
		go func(p *serveProc) { defer wg.Done(); p.stop() }(p)
	}
	wg.Wait()
}

// getJSON fetches one of the children's GET endpoints.
func getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// sendAll posts every request once to target from two closed-loop clients
// per CPU — whatever the measured loop uses, set-up work is the same — and
// returns the answers in request order. It is the cache fill and the ring's
// ownership probe: every request is new to the child, so every answer must
// be a fresh evaluation.
func (e *env) sendAll(ctx context.Context, target string, reqs []request) ([]*serve.AdviseResponse, error) {
	clients := 2 * loadCPUs()
	out := make([]*serve.AdviseResponse, len(reqs))
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			var buf bytes.Buffer
			for i := c; i < len(reqs); i += clients {
				status, err := post(ctx, client, target+"/v1/advise", reqs[i].Body, &buf)
				if err == nil {
					out[i], err = checkResponse(&reqs[i], status, buf.Bytes(), expect{cached: false})
				}
				if err != nil {
					errs[c] = fmt.Errorf("set-up request %d: %w", i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// setupCold starts one child; advise_cold needs nothing else.
func setupCold(ctx context.Context, e *env, _ *generator) (*serving, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	p, err := startServe(ctx, e.serveBin, e.modelDir, e.nextLog("advise_cold"), addr, nil)
	if err != nil {
		return nil, err
	}
	return &serving{procs: []*serveProc{p}, target: p.url, expect: expect{cached: false}}, nil
}

// setupWarm starts one child and fills its advise cache with the warm set,
// then confirms the fill evicted nothing.
func setupWarm(ctx context.Context, e *env, gen *generator) (*serving, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	p, err := startServe(ctx, e.serveBin, e.modelDir, e.nextLog("advise_warm"), addr, nil)
	if err != nil {
		return nil, err
	}
	sv := &serving{procs: []*serveProc{p}, target: p.url, expect: expect{cached: true}, keys: gen.warmSet()}
	if _, err := e.sendAll(ctx, p.url, sv.keys); err != nil {
		sv.stop()
		return nil, err
	}
	sv.ops = len(sv.keys)
	var st serve.Stats
	if err := getJSON(ctx, p.url+"/v1/stats", &st); err != nil {
		sv.stop()
		return nil, err
	}
	if st.AdviseCache.Evictions != 0 || st.AdviseCache.Entries < len(sv.keys) {
		sv.stop()
		return nil, fmt.Errorf("warm fill: %d entries, %d evictions for %d keys", st.AdviseCache.Entries, st.AdviseCache.Evictions, len(sv.keys))
	}
	return sv, nil
}

// ringProbeBatch is how many stream requests the ring set-up probes at a
// time while looking for keys the second member owns.
const ringProbeBatch = 32

// evenSplitAddr picks a free address for the ring's second member such that
// the two-member ring — whose ownership is a hash of the members' URLs, so
// of their ports — gives it between 49 % and 51 % of the key space. Without
// this the share swings between about 40 % and 60 % from boot to boot, and
// the set-up's probe count, so setup_s, with it.
func evenSplitAddr(first string) (string, error) {
	for tries := 0; tries < 1000; tries++ {
		addr, err := freeAddr()
		if err != nil {
			return "", err
		}
		ring, err := shard.NewRing([]string{first, "http://" + addr}, 0)
		if err != nil {
			return "", err
		}
		if share := ring.Ownership()["http://"+addr]; share >= 0.49 && share <= 0.51 {
			return addr, nil
		}
	}
	return "", fmt.Errorf("no free port gives the second ring member an even share")
}

// setupRing starts A (seeding itself) and B (joining through A) on a port
// that splits the ring evenly, waits for both to see a two-member ring, and
// walks the request stream through A until it has as many B-owned keys as
// the warm set: an answer served by B means the key is B's and is now warm
// in B's cache. Each key's ownership is then confirmed with
// GET /v1/ring?key=.
func setupRing(ctx context.Context, e *env, gen *generator) (*serving, error) {
	addrA, err := freeAddr()
	if err != nil {
		return nil, err
	}
	a, err := startServe(ctx, e.serveBin, e.modelDir, e.nextLog("ring_forward-a"), addrA, &ringRole{})
	if err != nil {
		return nil, err
	}
	sv := &serving{procs: []*serveProc{a}, target: a.url}
	addrB, err := evenSplitAddr(a.url)
	if err != nil {
		sv.stop()
		return nil, err
	}
	b, err := startServe(ctx, e.serveBin, e.modelDir, e.nextLog("ring_forward-b"), addrB, &ringRole{seed: a.url})
	if err != nil {
		sv.stop()
		return nil, err
	}
	sv.procs = append(sv.procs, b)
	sv.owner = b.url
	sv.expect = expect{cached: true, servedBy: b.url}
	if err := waitRing(ctx, []string{a.url, b.url}); err != nil {
		sv.stop()
		return nil, err
	}

	keys, ops, err := e.selectOwned(ctx, a.url, b.url, gen, gen.sizes*len(gen.kernels))
	sv.keys, sv.ops = keys, ops
	if err != nil {
		sv.stop()
		return nil, err
	}
	return sv, nil
}

// selectOwned walks the request stream through receiver until want
// requests have been answered by owner, and returns those requests — now
// warm in owner's cache — plus how many requests it sent. Each selected
// key's ownership is confirmed with the receiver's GET /v1/ring?key=.
func (e *env) selectOwned(ctx context.Context, receiver, owner string, gen *generator, want int) ([]request, int, error) {
	var keys []request
	var keyIDs []string
	ops := 0
	for next := 0; len(keys) < want; next += ringProbeBatch {
		batch := make([]request, ringProbeBatch)
		for i := range batch {
			batch[i] = gen.at(next + i)
		}
		answers, err := e.sendAll(ctx, receiver, batch)
		if err != nil {
			return nil, ops, err
		}
		ops += len(batch)
		for i, ans := range answers {
			if ans.ServedBy == owner && len(keys) < want {
				keys = append(keys, batch[i])
				keyIDs = append(keyIDs, ans.Key)
			}
		}
	}
	for _, id := range keyIDs {
		var ring serve.RingResponse
		if err := getJSON(ctx, receiver+"/v1/ring?key="+url.QueryEscape(id), &ring); err != nil {
			return nil, ops, err
		}
		if ring.KeyOwners == nil || len(ring.KeyOwners.Owners) == 0 || ring.KeyOwners.Owners[0] != owner {
			return nil, ops, fmt.Errorf("ring key %s: owners %+v, want %s first", id, ring.KeyOwners, owner)
		}
	}
	return keys, ops, nil
}

// waitRing polls every member's /v1/ring until each reports itself joined
// and lists all members.
func waitRing(ctx context.Context, members []string) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for {
		ready := 0
		for _, m := range members {
			var ring serve.RingResponse
			if err := getJSON(ctx, m+"/v1/ring", &ring); err == nil &&
				ring.Membership != nil && ring.Membership.Joined && len(ring.Members) == len(members) {
				ready++
			}
		}
		if ready == len(members) {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("ring of %d did not form: %w", len(members), ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// maxColdRate and maxHitRate bound, per client, how many requests a second
// the pre-generated sequences cover: thirty and five times the reference
// box's rates. A client that outruns its sequence wraps around, which
// advise_cold's oracle reports (a repeated key answers cached).
const (
	maxColdRate = 1000
	maxHitRate  = 20000
)

// sequences generates every client's request sequence for one run, before
// any clock starts. keys is the warm key set (nil for advise_cold).
func (e *env) sequences(gen *generator, keys []request, seconds float64) func(c, t int) *request {
	if keys == nil {
		n := int(maxColdRate * seconds)
		seqs := make([][]request, e.clients)
		for c := range seqs {
			seqs[c] = gen.coldSequence(c, e.clients, n)
		}
		return func(c, t int) *request { return &seqs[c][t%n] }
	}
	n := int(maxHitRate * seconds)
	draws := make([][]uint16, e.clients)
	for c := range draws {
		draws[c] = uniformDraws(gen.seed, c, len(keys), n)
	}
	return func(c, t int) *request { return &keys[draws[c][t%n]] }
}

// servingResult is one timed serving run.
type servingResult struct {
	setupS      []float64 // one entry per timed set-up
	load        loadResult
	refCompared int
}

// setupFunc is one workload's set-up.
type setupFunc func(context.Context, *env, *generator) (*serving, error)

// setUp runs the workload's set-up as often as the plan asks, timing each
// from before the first exec to ready-to-measure, and keeps the last one
// running. It returns that set-up, the closed loop to drive against it
// (request sequences generated, no clock started), each set-up's seconds,
// and how many requests the set-ups sent.
func (e *env) setUp(ctx context.Context, setup setupFunc, seed int64, p plan) (*serving, loadSpec, []float64, int, error) {
	gen := newGenerator(seed)
	gen.sizes = p.warmSizes
	var times []float64
	var spent time.Duration
	ops := 0
	for {
		t0 := time.Now()
		sv, err := setup(ctx, e, gen)
		if err != nil {
			return nil, loadSpec{}, nil, 0, err
		}
		took := time.Since(t0)
		spent += took
		times = append(times, took.Seconds())
		ops += sv.ops
		if p.moreSetups(len(times), spent) {
			sv.stop()
			continue
		}
		total := p.warmup + time.Duration(p.rounds)*p.round
		return sv, loadSpec{
			target: sv.target, clients: e.clients, next: e.sequences(gen, sv.keys, total.Seconds()), expect: sv.expect,
			warmup: p.warmup, round: p.round, rounds: p.rounds,
		}, times, ops, nil
	}
}

// runServing is the timed run of a serving workload: set up, drive the
// closed loop, stop the children, then compare the sampled answers with the
// serial reference.
func (e *env) runServing(ctx context.Context, setup setupFunc, seed int64, p plan) (servingResult, error) {
	sv, spec, setupS, setupOps, err := e.setUp(ctx, setup, seed, p)
	if err != nil {
		return servingResult{}, err
	}
	res := servingResult{setupS: setupS, load: runLoad(ctx, spec)}
	sv.stop()
	res.load.attempted += setupOps
	res.refCompared = e.reference(&res.load)
	return res, nil
}

// reference compares the run's sampled answers with the serial pipeline,
// folds disagreements into the run's failure count, and returns how many
// answers it compared.
func (e *env) reference(load *loadResult) int {
	n, failed, err := newReferenceOracle(e.entry).check(load.stash)
	load.failed += failed
	if load.firstErr == nil {
		load.firstErr = err
	}
	return n
}

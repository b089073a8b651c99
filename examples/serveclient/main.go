// Serveclient: talk to the advisor service over HTTP/JSON — the paper's
// static cost model as an always-on endpoint instead of a one-shot CLI.
//
// With no flags it is self-contained and walks the whole checkpoint
// lifecycle: it trains a micro model, saves it to a temporary registry
// under two version names ("default" and "exp"), boots the service from
// those checkpoints exactly as `serve -model-dir` would — no retraining —
// and then acts as a client: listing GET /v1/models, POSTing a kernel to
// /v1/advise three times (cold, cache-hit, and routed to the "exp" version
// with the request's "model" field), snapshotting the response cache to a
// file and restoring it into a second service instance to show a warm
// restart, and finally printing the /v1/stats counters.
//
// It closes with the multi-peer walkthrough: two service instances booted
// from the same checkpoints share a consistent-hash ring with replicated
// ownership (the ring a `serve -self -seed -replication 2` tier forms by
// gossip; built here from a fixed member list). Requests
// sent to one peer are forwarded to whichever peer primarily owns their
// cache key — each response's served_by names the answering peer — and
// every evaluated entry is written through to the key's replica. The demo
// then kills one peer and replays every request through the survivor: all
// of them come back as cache hits, showing that a peer death loses no
// cache warmth under RF=2.
//
// The registry layout mirrors what `train -save-dir DIR` writes and
// `serve -model-dir DIR -cache-file CACHE` consumes:
//
//	DIR/<platform-slug>/<version>/manifest.json   config, scalers, stats
//	DIR/<platform-slug>/<version>/weights.json    gnn.Model.Save output
//
// Point it at an already running `go run ./cmd/serve` with -url.
//
//	go run ./examples/serveclient
//	go run ./examples/serveclient -url http://localhost:8080
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"paragraph/internal/experiments"
	"paragraph/internal/hw"
	"paragraph/internal/paragraph"
	"paragraph/internal/registry"
	"paragraph/internal/serve"
)

func main() {
	url := flag.String("url", "", "advisor service base URL (empty = start one in-process)")
	flag.Parse()

	base := *url
	local := base == ""
	var warmRestart, clusterDemo func(serve.AdviseRequest) error
	if local {
		var stop func()
		var err error
		base, stop, warmRestart, clusterDemo, err = startLocalService()
		if err != nil {
			log.Fatal(err)
		}
		defer stop()
	}

	// What model versions is the service holding? (GET /v1/models)
	var models serve.ModelsResponse
	if err := getJSON(base+"/v1/models", &models); err != nil {
		log.Fatal(err)
	}
	fmt.Println("served models:")
	for _, m := range models.Models {
		def := " "
		if m.Default {
			def = "*"
		}
		fmt.Printf("  %s %s/%s (level %s, source %s, val RMSE %.3f)\n",
			def, m.Platform, m.Name, m.Level, m.Source, m.ValRMSE)
	}
	fmt.Println()

	req := serve.AdviseRequest{
		Kernel:   "matmul",
		Machine:  hw.V100().Name,
		Bindings: map[string]float64{"n": 512},
		Space: &serve.SpaceSpec{
			GPUTeams:   []int{16, 64, 128, 256},
			GPUThreads: []int{64, 128, 256},
		},
		Top: 5,
	}
	fmt.Printf("asking %s for the 5 best matmul variants on %s (n=512)\n\n", base, req.Machine)

	// Cold, then repeated (cache hit), then routed to a named version with
	// the request's "model" field.
	passes := []struct {
		label string
		model string
	}{{"cold", ""}, {"repeat", ""}, {"model=exp", "exp"}}
	for _, pass := range passes {
		req.Model = pass.model
		resp, err := advise(base, req)
		if err != nil {
			if pass.model != "" {
				// A remote service may not serve an "exp" version; skip.
				fmt.Printf("[%s] skipped: %v\n\n", pass.label, err)
				continue
			}
			log.Fatal(err)
		}
		fmt.Printf("[%s] model=%s cached=%v elapsed=%.2fms\n",
			pass.label, resp.Model, resp.Cached, resp.ElapsedMS)
		for i, r := range resp.Recommendations {
			teams := "-"
			if r.Teams > 0 {
				teams = fmt.Sprint(r.Teams)
			}
			fmt.Printf("  #%d %-18s teams=%-4s threads=%-4d predicted %8.1f µs\n",
				i+1, r.Variant, teams, r.Threads, r.PredictedUS)
		}
		fmt.Println()
	}

	var st serve.Stats
	if err := getJSON(base+"/v1/stats", &st); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("service stats: %d advise requests, %d response-cache hits, %d coalesced, %d evaluations admitted\n",
		st.Requests.Advise, st.AdviseCacheHits, st.Coalesced, st.Admit.Admitted)
	for _, m := range st.Models {
		fmt.Printf("  model %s/%s: %d advise, batcher %d samples in %d batches\n",
			m.Platform, m.Name, m.Advise, m.Batcher.Samples, m.Batcher.Batches)
	}

	if local {
		req.Model = ""
		if err := warmRestart(req); err != nil {
			log.Fatal(err)
		}
		if err := clusterDemo(req); err != nil {
			log.Fatal(err)
		}
	}
}

// startLocalService walks the checkpoint lifecycle in-process: train a
// micro V100 model, save it as two registry versions, and boot the service
// from the registry (train-free, as `serve -model-dir` does). The returned
// warmRestart runs the `-cache-file` kill/restart drill: snapshot the first
// instance's response cache, build a second instance from the same
// checkpoints, restore the snapshot into it, and replay a request to show
// it answers as a cache hit. clusterDemo runs the `serve -self -seed`
// walkthrough: a two-peer consistent-hash tier over the same checkpoints.
func startLocalService() (base string, stop func(), warmRestart, clusterDemo func(serve.AdviseRequest) error, err error) {
	scale := experiments.Tiny()
	scale.Epochs = 2
	scale.MaxPerPlatform = 60
	fmt.Println("training a micro V100 cost model...")
	tr, err := experiments.NewRunner(scale).Trained(hw.V100(), paragraph.LevelParaGraph)
	if err != nil {
		return "", nil, nil, nil, err
	}

	// Persist it under two version names — in production these would be
	// separate training runs (scales, levels, A/B candidates).
	dir, err := os.MkdirTemp("", "paragraph-registry-*")
	if err != nil {
		return "", nil, nil, nil, err
	}
	fail := func(err error) (string, func(), func(serve.AdviseRequest) error, func(serve.AdviseRequest) error, error) {
		os.RemoveAll(dir)
		return "", nil, nil, nil, err
	}
	info := registry.TrainInfo{
		Scale: scale.Name, Epochs: scale.Epochs,
		TrainSamples: len(tr.Prep.Train), ValSamples: len(tr.Prep.Val),
		FinalValRMSE: tr.Hist.FinalValRMSE(),
	}
	for _, name := range []string{"default", "exp"} {
		if _, err := registry.Save(dir, hw.V100(), name, paragraph.LevelParaGraph, tr.Model, tr.Prep, info); err != nil {
			return fail(err)
		}
	}
	fmt.Printf("saved checkpoints under %s, booting train-free from the registry...\n\n", dir)

	reg, err := registry.Open(dir, registry.Options{})
	if err != nil {
		return fail(err)
	}
	var backends []serve.Backend
	for _, e := range reg.Entries() {
		b := serve.CheckpointBackend(e)
		b.Default = reg.Default(e)
		backends = append(backends, b)
	}
	srv, err := serve.NewServer(backends, serve.Options{})
	if err != nil {
		return fail(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return fail(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	stop = func() {
		hs.Close()
		srv.Close()
		os.RemoveAll(dir)
	}

	// The kill/restart drill: flush instance one's cache (what cmd/serve
	// does on SIGTERM), boot instance two from the same checkpoints, restore
	// the snapshot, replay the request — it must answer as a cache hit.
	warmRestart = func(req serve.AdviseRequest) error {
		cacheFile := filepath.Join(dir, "cache.json")
		if err := srv.SaveCacheFile(cacheFile); err != nil {
			return err
		}
		srv2, err := serve.NewServer(backends, serve.Options{})
		if err != nil {
			return err
		}
		defer srv2.Close()
		n, err := srv2.LoadCacheFile(cacheFile)
		if err != nil {
			return err
		}
		ln2, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		hs2 := &http.Server{Handler: srv2.Handler()}
		go hs2.Serve(ln2)
		defer hs2.Close()
		resp, err := advise("http://"+ln2.Addr().String(), req)
		if err != nil {
			return err
		}
		fmt.Printf("\nwarm restart (`serve -cache-file`): second instance restored %d responses; replayed advise cached=%v\n",
			n, resp.Cached)
		return nil
	}

	// The multi-peer walkthrough: boot two instances from the same
	// checkpoints, put them on one consistent-hash ring with replicated
	// ownership (`serve -self -seed -replication 2`; here a fixed member
	// list, so the ring exists before the first request), and watch requests
	// route to whichever peer primarily owns their cache key — then kill a
	// peer and watch its cache warmth survive on the replica: the replayed
	// requests come back as cache hits, not recomputations.
	clusterDemo = func(req serve.AdviseRequest) error {
		fmt.Println("\ncluster mode (`serve -self -seed -replication 2`): two peers, one hash ring, every key on both")
		var urls [2]string
		var srvs [2]*serve.Server
		var listeners [2]*http.Server
		for i := range srvs {
			srv, err := serve.NewServer(backends, serve.Options{})
			if err != nil {
				return err
			}
			defer srv.Close()
			pln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return err
			}
			phs := &http.Server{Handler: srv.Handler()}
			go phs.Serve(pln)
			defer phs.Close()
			srvs[i] = srv
			listeners[i] = phs
			urls[i] = "http://" + pln.Addr().String()
		}
		for i := range srvs {
			if err := srvs[i].EnableCluster(serve.ClusterConfig{
				Self: urls[i], Peers: urls[:], Replication: 2,
			}); err != nil {
				return err
			}
		}
		fmt.Printf("peer A = %s\npeer B = %s\nall requests go to peer A:\n", urls[0], urls[1])
		forwarded := 0
		ns := []float64{256, 384, 512, 640, 768, 896}
		for _, n := range ns {
			req.Bindings = map[string]float64{"n": n}
			resp, err := advise(urls[0], req)
			if err != nil {
				return err
			}
			routed := "evaluated locally (peer A is the primary owner)"
			if resp.ServedBy != urls[0] {
				routed = "forwarded to the primary owner"
				forwarded++
			}
			fmt.Printf("  n=%-5.0f served_by=%s — %s\n", n, resp.ServedBy, routed)
		}

		// Every evaluation was written through to the key's replica off
		// the request path (the owner's outbox), so wait for peer A to have
		// absorbed the entries peer B evaluated.
		deadline := time.Now().Add(10 * time.Second)
		for {
			var ring serve.RingResponse
			if err := getJSON(urls[0]+"/v1/ring", &ring); err != nil {
				return err
			}
			if ring.Replication != nil && ring.Replication.ReplicatedIn >= uint64(forwarded) {
				fmt.Printf("\npeer A's replication counters: %d writes out, %d entries replicated in, %d replica hits\n",
					ring.Replication.Writes, ring.Replication.ReplicatedIn, ring.Replication.ReplicaHits)
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("write-throughs never landed on peer A")
			}
			time.Sleep(5 * time.Millisecond)
		}

		// Kill peer B outright and replay everything through peer A: with
		// RF=2 each answer comes from A's cache (its own entries plus B's
		// replicated ones) — one peer death loses no warmth.
		fmt.Println("killing peer B and replaying all requests through peer A:")
		listeners[1].Close()
		for _, n := range ns {
			req.Bindings = map[string]float64{"n": n}
			resp, err := advise(urls[0], req)
			if err != nil {
				return err
			}
			fmt.Printf("  n=%-5.0f served_by=%s cached=%v\n", n, resp.ServedBy, resp.Cached)
			if !resp.Cached {
				return fmt.Errorf("n=%.0f recomputed after peer death; replication failed", n)
			}
		}
		fmt.Println("every replayed request was a cache hit — peer B's warmth survived on its replica")
		return nil
	}
	return "http://" + ln.Addr().String(), stop, warmRestart, clusterDemo, nil
}

func advise(base string, req serve.AdviseRequest) (*serve.AdviseResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(base+"/v1/advise", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return nil, fmt.Errorf("advise: %s: %s", resp.Status, e.Error)
	}
	var out serve.AdviseResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

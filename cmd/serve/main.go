// Command serve runs the ParaGraph advisor as a long-running HTTP/JSON
// service. It boots from the registry checkpoints under -model-dir, written
// by `train -save-dir` — every one is loaded and verified at startup and
// stays resident, nothing trains, and a platform can serve several named
// model versions. Requests are answered cached and bounded, an advise grid
// as one model call (internal/serve); with -cache-file the advise-response
// cache is snapshotted every five minutes and on shutdown, so a restarted
// process answers repeat traffic warm.
//
// With -self and -seed, N serve processes form a consistent-hash sharded
// tier (internal/shard): each advise cache key is owned by its
// first -replication ring successors (default 2), non-owners proxy misses
// to the primary owner, evaluated entries are written through to the
// replicas, and an unreachable primary fails over to its replicas — so one
// peer death costs a forwarding detour, never recomputation — before
// degrading to local serving. Membership is elastic: the first peer
// starts with -seed naming itself, and every other peer with -seed
// pointing at any live member; its first gossip exchange admits it at
// runtime (no restarts, no synchronized member lists). Every member
// gossips a versioned membership view each second (the heartbeat), evicts
// peers silent for ten heartbeats, and swaps the ring under a new epoch on
// every change. A leaving peer drains first — SIGTERM hands its owned cache
// entries to the new owners (for at most 30s) before the process exits —
// and on every ring change each peer starts handing the entries it holds
// to the owners they gained at once, retrying what was not taken every
// heartbeat (write-throughs ride the same outbox), so a rejoined or
// freshly added peer is warm without client traffic. All peers must serve
// the same checkpoints and agree on -replication.
//
// Usage:
//
//	serve -model-dir DIR [-addr :8080]
//	      [-platforms "IBM POWER9 (CPU),NVIDIA V100 (GPU)"]
//	      [-cache-file PATH] [-pool N]
//	      [-admit-queue N] [-admit-per-client N]
//	      [-self http://host:8080 -seed http://host2:8080]
//	      [-replication 2]
//	      [-log-level info] [-trace-slow 250ms]
//	      [-pprof-addr 127.0.0.1:6060]
//
// Endpoints:
//
//	POST /v1/advise     rank variant grid for a kernel on one machine
//	                    (one variant's runtime: a one-point space)
//	GET  /v1/healthz    liveness and served machines
//	GET  /v1/models     served model versions per platform
//	GET  /v1/stats      cache/batcher/admission/per-model/cluster counters
//	GET  /v1/ring       cluster membership, ownership, forward counters
//	GET  /v1/trace      recent request traces (?id= for one, ?n= to bound)
//	GET  /metrics       Prometheus text exposition of every serve_* series
//	POST /v1/replicate  peer-internal cache write-through (cluster mode)
//	POST /v1/cluster/gossip peer-internal membership view exchange; a new
//	                    peer's first one is its join (cluster mode)
//
// Overload behaviour (docs/OPERATIONS.md, "Overload & Admission Control"):
// requests beyond the -pool evaluation slots queue per client under
// round-robin fairness up to -admit-queue/-admit-per-client, then
// shed with 503 + Retry-After; an X-Paragraph-Deadline request header
// sheds eagerly when the estimated drain exceeds the budget, and the
// remaining budget propagates across cluster forwards. Every answer
// arrives on the request's own connection; there is no background job.
//
// Observability (docs/OPERATIONS.md, "Monitoring & Profiling"): GET
// /metrics serves Prometheus text exposition, GET /v1/trace the recent
// request traces; requests slower than -trace-slow are logged. All process
// output is structured log/slog (-log-level picks the floor), and
// -pprof-addr mounts net/http/pprof on a separate listener so profiling
// never shares the serving port.
//
// On SIGINT/SIGTERM the server first drains its cluster role (tombstones
// itself in the gossip view and streams owned cache entries to the new
// owners, for at most 30s; a no-op outside cluster mode), then stops
// accepting requests, lets
// in-flight evaluations finish, flushes the cache snapshot, and exits.
// docs/API.md documents the wire format; docs/OPERATIONS.md covers
// running it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"paragraph/internal/hw"
	"paragraph/internal/registry"
	"paragraph/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

// serveConfig is what buildServer resolves beyond the assembled Server.
type serveConfig struct {
	addr      string
	cacheFile string       // "" = no cache persistence
	pprofAddr string       // "" = no pprof listener
	logger    *slog.Logger // process-wide structured logger
	cluster   bool         // cluster mode: drain membership on shutdown
}

// snapshotEvery is the periodic -cache-file snapshot interval: a hard kill
// loses at most this much warmth.
const snapshotEvery = 5 * time.Minute

// heartbeat is the cluster's gossip and outbox-retry interval: a silent
// member is suspect after 3 of them and dead after 10.
const heartbeat = time.Second

func run(args []string, w, stderr io.Writer) error {
	srv, cfg, err := buildServer(args, w, stderr)
	if err != nil {
		return err
	}
	defer srv.Close()
	logger := cfg.logger

	if cfg.cacheFile != "" {
		n, err := srv.LoadCacheFile(cfg.cacheFile)
		if err != nil {
			return fmt.Errorf("restoring cache from %s: %w", cfg.cacheFile, err)
		}
		if n > 0 {
			logger.Info("restored cache snapshot", "entries", n, "file", cfg.cacheFile)
		}
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	logger.Info("serving", "url", "http://"+ln.Addr().String())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The profiling listener is separate from the serving port so operators
	// can firewall it independently and a heap dump never competes with
	// request traffic for the serving listener's accept queue.
	if cfg.pprofAddr != "" {
		pln, err := net.Listen("tcp", cfg.pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		logger.Info("pprof listening", "url", "http://"+pln.Addr().String()+"/debug/pprof/")
		go func() {
			ps := &http.Server{Handler: pprofMux()}
			go func() { <-ctx.Done(); ps.Close() }()
			if err := ps.Serve(pln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Warn("pprof server", "err", err)
			}
		}()
	}

	// Periodic cache snapshots so even a hard kill loses at most one
	// interval of warmth.
	if cfg.cacheFile != "" {
		go func() {
			tick := time.NewTicker(snapshotEvery)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					if err := srv.SaveCacheFile(cfg.cacheFile); err != nil {
						logger.Warn("cache snapshot", "err", err)
					}
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down")

	// Cluster departure comes first, while the listener still answers: the
	// drain tombstones this peer in the gossip view and streams its owned
	// cache entries to the new owners, so the tier loses no warmth when
	// this process exits.
	if cfg.cluster {
		report := srv.DrainCluster(context.Background())
		logger.Info("cluster drain complete",
			"owned", report.OwnedKeys, "streamed", report.Streamed,
			"batches", report.Batches, "errors", report.Errors,
			"elapsed_ms", report.ElapsedMS)
	}

	// Stop accepting and let in-flight requests finish before the final
	// snapshot, so every completed response is eligible for persistence.
	shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("shutdown", "err", err)
	}
	srv.Close()
	if cfg.cacheFile != "" {
		if err := srv.SaveCacheFile(cfg.cacheFile); err != nil {
			return fmt.Errorf("final cache snapshot: %w", err)
		}
		logger.Info("cache snapshot flushed", "file", cfg.cacheFile)
	}
	return nil
}

// pprofMux mounts the net/http/pprof handlers on a dedicated mux instead of
// http.DefaultServeMux, so the profiling listener exposes exactly the
// /debug/pprof/ tree and nothing else.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// parseLogLevel maps the -log-level flag to a slog level.
func parseLogLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown -log-level %q: want debug, info, warn or error", s)
}

// buildServer parses flags and assembles the service from the registry
// checkpoints under -model-dir; the caller decides how to listen (main
// serves TCP, tests mount the handler directly). The log goes to w, flag
// errors and usage to stderr.
func buildServer(args []string, w, stderr io.Writer) (*serve.Server, serveConfig, error) {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	modelDir := fs.String("model-dir", "", "registry directory to boot from (required): every checkpoint under it, as written by train -save-dir, is loaded and served")
	platforms := fs.String("platforms", allPlatformNames(), "comma-separated machine names to serve")
	cacheFile := fs.String("cache-file", "", "persist the advise-response cache to this file across restarts")
	poolSize := fs.Int("pool", 0, "evaluation slots: max advise evaluations in flight (0 = GOMAXPROCS)")
	admitQueue := fs.Int("admit-queue", 0, "admission queue depth beyond the -pool slots before 503 shedding (0 = default)")
	admitPerClient := fs.Int("admit-per-client", 0, "per-client cap on waiting requests; its running evaluations do not count (0 = default)")
	logLevel := fs.String("log-level", "info", "log floor: debug, info, warn or error")
	traceSlow := fs.Duration("trace-slow", 0, "log traced requests at or above this latency (0 = default 250ms, negative = disable)")
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty = disabled)")
	self := fs.String("self", "", "cluster mode: this process's base URL as peers reach it (http://host:port)")
	seedFlag := fs.String("seed", "", "cluster mode: comma-separated URLs of live members to join through (the first peer of a ring names itself)")
	replication := fs.Int("replication", 2, "cluster mode: ring successors owning each key (1 = single-owner, no replication; clamped to cluster size)")
	if err := fs.Parse(args); err != nil {
		return nil, serveConfig{}, err
	}
	level, err := parseLogLevel(*logLevel)
	if err != nil {
		return nil, serveConfig{}, err
	}
	logger := slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level}))
	cfg := serveConfig{
		addr: *addr, cacheFile: *cacheFile, pprofAddr: *pprofAddr, logger: logger,
	}

	// Cluster flags are validated before the checkpoints are loaded so a bad
	// invocation fails fast.
	clusterMode := *self != "" || *seedFlag != ""
	var seeds []string
	if clusterMode {
		if *self == "" {
			return nil, serveConfig{}, fmt.Errorf("cluster mode needs -self")
		}
		if *seedFlag == "" {
			return nil, serveConfig{}, fmt.Errorf("cluster mode needs -seed (a live member, or -self for the first peer)")
		}
		if *replication < 1 {
			return nil, serveConfig{}, fmt.Errorf("-replication must be >= 1 (got %d)", *replication)
		}
		if _, err := serve.NormalizePeerURL(*self); err != nil {
			return nil, serveConfig{}, fmt.Errorf("-self: %w", err)
		}
		if seeds, err = splitPeerURLs(*seedFlag); err != nil {
			return nil, serveConfig{}, err
		}
	}

	wanted, err := platformSet(*platforms)
	if err != nil {
		return nil, serveConfig{}, err
	}

	if *modelDir == "" {
		return nil, serveConfig{}, fmt.Errorf("-model-dir is required (train -save-dir DIR writes the checkpoints it boots from)")
	}
	backends, err := checkpointBackends(*modelDir, wanted, logger)
	if err != nil {
		return nil, serveConfig{}, err
	}

	srv, err := serve.NewServer(backends, serve.Options{
		PoolSize:       *poolSize,
		QueueLimit:     *admitQueue,
		QueuePerClient: *admitPerClient,
		TraceSlow:      *traceSlow,
		Logger:         logger,
	})
	if err != nil {
		return nil, serveConfig{}, err
	}
	if clusterMode {
		if err := srv.EnableCluster(serve.ClusterConfig{
			Self:        *self,
			Seeds:       seeds,
			Replication: *replication,
			Heartbeat:   heartbeat,
		}); err != nil {
			srv.Close()
			return nil, serveConfig{}, err
		}
		cfg.cluster = true
		ring := srv.Ring()
		rf := 1
		if ring.Replication != nil {
			rf = ring.Replication.Factor
		}
		logger.Info("cluster mode",
			"peers", len(ring.Members), "seeds", len(seeds), "vnodes", ring.VNodes,
			"rf", rf, "epoch", ring.Epoch, "self", ring.Self,
			"ownership", selfOwnership(ring))
	}
	return srv, cfg, nil
}

// splitPeerURLs parses the comma-separated -seed flag, validating each
// entry.
func splitPeerURLs(flagValue string) ([]string, error) {
	var urls []string
	for _, p := range strings.Split(flagValue, ",") {
		if p = strings.TrimSpace(p); p == "" {
			continue
		}
		if _, err := serve.NormalizePeerURL(p); err != nil {
			return nil, fmt.Errorf("-seed: %w", err)
		}
		urls = append(urls, p)
	}
	return urls, nil
}

// selfOwnership extracts this peer's key-space fraction from the ring view.
func selfOwnership(ring serve.RingResponse) float64 {
	for _, m := range ring.Members {
		if m.Self {
			return m.Ownership
		}
	}
	return 0
}

// platformSet parses the -platforms flag into a validated name set.
func platformSet(flagValue string) (map[string]bool, error) {
	set := map[string]bool{}
	for _, name := range strings.Split(flagValue, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, err := hw.ByName(name); err != nil {
			return nil, err
		}
		set[name] = true
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("no platforms requested")
	}
	return set, nil
}

// checkpointBackends opens the registry and turns its checkpoints
// (restricted to the requested platforms) into serving backends.
func checkpointBackends(dir string, wanted map[string]bool, logger *slog.Logger) ([]serve.Backend, error) {
	reg, err := registry.Open(dir, registry.Options{})
	if err != nil {
		return nil, err
	}
	var backends []serve.Backend
	for _, e := range reg.Entries() {
		if !wanted[e.Manifest.Platform] {
			continue
		}
		logger.Info("loaded checkpoint",
			"model", e.Manifest.Platform+"/"+e.Manifest.Name,
			"level", e.Manifest.Level, "val_rmse", e.Manifest.Train.FinalValRMSE)
		b := serve.CheckpointBackend(e)
		b.Default = reg.Default(e)
		backends = append(backends, b)
	}
	if len(backends) == 0 {
		return nil, fmt.Errorf("no checkpoints under %s match the requested platforms", dir)
	}
	return backends, nil
}

func allPlatformNames() string {
	var names []string
	for _, m := range hw.All() {
		names = append(names, m.Name)
	}
	return strings.Join(names, ",")
}

package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"paragraph/internal/admit"
	"paragraph/internal/advisor"
	"paragraph/internal/apps"
	"paragraph/internal/dataset"
	"paragraph/internal/hw"
	"paragraph/internal/obs"
	"paragraph/internal/paragraph"
	"paragraph/internal/registry"
)

// Backend is one servable model: a machine profile plus a cost model for
// it and the Prepared dataset (or manifest scalers) carrying that
// training's normalization. A platform may register several Backends under
// distinct Names — training scales, representation levels — and requests
// pick one with the "model" field; one of them is the platform's default
// alias.
type Backend struct {
	Machine hw.Machine
	Model   advisor.BatchPredictor
	Prep    *dataset.Prepared

	// Name is the model's version name within its platform ("" = "default").
	Name string
	// Default forces this backend to be the platform's default alias. At
	// most one backend per platform may set it; with none set, a backend
	// named "default" wins, else the lexicographically first name.
	Default bool
	// Info describes the model for /v1/models and selects the advisor's
	// representation level. nil means a freshly trained LevelParaGraph model.
	Info *ModelInfo
}

// ModelInfo is per-model metadata surfaced through /v1/models.
type ModelInfo struct {
	Level     paragraph.Level
	Source    string // "checkpoint" or "trained"
	Hidden    int
	Layers    int
	Params    int // scalar parameter count
	Epochs    int
	ValRMSE   float64 // final validation RMSE (scaled)
	CreatedAt time.Time
}

// CheckpointBackend is the one conversion from a loaded registry entry to a
// servable Backend and its /v1/models description. Default is left for the
// caller, who knows the registry's alias (registry.Registry.Default).
func CheckpointBackend(e *registry.Entry) Backend {
	man := e.Manifest
	return Backend{
		Machine: e.Machine,
		Model:   e,
		Prep:    e.Prep,
		Name:    man.Name,
		Info: &ModelInfo{
			Level:     e.Level,
			Source:    "checkpoint",
			Hidden:    man.Config.Hidden,
			Layers:    man.Config.Layers,
			Params:    man.Params,
			Epochs:    man.Train.Epochs,
			ValRMSE:   man.Train.FinalValRMSE,
			CreatedAt: man.CreatedAt,
		},
	}
}

// Options tunes the service layers. Zero values pick sensible defaults.
type Options struct {
	PoolSize int // max advise evaluations in flight (default GOMAXPROCS)

	// QueueLimit bounds the total requests waiting for an evaluation slot
	// across all clients; arrivals beyond it are shed with 503 queue_full
	// (default 1024).
	QueueLimit int
	// QueuePerClient bounds one client's waiting requests; beyond it that
	// client sheds 503 lane_full while others keep queueing (default 256).
	QueuePerClient int

	// TraceSlow is the latency at or above which a traced request is
	// logged as a structured slow-request record (default 250ms; negative
	// disables slow logging — traces are still recorded and served).
	TraceSlow time.Duration
	// Logger receives slow-trace and per-request debug records (default
	// slog.Default()).
	Logger *slog.Logger
}

// adviseCacheSize is the response cache's entry bound (whole advise
// rankings).
const adviseCacheSize = 512

func (o Options) withDefaults() Options {
	if o.PoolSize <= 0 {
		o.PoolSize = runtime.GOMAXPROCS(0)
	}
	if o.TraceSlow == 0 {
		o.TraceSlow = 250 * time.Millisecond
	}
	if o.TraceSlow < 0 {
		o.TraceSlow = 0 // tracer: <= 0 disables slow logging
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	return o
}

// backendState is one served platform: its machine profile and the named
// models serving it. Like the backends map, it is immutable once NewServer
// returns.
type backendState struct {
	machine     hw.Machine
	models      map[string]*modelState
	defaultName string
}

// modelState wires one model version into the service: its batcher (the
// advisor's Predictor), the advisor built on top of it, and per-model
// traffic counters.
type modelState struct {
	name    string
	info    ModelInfo
	advisor *advisor.Advisor
	batcher *Batcher
	// adviseEval holds the wall times of whole cold advise evaluations
	// (front end, one model call, rank); its median is admission's cost.
	adviseEval *obs.Histogram
	// advise counts the responses this version computed or served;
	// registerModel exposes it.
	advise *obs.Counter

	lastUsed atomic.Int64 // unix seconds; 0 = never
}

func (ms *modelState) touch() { ms.lastUsed.Store(time.Now().Unix()) }

// Server is the advisor service. Build one with NewServer, mount Handler on
// an http.Server, and Close it on shutdown.
type Server struct {
	start       time.Time
	opts        Options
	mux         *http.ServeMux
	backends    map[string]*backendState
	adviseCache *Cache      // whole advise rankings
	flights     flightGroup // collapses identical concurrent cache misses

	// admit bounds the evaluations in flight (Options.PoolSize slots; an
	// evaluation runs on its request's goroutine, so the slots bound the
	// cores that evaluate and a burst queues instead of oversubscribing the
	// CPU) and orders the waiters per-client fair with bounded backlogs.
	admit *admit.Queue

	metrics *serveMetrics // every /metrics series; /v1/stats reads the same instruments
	tracer  *obs.Tracer   // request traces: slow logging + the /v1/trace ring
	logger  *slog.Logger

	// cluster is non-nil once EnableCluster put the server into a
	// consistent-hash sharded tier; nil means every request serves locally.
	cluster *cluster
}

// NewServer assembles the service from trained backends.
func NewServer(backends []Backend, opts Options) (*Server, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("serve: no backends")
	}
	opts = opts.withDefaults()
	s := &Server{
		start:       time.Now(),
		opts:        opts,
		mux:         http.NewServeMux(),
		backends:    map[string]*backendState{},
		adviseCache: NewCache(adviseCacheSize),
		admit: admit.NewQueue(admit.QueueConfig{
			Concurrency:  opts.PoolSize,
			MaxQueued:    opts.QueueLimit,
			MaxPerClient: opts.QueuePerClient,
		}),
	}
	for _, b := range backends {
		if b.Model == nil || b.Prep == nil {
			return nil, fmt.Errorf("serve: backend %q missing model or prepared dataset", b.Machine.Name)
		}
		name := b.Name
		if name == "" {
			name = "default"
		}
		be, ok := s.backends[b.Machine.Name]
		if !ok {
			be = &backendState{machine: b.Machine, models: map[string]*modelState{}}
			s.backends[b.Machine.Name] = be
		}
		if _, dup := be.models[name]; dup {
			return nil, fmt.Errorf("serve: duplicate backend %s/%s", b.Machine.Name, name)
		}
		be.models[name] = s.newModelState(b, name)
		if b.Default {
			if be.defaultName != "" && be.defaultName != name {
				return nil, fmt.Errorf("serve: platform %q declares two default models (%s, %s)",
					b.Machine.Name, be.defaultName, name)
			}
			be.defaultName = name
		}
	}
	// Resolve each platform's default alias: an explicit Default wins, then
	// a model literally named "default", then the lexicographically first.
	// The fallback serves callers that declare no default; cmd/serve and
	// examples/serveclient always declare the registry's choice
	// (registry.Registry.Default), whose rule (newest checkpoint) differs.
	for _, be := range s.backends {
		if be.defaultName != "" {
			// An explicit default must not shadow a model named "default":
			// the alias rewrite would make that model unreachable by name.
			if _, ok := be.models["default"]; ok && be.defaultName != "default" {
				return nil, fmt.Errorf("serve: platform %q: model named \"default\" would be shadowed by explicit default %q",
					be.machine.Name, be.defaultName)
			}
			continue
		}
		if _, ok := be.models["default"]; ok {
			be.defaultName = "default"
			continue
		}
		for _, name := range be.modelNames() {
			be.defaultName = name
			break
		}
	}
	s.logger = opts.Logger
	s.tracer = obs.NewTracer(obs.TracerOptions{
		Slow:   opts.TraceSlow,
		Logger: opts.Logger,
	})
	s.metrics = newServeMetrics(s)
	// Advise and replicate are traced (they carry the expensive
	// work and cross-peer hops); the read-only introspection endpoints only
	// get request/latency/error accounting.
	s.mux.HandleFunc("/v1/advise", s.instrument("advise", true, s.handleAdvise))
	s.mux.HandleFunc("/v1/healthz", s.instrument("healthz", false, s.handleHealthz))
	s.mux.HandleFunc("/v1/stats", s.instrument("stats", false, s.handleStats))
	s.mux.HandleFunc("/v1/models", s.instrument("models", false, s.handleModels))
	s.mux.HandleFunc("/v1/ring", s.instrument("ring", false, s.handleRing))
	s.mux.HandleFunc("/v1/replicate", s.instrument("replicate", true, s.handleReplicate))
	s.mux.HandleFunc("/v1/cluster/", s.instrument("cluster", false, s.handleCluster))
	s.mux.HandleFunc("/v1/trace", s.instrument("trace", false, s.handleTrace))
	s.mux.HandleFunc("/metrics", s.instrument("metrics", false, s.handleMetrics))
	return s, nil
}

// newModelState wires one backend into the serving plumbing under its
// resolved version name: its metered batcher and the advisor on top.
func (s *Server) newModelState(b Backend, name string) *modelState {
	info := ModelInfo{Level: paragraph.LevelParaGraph, Source: "trained"}
	if b.Info != nil {
		info = *b.Info
	}
	batcher := NewBatcher(b.Model, 0, 0)
	adv := advisor.New(batcher, b.Prep, b.Machine)
	adv.SetLevel(info.Level)
	return &modelState{
		name: name, info: info, advisor: adv, batcher: batcher,
		adviseEval: obs.NewHistogram(obs.DefLatencyBuckets),
		advise:     new(obs.Counter),
	}
}

// modelNames lists a platform's model versions, sorted.
func (be *backendState) modelNames() []string { return sortedKeys(be.models) }

// sortedKeys returns a map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close, in cluster mode, stops the membership background loops and the
// outbox flusher.
func (s *Server) Close() {
	if s.cluster != nil {
		s.cluster.stop()
	}
}

func (s *Server) machineNames() []string { return sortedKeys(s.backends) }

// --- request/response types ---

// ParamSpec mirrors apps.Param for custom kernels.
type ParamSpec struct {
	Name   string `json:"name"`
	Values []int  `json:"values"`
}

// ArraySpec mirrors apps.Array for custom kernels.
type ArraySpec struct {
	Name     string `json:"name"`
	SizeExpr string `json:"size_expr"`
}

// KernelSpec is an inline kernel template for requests about code outside
// the built-in suite. Source must contain exactly one __PRAGMA__ marker
// line where the variant directive goes.
type KernelSpec struct {
	App         string      `json:"app,omitempty"`
	Name        string      `json:"name"`
	FuncName    string      `json:"func_name"`
	Source      string      `json:"source"`
	Collapsible bool        `json:"collapsible,omitempty"`
	Params      []ParamSpec `json:"params"`
	Arrays      []ArraySpec `json:"arrays,omitempty"`
}

func (ks *KernelSpec) kernel() apps.Kernel {
	k := apps.Kernel{
		App:         ks.App,
		Name:        ks.Name,
		FuncName:    ks.FuncName,
		Source:      ks.Source,
		Collapsible: ks.Collapsible,
	}
	if k.App == "" {
		k.App = "custom"
	}
	for _, p := range ks.Params {
		k.Params = append(k.Params, apps.Param{Name: p.Name, Values: p.Values})
	}
	for _, a := range ks.Arrays {
		k.Arrays = append(k.Arrays, apps.Array{Name: a.Name, SizeExpr: a.SizeExpr})
	}
	return k
}

// SpaceSpec is the JSON form of advisor.SearchSpace.
type SpaceSpec struct {
	CPUThreads []int `json:"cpu_threads,omitempty"`
	GPUTeams   []int `json:"gpu_teams,omitempty"`
	GPUThreads []int `json:"gpu_threads,omitempty"`
}

func (sp *SpaceSpec) space() advisor.SearchSpace {
	if sp == nil {
		return advisor.DefaultSearchSpace()
	}
	return advisor.SearchSpace{
		CPUThreads: sp.CPUThreads,
		GPUTeams:   sp.GPUTeams,
		GPUThreads: sp.GPUThreads,
	}
}

// AdviseRequest asks for a ranked variant grid on one machine. Exactly one
// of Kernel (a suite kernel name) or Custom must be set.
type AdviseRequest struct {
	Kernel        string             `json:"kernel,omitempty"`
	Custom        *KernelSpec        `json:"custom,omitempty"`
	Machine       string             `json:"machine"`
	Model         string             `json:"model,omitempty"` // version name; "" = platform default
	Bindings      map[string]float64 `json:"bindings,omitempty"`
	Space         *SpaceSpec         `json:"space,omitempty"`
	Top           int                `json:"top,omitempty"`            // 0 = all
	IncludeSource bool               `json:"include_source,omitempty"` // return transformed kernels
}

// Recommendation is one ranked candidate in a response.
type Recommendation struct {
	Variant     string  `json:"variant"`
	Teams       int     `json:"teams,omitempty"`
	Threads     int     `json:"threads"`
	PredictedUS float64 `json:"predicted_us"`
	Source      string  `json:"source,omitempty"`
}

// AdviseResponse is the ranked answer, fastest first. Model is the
// resolved version name. Coalesced marks a response that piggybacked on an
// identical concurrent request's evaluation (singleflight) instead of
// computing or hitting the cache itself. ServedBy names the cluster peer
// that answered (empty outside cluster mode): when it differs from the
// peer the client contacted, the request was forwarded to the key's owner
// on the consistent-hash ring. The handler renders it by appending
// (adviseAnswer.appendJSON), so a change to these fields or their tags
// changes render.go too; FuzzAdviseResponseWire fails until it does.
type AdviseResponse struct {
	Machine string `json:"machine"`
	Model   string `json:"model"`
	Kernel  string `json:"kernel"`
	// Key is the content-addressed request hash the response cache (and
	// the ring's ownership) is keyed by.
	Key             string           `json:"key,omitempty"`
	Cached          bool             `json:"cached"`
	Coalesced       bool             `json:"coalesced,omitempty"`
	ServedBy        string           `json:"served_by,omitempty"`
	ElapsedMS       float64          `json:"elapsed_ms"`
	Recommendations []Recommendation `json:"recommendations"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// --- handlers ---

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// fail writes the JSON error envelope. Error accounting happens in the
// instrument middleware off the response status, so every error response —
// including ones relayed verbatim from a peer — is counted per endpoint
// and status class.
func (s *Server) fail(w http.ResponseWriter, status int, format string, args ...any) {
	s.writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// maxRequestBody caps an advise body. A custom kernel is a few
// kB of C source, so 1 MiB is generous; uncapped, one request could make
// the decoder buffer whatever it was sent.
const maxRequestBody = 1 << 20

// decodeBody decodes a size-capped JSON request body into v under the
// trace's decode span, answering 413 for an oversized body and 400 for a
// malformed one. It reports whether v is usable.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := obs.TraceFrom(r.Context()).StartSpan("decode")
	defer dec.End()
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		s.fail(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", tooBig.Limit)
	} else {
		s.fail(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	return false
}

// resolveBackend finds the backend for a machine name.
func (s *Server) resolveBackend(machine string) (*backendState, error) {
	be, ok := s.backends[machine]
	if !ok {
		return nil, fmt.Errorf("unknown machine %q (serving: %s)",
			machine, strings.Join(s.machineNames(), ", "))
	}
	return be, nil
}

// pickModel resolves the model version serving one request. An explicit
// version name is honored verbatim; an empty or "default" name follows the
// platform's default alias. Responses and cache keys carry the resolved
// name, so an alias and its target share cache entries.
func (s *Server) pickModel(be *backendState, requested string) (*modelState, error) {
	name := requested
	if name == "" || name == "default" {
		name = be.defaultName
	}
	ms, ok := be.models[name]
	if !ok {
		return nil, fmt.Errorf("unknown model %q for machine %q (serving: %s)",
			name, be.machine.Name, strings.Join(be.modelNames(), ", "))
	}
	return ms, nil
}

// resolveKernel materializes the requested kernel template.
func resolveKernel(name string, custom *KernelSpec) (apps.Kernel, error) {
	switch {
	case name != "" && custom != nil:
		return apps.Kernel{}, fmt.Errorf("set either kernel or custom, not both")
	case name != "":
		k, ok := apps.ByName(name)
		if !ok {
			return apps.Kernel{}, fmt.Errorf("unknown kernel %q", name)
		}
		return k, nil
	case custom != nil:
		k := custom.kernel()
		if err := k.Validate(); err != nil {
			return apps.Kernel{}, err
		}
		return k, nil
	default:
		return apps.Kernel{}, fmt.Errorf("missing kernel")
	}
}

// kernelKey canonically serializes everything variant generation reads from
// a kernel template — identity, collapsibility, params and arrays (arrays
// shape the map clauses of transfer variants) — so two custom kernels
// differing in any of them cannot collide in the response caches.
func kernelKey(k apps.Kernel) string {
	var b strings.Builder
	b.Grow(len(k.Source) + 256)
	for _, s := range [...]string{k.App, k.Name, k.FuncName, strconv.FormatBool(k.Collapsible)} {
		b.WriteString(s)
		b.WriteByte(0)
	}
	var num [20]byte
	for _, p := range k.Params {
		// p:name=[v1 v2 …], the %v rendering of an int slice.
		b.WriteString("p:")
		b.WriteString(p.Name)
		b.WriteString("=[")
		for i, v := range p.Values {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.Write(strconv.AppendInt(num[:0], int64(v), 10))
		}
		b.WriteString("]\x00")
	}
	for _, a := range k.Arrays {
		b.WriteString("a:")
		b.WriteString(a.Name)
		b.WriteByte('=')
		b.WriteString(a.SizeExpr)
		b.WriteByte(0)
	}
	b.WriteString(k.Source)
	return b.String()
}

func (s *Server) handleAdvise(w http.ResponseWriter, r *http.Request) {
	s.noteForwarded(r)
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req AdviseRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	be, err := s.resolveBackend(req.Machine)
	if err != nil {
		s.fail(w, http.StatusNotFound, "%v", err)
		return
	}
	k, err := resolveKernel(req.Kernel, req.Custom)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	space := req.Space.space()
	if err := advisor.CheckSpace(k, be.machine, space); err != nil {
		s.rejectSpace(w, err)
		return
	}
	ms, err := s.pickModel(be, req.Model)
	if err != nil {
		s.fail(w, http.StatusNotFound, "%v", err)
		return
	}
	ctx, cancel, err := requestContext(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cancel()

	// Content-addressed response key: everything the ranking depends on,
	// including the resolved model version (two versions of one platform
	// rank differently). Top and IncludeSource shape only the rendering, so
	// they stay out of the key and a hit can serve any truncation.
	key := Key("advise", be.machine.Name, ms.name, kernelKey(k), advisor.BindingsKey(req.Bindings),
		fmtInts(space.CPUThreads), fmtInts(space.GPUTeams), fmtInts(space.GPUThreads))
	start := time.Now()
	recs, pr, cached, coalesced, err := s.serveKeyed(ctx, r, key, &req, ms.adviseEval,
		func(ctx context.Context) ([]advisor.Recommendation, error) {
			return ms.advisor.AdviseCtx(ctx, k, req.Bindings, space)
		})
	if err != nil {
		s.failEval(w, err, k, be, ms)
		return
	}
	if pr != nil {
		s.writeProxied(w, *pr)
		return
	}
	ms.advise.Inc()
	ms.touch()
	writeAdvise(w, &adviseAnswer{
		machine: be.machine.Name, model: ms.name, kernel: k.Name, key: key,
		cached: cached, coalesced: coalesced, servedBy: s.servedBy(),
		elapsedMS: float64(time.Since(start).Microseconds()) / 1000,
		recs:      recs, top: req.Top, includeSource: req.IncludeSource,
	})
}

// allFinite reports whether every prediction in a ranking is a finite
// number.
func allFinite(recs []advisor.Recommendation) bool {
	for _, r := range recs {
		if math.IsNaN(r.PredictedUS) || math.IsInf(r.PredictedUS, 0) {
			return false
		}
	}
	return true
}

// serveKeyed is the one path every advise answer takes: response cache
// under key, then the deadline shed check, then forward-or-evaluate inside
// the singleflight with the evaluation admitted through r's lane of the
// per-client fair queue and timed into eval. On success exactly one of recs
// and pr is set. Cache hits are never shed — they cost microseconds and
// always beat any deadline. evaluate is a parameter rather than something
// serveKeyed builds because a func that is only called stays on its
// caller's stack: a hit allocates nothing for the evaluation it does not
// run.
func (s *Server) serveKeyed(ctx context.Context, r *http.Request, key string, req *AdviseRequest, eval *obs.Histogram, evaluate func(context.Context) ([]advisor.Recommendation, error)) (recs []advisor.Recommendation, pr *proxiedResponse, cached, coalesced bool, err error) {
	tr := obs.TraceFrom(ctx)
	lookup := tr.StartSpan("cache_lookup")
	v, hit := s.adviseCache.Get(key)
	lookup.End()
	// A local hit is served locally even if a peer owns the key: the entry
	// is content-addressed and immutable, so it is byte-identical to
	// whatever the owner holds, and the hop is free to skip.
	if hit {
		return v.([]advisor.Recommendation), nil, true, false, nil
	}
	// Deadline-aware shedding: a request that predictably cannot finish
	// inside its budget is rejected before it holds anything — each caller
	// applies its own deadline even when it would coalesce into a flight.
	if shed := s.shedCheck(ctx, evalCost(eval)); shed != nil {
		return nil, nil, false, false, shed
	}
	// The miss may belong to a peer: in cluster mode it is forwarded to
	// the key's owners in successor order — primary first, replicas when
	// the primary is unreachable — so the owner's cache and singleflight
	// absorb all traffic for the key; with every owner unreachable it
	// falls back to local evaluation — degraded (a duplicate
	// evaluation), never failing. An owner evaluating the miss itself
	// writes the entry through to the key's replicas (through the outbox,
	// off the request path), so one peer death loses no warmth.
	// Forward-or-evaluate runs inside the singleflight so a burst of
	// identical misses at a non-owner shares one proxied hop instead of
	// each holding a connection to the owner. Top and IncludeSource are not
	// in key — a cached ranking serves any rendering — but a proxied answer
	// is already rendered, so they join the flight key: requests differing
	// only in rendering must not share proxied bytes.
	targets, owners, owned := s.route(s.isForwarded(r), key)
	flightKey := fmt.Sprintf("%s|t%d_s%v", key, req.Top, req.IncludeSource)
	flightStart := time.Now()
	v, shared, err := s.flights.Do(flightKey, func() (any, error) {
		if len(targets) > 0 {
			if fr, ok := s.tryForward(ctx, tr, targets, clientKey(r), req); ok {
				return fr, nil
			}
		}
		poolWait := tr.StartSpan("pool_wait")
		var out []advisor.Recommendation
		err := s.admitRun(ctx, clientKey(r), eval, func() (err error) {
			poolWait.End()
			out, err = evaluate(ctx)
			return err
		})
		if err != nil {
			return nil, err
		}
		// A non-finite prediction means arithmetic the model did not
		// survive: a fine-tune that diverged (NaN weights pass a checksum
		// like any others), or an output so large that exponentiating it
		// back to microseconds overflows. Failing the request keeps the
		// poisoned answer out of the cache and off the key's replicas.
		if !allFinite(out) {
			return nil, errors.New("model produced a non-finite prediction")
		}
		s.adviseCache.Add(key, out)
		s.replicate(key, owners, owned)
		return out, nil
	})
	if err != nil {
		return nil, nil, false, false, err
	}
	if shared {
		coalesced = true
		s.metrics.coalesced.Inc()
		// Recorded retroactively: a waiter only learns it waited — and
		// for how long — once the leader's flight lands.
		tr.AddSpan("singleflight_wait", "", flightStart, time.Since(flightStart))
	}
	if pr, ok := v.(proxiedResponse); ok {
		return nil, &pr, false, coalesced, nil
	}
	return v.([]advisor.Recommendation), nil, false, coalesced, nil
}

// rejectSpace answers a search space the advisor refuses (an entry below 1,
// or too many grid points) with a 400 naming the reason, counted by reason in
// serve_rejected_total.
func (s *Server) rejectSpace(w http.ResponseWriter, err error) {
	var refused *advisor.SpaceError
	if errors.As(err, &refused) {
		if c, ok := s.metrics.rejected[refused.Reason]; ok {
			c.Inc()
		}
	}
	s.fail(w, http.StatusBadRequest, "%v", err)
}

// failEval answers an advise whose evaluation failed: a shed (or an
// expired deadline) is 503 + Retry-After priced from the model's
// evaluations, a panic under the advisor a 500 with its stack logged,
// anything else the evaluation's own 422.
func (s *Server) failEval(w http.ResponseWriter, err error, k apps.Kernel, be *backendState, ms *modelState) {
	if shed, ok := asShed(err); ok {
		s.writeShed(w, shed, evalCost(ms.adviseEval))
		return
	}
	status := http.StatusUnprocessableEntity
	var bug *advisor.PanicError
	if errors.As(err, &bug) {
		status = http.StatusInternalServerError
		s.logger.Error("panic in evaluation", "kernel", k.Name, "machine", be.machine.Name,
			"model", ms.name, "err", err, "stack", string(bug.Stack))
	}
	s.fail(w, status, "advise %s on %s/%s: %v", k.Name, be.machine.Name, ms.name, err)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"machines":       s.machineNames(),
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	s.writeJSON(w, http.StatusOK, s.snapshot())
}

// ModelDesc is one entry of the /v1/models listing.
type ModelDesc struct {
	Platform  string  `json:"platform"`
	Name      string  `json:"name"`
	Default   bool    `json:"default"`
	Level     string  `json:"level"`
	Source    string  `json:"source,omitempty"`
	Hidden    int     `json:"hidden,omitempty"`
	Layers    int     `json:"layers,omitempty"`
	Params    int     `json:"params,omitempty"`
	Epochs    int     `json:"epochs,omitempty"`
	ValRMSE   float64 `json:"val_rmse,omitempty"`
	CreatedAt string  `json:"created_at,omitempty"` // RFC 3339
}

// ModelsResponse is the /v1/models payload.
type ModelsResponse struct {
	Models []ModelDesc `json:"models"`
}

// Models lists every served model version (the /v1/models payload), sorted
// by (platform, name).
func (s *Server) Models() ModelsResponse {
	var resp ModelsResponse
	for _, machine := range s.machineNames() {
		be := s.backends[machine]
		for _, name := range be.modelNames() {
			ms := be.models[name]
			d := ModelDesc{
				Platform: machine,
				Name:     name,
				Default:  name == be.defaultName,
				Level:    ms.info.Level.String(),
				Source:   ms.info.Source,
				Hidden:   ms.info.Hidden,
				Layers:   ms.info.Layers,
				Params:   ms.info.Params,
				Epochs:   ms.info.Epochs,
				ValRMSE:  ms.info.ValRMSE,
			}
			if !ms.info.CreatedAt.IsZero() {
				d.CreatedAt = ms.info.CreatedAt.UTC().Format(time.RFC3339)
			}
			resp.Models = append(resp.Models, d)
		}
	}
	return resp
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	s.writeJSON(w, http.StatusOK, s.Models())
}

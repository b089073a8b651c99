// Package paragraph is a from-scratch Go reproduction of "ParaGraph:
// Weighted Graph Representation for Performance Optimization of HPC
// Kernels" (TehraniJamsaz et al., arXiv:2304.03487): a weighted, typed
// graph representation of OpenMP C kernels plus a relational graph
// attention network that predicts kernel runtime across CPUs and GPUs.
//
// The module root holds only the benchmark harness (bench_test.go), with
// one benchmark per table and figure of the paper's evaluation plus
// serving-path benchmarks. README.md is the tour; docs/ARCHITECTURE.md is
// the serving design doc (request lifecycle, sharding, replication), and
// docs/API.md and docs/OPERATIONS.md document the HTTP service. Entry
// points are under cmd/ (paragraph, train, experiments, serve, overload)
// and examples/; experiments -table 2 is the dataset sweep's Table II.
//
// # Package tree
//
//	internal/
//	  clex, cparse, cast     C subset lexer, parser (OpenMP pragmas too, into
//	                         the AST), Clang-style AST
//	  omp                    OpenMP vocabulary: directive, clause, map type
//	  analysis               static analyses (constant folding, array sizes)
//	  graph                  typed, weighted multigraph structure
//	  paragraph              the paper's representation: AST → ParaGraph
//	  apps, progen           Table I benchmark suite; random kernel generator
//	  variants               OpenMP code transformations (the variant grid)
//	  hw, sim, cluster       machine models, analytical runtime simulator,
//	                         batch-scheduled measurement substrate
//	  dataset                Figure 3 data assembly; the MinMax scaler, the
//	                         one sample constructor (Prepared.Sample) and
//	                         the one 9:1 split (Split) of §IV-B
//	  tensor, autodiff, nn   dense kernels, the reference reverse-mode tape,
//	                         NN blocks and the one mini-batch trainer
//	                         (nn.Train)
//	  gnn                    the RGAT cost model (one engine forward for
//	                         batched inference and training, a hand backward)
//	  compoff, metrics       COMPOFF baseline (an MLP on nn.Train and
//	                         dataset.Scaler); evaluation measures
//	  experiments            regenerates the paper's tables and figures
//	  advisor                variant generation → prediction → ranking
//	  registry               versioned model checkpoints (weights + manifest)
//	  serve                  the HTTP service: response cache, admission,
//	                         singleflight, snapshots, cluster routing
//	                         with replicated ownership
//	  shard                  consistent-hash ring (successor-list owners)
//	                         + peer forwarder (sync + async write-through)
//	                         backing serve's cluster mode
//	  obs                    metrics registry (Prometheus exposition) +
//	                         request tracing (spans, ring, slow log)
//
// # Serving
//
// Because the cost model predicts variant runtimes statically, it can run
// as an always-on advisory service rather than a one-shot CLI. cmd/serve
// exposes trained models over HTTP/JSON (internal/serve):
//
//	POST /v1/advise     rank a kernel's variant grid on one machine
//	                    (one variant's runtime: a one-point space)
//	GET  /v1/healthz    liveness and served machines
//	GET  /v1/models     served model versions per platform
//	GET  /v1/stats      cache/batcher/admission/per-model/cluster counters
//	GET  /v1/ring       cluster membership, ownership, replication counters
//	GET  /v1/trace      recent request traces with per-stage spans
//	GET  /metrics       Prometheus text exposition of every serve series
//	POST /v1/replicate  peer-internal cache write-through (cluster mode)
//
// Models come from a checkpoint registry (internal/registry): `train
// -save-dir DIR` persists each trained model as weights plus a JSON
// manifest (architecture, platform, representation level, feature/target
// scalers, weights checksum, training stats) under
// DIR/<platform-slug>/<version>/, and `serve -model-dir DIR` boots from
// those checkpoints without retraining — several named versions per
// platform (levels, scales, A/B candidates), resolved through a "default"
// alias unless a request's optional "model" field picks one. The registry
// has one loader: it verifies a checkpoint (manifest version, config,
// weights checksum) and returns an entry holding the model resident, so
// every checkpoint is checked at startup and none can go missing under a
// request. -model-dir is the only way cmd/serve boots.
//
// A request flows through three layers. A content-addressed LRU cache
// first answers exact repeats (whole advise rankings, keyed by hash
// of kernel template, bindings, search space and model version). On a miss, identical concurrent requests are
// collapsed into a single evaluation (singleflight), a per-client fair
// queue admits it into one of -pool evaluation slots, and
// the advisor evaluates it in two phases on the request's goroutine
// (internal/advisor): each variant kind is generated and parsed once and
// every grid point of it encoded; then the whole grid goes to the model as one gnn.Model.PredictBatch call
// through a per-model metered front (serve.Batcher). The engine evaluates
// the grid as topology families — the points of one variant kind are one
// graph seen under different weights, so it runs one full pass per kind and
// recomputes only the rows each further point changes. Nothing is coalesced
// across requests — two requests never share a family. Rankings are
// bit-identical to the serial pipeline; only throughput and latency change.
// Every answer arrives on the request's own connection, and there is no
// background job to poll: the largest grid a request may ask for (4096
// points) evaluates cold in about half a second for a suite kernel. A
// large custom kernel costs far more (29 s for a 720-statement kernel on a
// 2048-point grid), and nothing bounds that yet (ROADMAP item 6).
//
// With -cache-file the advise-response cache is snapshotted every five
// minutes and on SIGTERM/SIGINT — shutdown stops the listener,
// lets in-flight evaluations finish, then flushes — so a restarted process
// answers previously-cached requests as hits immediately.
// examples/serveclient shows the client side end to end.
//
// # Cluster mode
//
// Because the cache keys are content-addressed, N serve processes started
// with -self and -seed form a consistent-hash sharded tier
// (internal/shard): each key is owned by its first -replication ring
// successors (default 2) — the primary first, replicas in failover order.
// Non-owners proxy misses to the primary (so its cache and singleflight
// absorb all traffic for its keys and aggregate cache capacity scales
// with N), the primary writes each evaluated entry through to the
// replicas (its outbox posts it to POST /v1/replicate off the request
// path, retrying until the replica takes it), and when the primary is unreachable requests fail over to the replicas'
// warm copies before degrading to local serving — one peer death costs a
// forwarding detour, never recomputation. GET /v1/ring reports
// membership, exact ownership fractions, forward and replication
// counters, and per-key owner lists (?key=); adding or removing a peer
// changes only the owner lists it was on. docs/ARCHITECTURE.md documents
// the full design.
package paragraph

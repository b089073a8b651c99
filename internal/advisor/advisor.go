// Package advisor reassembles the paper's end-to-end use case: the role
// OpenMP Advisor (§II-D) plays with ParaGraph as its cost model. Given a
// serial benchmark kernel, it generates candidate OpenMP variants (code
// transformation), predicts each one's runtime statically with a trained
// cost model (kernel analysis + cost model), and returns them ranked — no
// execution required at inference time, the paper's key advantage over
// online autotuners (§II-E).
package advisor

import (
	"context"
	"fmt"
	"reflect"
	"runtime/debug"
	"sort"
	"sync"

	"paragraph/internal/analysis"
	"paragraph/internal/apps"
	"paragraph/internal/dataset"
	"paragraph/internal/gnn"
	"paragraph/internal/hw"
	"paragraph/internal/obs"
	"paragraph/internal/paragraph"
	"paragraph/internal/variants"
)

// Predictor is the minimal cost-model interface: a scaled-runtime
// regressor over one encoded sample. A predictor that also implements
// BatchPredictor or ContextBatchPredictor is handed a whole variant grid in
// one call instead (see New); one that offers only Predict is called once
// per sample, in grid order, on the goroutine that called Advise.
type Predictor interface {
	Predict(*gnn.Sample) float64
}

// BatchPredictor is the optional bulk extension: one call predicts a whole
// slice, results in input order and identical to per-sample Predict.
// *gnn.Model and registry.Entry implement it.
type BatchPredictor interface {
	PredictBatch([]*gnn.Sample) []float64
}

// ContextBatchPredictor is BatchPredictor with the request context threaded
// through, so a request-scoped trace (internal/obs) receives the predict
// span and a caller that gave up gets ctx.Err() instead of an evaluation
// nobody is waiting for. The serving layer's metered model front
// (internal/serve.Batcher) implements it.
type ContextBatchPredictor interface {
	PredictBatchCtx(context.Context, []*gnn.Sample) ([]float64, error)
}

// Advisor ranks kernel variants by predicted runtime on one machine.
type Advisor struct {
	// predict evaluates a slice of samples in one model call, in input
	// order; New resolves it from what the predictor offers.
	predict func(context.Context, []*gnn.Sample) ([]float64, error)
	prep    *dataset.Prepared // training-time scalers
	machine hw.Machine
	level   paragraph.Level

	// encoders memoizes the front end of each suite kernel's variant kinds,
	// memoKey → *dataset.Encoder: at most 17 kernels × 6 kinds × 3 levels,
	// never evicted (see encoder).
	encoders sync.Map
}

// memoKey names what a variant kind's topology depends on: the kernel's
// source and arrays (fixed for a suite kernel, so its name stands for
// them), the kind, and the representation level.
type memoKey struct {
	level  paragraph.Level
	kernel string
	kind   variants.Kind
}

// suite holds the benchmark suite's kernels by name, the only kernels
// whose front end Advise memoizes.
var suite = func() map[string]apps.Kernel {
	m := map[string]apps.Kernel{}
	for _, k := range apps.Kernels() {
		m[k.Name] = k
	}
	return m
}()

// isSuite reports whether k is its suite entry in every field. A custom
// kernel under a suite name with other source or arrays is not, and keeps
// a parse per request.
func isSuite(k apps.Kernel) bool {
	s, ok := suite[k.Name]
	return ok && reflect.DeepEqual(k, s)
}

// New builds an advisor from a trained predictor and the Prepared dataset
// it was trained on (whose scalers must be reused at inference). The
// widest prediction call the predictor offers is resolved here, once:
// ContextBatchPredictor, else BatchPredictor, else per-sample Predict. All
// three produce the same numbers; they differ in how many model calls a
// grid costs.
func New(model Predictor, prep *dataset.Prepared, machine hw.Machine) *Advisor {
	a := &Advisor{prep: prep, machine: machine, level: paragraph.LevelParaGraph}
	switch m := model.(type) {
	case ContextBatchPredictor:
		a.predict = m.PredictBatchCtx
	case BatchPredictor:
		a.predict = func(_ context.Context, ss []*gnn.Sample) ([]float64, error) {
			return m.PredictBatch(ss), nil
		}
	default:
		a.predict = func(ctx context.Context, ss []*gnn.Sample) ([]float64, error) {
			out := make([]float64, len(ss))
			return out, forEach(ctx, len(ss), func(i int) string { return "predicting " + ss[i].Name }, func(i int) error {
				out[i] = model.Predict(ss[i])
				return nil
			})
		}
	}
	return a
}

// SetLevel selects the representation level the advisor builds graphs at:
// Advise's front end and EncodeInstance both read it, and it is part of the
// key under which Advise memoizes a suite kernel's parsed kinds. The
// default is LevelParaGraph; it must match the level the predictor was
// trained on (registry checkpoints record theirs in the manifest).
func (a *Advisor) SetLevel(l paragraph.Level) { a.level = l }

// SetWorkers does nothing. Advise runs on its caller's goroutine, and a
// server bounds the cores its evaluations use by how many it admits. It is
// kept only because bench/oracle.go calls it, and goes with that caller
// (ROADMAP item 26).
func (a *Advisor) SetWorkers(int) {}

// SearchSpace is the variant/parallelism grid to rank.
type SearchSpace struct {
	CPUThreads []int // used on CPU machines
	GPUTeams   []int // used on GPU machines
	GPUThreads []int
}

// DefaultSearchSpace mirrors the dataset sweep.
func DefaultSearchSpace() SearchSpace {
	return SearchSpace{
		CPUThreads: []int{1, 2, 4, 8, 16, 22, 24},
		GPUTeams:   []int{16, 64, 128, 256},
		GPUThreads: []int{64, 128, 256},
	}
}

// MaxGridPoints bounds the grid one Advise evaluates. The default space is
// 24–48 points; the bound keeps a request from the network from sizing the
// server's work and memory by a product of three lists.
const MaxGridPoints = 4096

// SpaceError is a search space Advise refuses. Reason is a stable token —
// "space_value" for an entry below 1, "grid_points" for a grid over
// MaxGridPoints — for callers that count refusals by cause.
type SpaceError struct {
	Reason string
	msg    string
}

func (e *SpaceError) Error() string { return e.msg }

// PanicError is a panic under the advisor — in the front end or in the
// predictor — turned into the request's error.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// ranks reports whether Advise ranks variant kind for k on m.
func ranks(kind variants.Kind, k apps.Kernel, m hw.Machine) bool {
	return kind.IsGPU() == m.IsGPU && (k.Collapsible || !kind.IsCollapse())
}

// CheckSpace reports, as a *SpaceError, why Advise would refuse space for k
// on m: an entry below 1 (a zero drops a clause and changes the topology in
// the middle of a kind), or more than MaxGridPoints points. It costs three
// list scans and no allocation, so a server can refuse at the edge, ahead of
// its cache.
func CheckSpace(k apps.Kernel, m hw.Machine, space SearchSpace) error {
	for _, list := range [...][]int{space.CPUThreads, space.GPUTeams, space.GPUThreads} {
		for _, v := range list {
			if v < 1 {
				return &SpaceError{"space_value", fmt.Sprintf("advisor: search space entry %d: team and thread counts must be at least 1", v)}
			}
		}
	}
	perKind := len(space.CPUThreads)
	if m.IsGPU {
		perKind = len(space.GPUTeams) * len(space.GPUThreads)
		if len(space.GPUTeams) > MaxGridPoints || len(space.GPUThreads) > MaxGridPoints {
			perKind = MaxGridPoints + 1 // the product could overflow
		}
	}
	kinds := 0
	for kind := variants.Kind(0); kind < variants.NumKinds; kind++ {
		if ranks(kind, k, m) {
			kinds++
		}
	}
	if perKind > MaxGridPoints || kinds*perKind > MaxGridPoints {
		return &SpaceError{"grid_points", fmt.Sprintf("advisor: search space of %d variant kinds x %d points exceeds %d grid points",
			kinds, perKind, MaxGridPoints)}
	}
	return nil
}

// Recommendation is one ranked candidate.
type Recommendation struct {
	Kind        variants.Kind
	Teams       int
	Threads     int
	PredictedUS float64
	Source      string // the transformed kernel, ready to drop in
}

// Advise enumerates the machine-compatible variants of kernel k under
// bindings, predicts each statically, and returns them sorted by predicted
// runtime (fastest first). It runs in two phases, both on the calling
// goroutine. The front end works a variant kind at a time: a kind's
// sources differ only in their num_teams/thread_limit/num_threads literals,
// so its first point is parsed and its topology derived once
// (dataset.Encoder), and each point then only gets its own literal feature
// rows and the Child weights of its thread count — weighed once per distinct
// count and shared across team counts. A suite kernel's kind is parsed once
// per advisor and level: later requests reuse its topology (and the engine's
// plan cached on it) and weigh only their own bindings. Then the whole grid,
// in enumeration order, goes to the predictor as one batch. The samples are the ones a
// per-point EncodeInstance yields, predictions do not depend on their
// batchmates and the sort is stable, so the ranking is identical to a
// one-point-at-a-time run.
func (a *Advisor) Advise(k apps.Kernel, bindings analysis.Env, space SearchSpace) ([]Recommendation, error) {
	return a.AdviseCtx(context.Background(), k, bindings, space)
}

// AdviseCtx is Advise with a request context. A trace attached to ctx
// (obs.WithTrace) receives one encode span for the front-end phase, the
// predictor's predict span (from a ContextBatchPredictor) and rank around
// the final sort. A context that ends during the front-end phase returns
// ctx.Err() before the model is called at all.
func (a *Advisor) AdviseCtx(ctx context.Context, k apps.Kernel, bindings analysis.Env, space SearchSpace) ([]Recommendation, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	if err := CheckSpace(k, a.machine, space); err != nil {
		return nil, err
	}
	var kinds []variants.Kind
	for _, kind := range variants.Kinds() {
		if ranks(kind, k, a.machine) {
			kinds = append(kinds, kind)
		}
	}
	teams, threads := []int{0}, space.CPUThreads
	if a.machine.IsGPU {
		teams, threads = space.GPUTeams, space.GPUThreads
	}
	perKind := len(teams) * len(threads)
	if len(kinds)*perKind == 0 {
		return nil, fmt.Errorf("advisor: no %s-compatible variants for kernel %q",
			machineClass(a.machine), k.Name)
	}
	recs := make([]Recommendation, 0, len(kinds)*perKind)
	for _, kind := range kinds {
		for _, g := range teams {
			for _, t := range threads {
				recs = append(recs, Recommendation{Kind: kind, Teams: g, Threads: t})
			}
		}
	}

	tr := obs.TraceFrom(ctx)
	enc := tr.StartSpan("encode")
	enc.Annotate(fmt.Sprintf("points=%d", len(recs)))
	samples := make([]*gnn.Sample, len(recs))
	kindName := func(kind int) string { return "variant " + kinds[kind].String() }
	memo := isSuite(k)
	err := forEach(ctx, len(kinds), kindName, func(kind int) error {
		lo := kind * perKind
		return a.encodeKind(k, memo, bindings, recs[lo:lo+perKind], samples[lo:lo+perKind])
	})
	enc.End()
	if err != nil {
		return nil, err
	}

	preds, err := a.callModel(ctx, samples)
	if err != nil {
		return nil, err
	}
	for i := range recs {
		recs[i].PredictedUS = a.prep.DescaleUS(preds[i])
	}
	rank := tr.StartSpan("rank")
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].PredictedUS < recs[j].PredictedUS })
	rank.End()
	return recs, nil
}

// encodeKind is the front end of one variant kind's points: every point's
// source is generated, the kind's Encoder is taken from the memo (memo set)
// or the first source is parsed, and each point's sample comes off that one
// topology. CheckSpace made every count positive, so the points all spell
// the clauses of whichever point the Encoder was parsed from.
func (a *Advisor) encodeKind(k apps.Kernel, memo bool, bindings analysis.Env, recs []Recommendation, samples []*gnn.Sample) error {
	var grid *dataset.Grid
	for i := range recs {
		r := &recs[i]
		fail := func(err error) error {
			return fmt.Errorf("advisor: variant %s g%d t%d: %w", r.Kind, r.Teams, r.Threads, err)
		}
		src, err := variants.Generate(k, r.Kind, r.Teams, r.Threads)
		if err != nil {
			return fail(err)
		}
		r.Source = src
		if grid == nil {
			enc, err := a.encoder(k, memo, r.Kind, src)
			if err != nil {
				return fail(err)
			}
			grid = enc.Bind(bindings)
		}
		eg, err := grid.Graph(r.Teams, r.Threads)
		if err != nil {
			return fail(err)
		}
		samples[i] = a.sample(eg, variants.Instance{Kernel: k, Kind: r.Kind, Teams: r.Teams, Threads: r.Threads, Bindings: bindings})
	}
	return nil
}

// encoder returns the Encoder of kind's variants of k at the advisor's
// level, parsing src, one of them, unless memo is set and an earlier request
// already did. Concurrent first requests may both parse; one Encoder is
// kept, and every request uses it.
func (a *Advisor) encoder(k apps.Kernel, memo bool, kind variants.Kind, src string) (*dataset.Encoder, error) {
	if !memo {
		return dataset.NewEncoder(src, a.level, k.PragmaOffset())
	}
	key := memoKey{level: a.level, kernel: k.Name, kind: kind}
	if enc, ok := a.encoders.Load(key); ok {
		return enc.(*dataset.Encoder), nil
	}
	enc, err := dataset.NewEncoder(src, a.level, k.PragmaOffset())
	if err != nil {
		return nil, err
	}
	kept, _ := a.encoders.LoadOrStore(key, enc)
	return kept.(*dataset.Encoder), nil
}

// guard runs fn, turning a panic in it into a *PanicError under what()'s
// name.
func guard(what func() string, fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("advisor: %s: %w", what(), &PanicError{Value: v, Stack: debug.Stack()})
		}
	}()
	return fn()
}

// callModel hands samples to the predictor. A panic under it — a model bug
// on a grid no test fed it — is the request's error like a front-end one:
// left to net/http's recover, it would drop the connection with no 500 and
// no stack in the log.
func (a *Advisor) callModel(ctx context.Context, samples []*gnn.Sample) (preds []float64, err error) {
	what := func() string { return fmt.Sprintf("predicting %d samples from %s", len(samples), samples[0].Name) }
	err = guard(what, func() (err error) {
		preds, err = a.predict(ctx, samples)
		return err
	})
	return preds, err
}

// forEach runs fn(0..n-1) in order, checking ctx before each index, and
// stops at the first failure, whose error it returns, or once ctx ends,
// returning ctx.Err(). A panic in fn is that index's error, a *PanicError
// under what(i)'s name.
func forEach(ctx context.Context, n int, what func(int) string, fn func(int) error) error {
	for i := 0; i < n && ctx.Err() == nil; i++ {
		if err := guard(func() string { return what(i) }, func() error { return fn(i) }); err != nil {
			return err
		}
	}
	return ctx.Err()
}

// EncodeInstance builds the model-ready sample for an unseen instance: the
// graph dataset.Prepare would build for it (the same front end, a
// dataset.Encoder with a grid of one), scaled with the training-time
// scalers.
func (a *Advisor) EncodeInstance(in variants.Instance) (*gnn.Sample, error) {
	eg, err := dataset.EncodeSource(in.Source, a.level, in.Threads, in.Bindings)
	if err != nil {
		return nil, err
	}
	return a.sample(eg, in), nil
}

// sample scales an encoded, not yet measured instance with the
// training-time scalers.
func (a *Advisor) sample(eg *gnn.Graph, in variants.Instance) *gnn.Sample {
	s := a.prep.Sample(eg, in.Teams, in.Threads, 0)
	s.Name = in.Name()
	return s
}

// BindingsKey renders size bindings deterministically (sorted name=value
// pairs) for the serving layer's content-addressed cache keys.
func BindingsKey(bindings analysis.Env) string { return bindings.Key() }

func machineClass(m hw.Machine) string {
	if m.IsGPU {
		return "GPU"
	}
	return "CPU"
}

package gnn

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"

	"paragraph/internal/autodiff"
	"paragraph/internal/nn"
	"paragraph/internal/tensor"
)

// featRow lays the two runtime-configuration features out as a 1×2 input.
// The tape path builds one per pass because the tape owns its inputs until
// Backward finishes; the inference engine keeps the row in its pooled
// workspace instead (see workspace.featIn).
func featRow(f [2]float64) *tensor.Matrix {
	return tensor.FromData(1, 2, []float64{f[0], f[1]})
}

// onesRowConst is the shared 1×1 constant that offsets message scales to
// 1 + c·w̃. It is bound read-only as a tape constant, so one package-level
// matrix serves every pass (previously each forward allocated one per
// relation per layer).
var onesRowConst = tensor.Scalar(1)

// Config shapes the model.
type Config struct {
	Hidden     int     // node embedding width (default 32)
	FeatHidden int     // width of the (teams, threads) branch (default 16)
	Layers     int     // RGAT convolution count (paper: 3)
	Relations  int     // edge-type count (ParaGraph: 8)
	Kinds      int     // node-kind vocabulary size
	LeakyAlpha float64 // attention LeakyReLU slope (default 0.2)
	Seed       int64

	// DisableEdgeWeights cuts the static-weight message-scaling path
	// (α·(1+c_r·w̃)·q → α·q), for ablating the design choice of how
	// ParaGraph's W enters the network. Distinct from the representation
	// ablation (Table IV), which removes the weights from the graph itself.
	DisableEdgeWeights bool
}

func (c Config) withDefaults() Config {
	if c.Hidden <= 0 {
		c.Hidden = 32
	}
	if c.FeatHidden <= 0 {
		c.FeatHidden = 16
	}
	if c.Layers <= 0 {
		c.Layers = 3
	}
	if c.Relations <= 0 {
		c.Relations = 8
	}
	if c.Kinds <= 0 {
		c.Kinds = 40
	}
	if c.LeakyAlpha <= 0 {
		c.LeakyAlpha = 0.2
	}
	return c
}

// rgatLayer is one relational graph attention convolution. Attention is
// computed within each relation (WIRGAT): per relation r, additive logits
// over edges — aSrc·(W_r h_src) + aDst·(W_r h_dst) + c_r·w̃_e, softmax over
// each node's incoming r-edges, message aggregation, then summation across
// relations plus a self-loop projection.
type rgatLayer struct {
	w         []*nn.Parameter // per-relation projection Hidden×Hidden
	aSrc      []*nn.Parameter // per-relation source attention Hidden×1
	aDst      []*nn.Parameter // per-relation destination attention Hidden×1
	wCoef     []*nn.Parameter // per-relation edge-weight coefficient 1×1
	self      *nn.Parameter   // self-loop projection Hidden×Hidden
	bias      *nn.Parameter   // 1×Hidden
	alpha     float64
	noWeights bool
}

func newRGATLayer(name string, cfg Config, rng *rand.Rand) *rgatLayer {
	l := &rgatLayer{alpha: cfg.LeakyAlpha, noWeights: cfg.DisableEdgeWeights}
	for r := 0; r < cfg.Relations; r++ {
		l.w = append(l.w, nn.GlorotParameter(fmt.Sprintf("%s.w%d", name, r), cfg.Hidden, cfg.Hidden, rng))
		l.aSrc = append(l.aSrc, nn.GlorotParameter(fmt.Sprintf("%s.asrc%d", name, r), cfg.Hidden, 1, rng))
		l.aDst = append(l.aDst, nn.GlorotParameter(fmt.Sprintf("%s.adst%d", name, r), cfg.Hidden, 1, rng))
		c := nn.NewParameter(fmt.Sprintf("%s.wcoef%d", name, r), 1, 1)
		c.Value.Set(0, 0, 1) // start by trusting the static weights
		l.wCoef = append(l.wCoef, c)
	}
	l.self = nn.GlorotParameter(name+".self", cfg.Hidden, cfg.Hidden, rng)
	l.bias = nn.NewParameter(name+".bias", 1, cfg.Hidden)
	return l
}

func (l *rgatLayer) params() []*nn.Parameter {
	var ps []*nn.Parameter
	ps = append(ps, l.w...)
	ps = append(ps, l.aSrc...)
	ps = append(ps, l.aDst...)
	ps = append(ps, l.wCoef...)
	ps = append(ps, l.self, l.bias)
	return ps
}

// apply runs the convolution over h (N×Hidden) for graph g.
func (l *rgatLayer) apply(f *nn.Forward, g *Graph, h *autodiff.Var) *autodiff.Var {
	tp := f.Tape
	out := tp.AddBias(tp.MatMul(h, f.Bind(l.self)), f.Bind(l.bias))
	for r := range g.Rels {
		if r >= len(l.w) {
			break
		}
		rel := &g.Rels[r]
		if len(rel.Src) == 0 {
			continue
		}
		q := tp.MatMul(h, f.Bind(l.w[r]))
		srcScore := tp.MatMul(q, f.Bind(l.aSrc[r]))
		dstScore := tp.MatMul(q, f.Bind(l.aDst[r]))
		logits := tp.Add(tp.GatherRows(srcScore, rel.Src), tp.GatherRows(dstScore, rel.Dst))
		logits = tp.LeakyReLU(logits, l.alpha)
		attn := tp.SegmentSoftmax(logits, rel.Dst, g.NumNodes)
		// Static edge weights (ParaGraph's W) scale the messages through a
		// learned per-relation coefficient: α·(1 + c_r·w̃)·q_src. A purely
		// logit-side weight term would vanish on tree-shaped relations —
		// softmax over a single incoming Child edge is constant — so the
		// multiplicative path is what lets execution counts reach the
		// embedding. Non-Child relations carry zero weight and reduce to
		// plain attention.
		msgs := tp.MulColBroadcast(tp.GatherRows(q, rel.Src), attn)
		if !l.noWeights {
			wcol := tp.Const(g.weightColumn(r))
			wterm := tp.MatMul(wcol, f.Bind(l.wCoef[r]))
			scale := tp.AddBias(wterm, tp.Const(onesRowConst))
			msgs = tp.MulColBroadcast(msgs, scale)
		}
		out = tp.Add(out, tp.ScatterAddRows(msgs, rel.Dst, g.NumNodes))
	}
	return out
}

// Model is the full ParaGraph cost model.
type Model struct {
	cfg Config

	kindEmb *nn.Embedding
	subEmb  *nn.Embedding
	featVec *nn.Parameter // 1×Hidden projection of the scalar node feature

	layers []*rgatLayer

	fc1    *nn.Linear // graph-embedding path
	fc2    *nn.Linear
	featFC *nn.Linear // (teams, threads) path
	out    *nn.Linear // regression head

	params []*nn.Parameter

	// wsPool recycles inference workspaces (see infer.go) across
	// Predict/PredictBatch calls, and gradPool training's (backward.go)
	// across examples and mini-batches; each borrowed workspace is used by
	// one goroutine at a time.
	wsPool, gradPool sync.Pool

	// Derived inference weights (see inferparams.go): the parameters and
	// precomputed attention projections in the width f32Mode selects.
	// Rebuilt lazily after any invalidation.
	inferMu sync.Mutex
	inferP  atomic.Pointer[inferModel]
	f32Mode atomic.Bool
}

// NewModel constructs the model with seeded initialization.
func NewModel(cfg Config) *Model {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{cfg: cfg}
	m.kindEmb = nn.NewEmbedding("kind", cfg.Kinds, cfg.Hidden, rng)
	m.subEmb = nn.NewEmbedding("subkind", MaxSubKinds, cfg.Hidden, rng)
	m.featVec = nn.GlorotParameter("featvec", 1, cfg.Hidden, rng)
	for i := 0; i < cfg.Layers; i++ {
		m.layers = append(m.layers, newRGATLayer(fmt.Sprintf("conv%d", i), cfg, rng))
	}
	m.fc1 = nn.NewLinear("fc1", cfg.Hidden, cfg.Hidden, rng)
	m.fc2 = nn.NewLinear("fc2", cfg.Hidden, cfg.Hidden, rng)
	m.featFC = nn.NewLinear("featfc", 2, cfg.FeatHidden, rng)
	m.out = nn.NewLinear("out", cfg.Hidden+cfg.FeatHidden, 1, rng)

	m.params = append(m.params, m.kindEmb.Params()...)
	m.params = append(m.params, m.subEmb.Params()...)
	m.params = append(m.params, m.featVec)
	for _, l := range m.layers {
		m.params = append(m.params, l.params()...)
	}
	m.params = append(m.params, m.fc1.Params()...)
	m.params = append(m.params, m.fc2.Params()...)
	m.params = append(m.params, m.featFC.Params()...)
	m.params = append(m.params, m.out.Params()...)
	return m
}

// Config returns the model configuration (with defaults resolved).
func (m *Model) Config() Config { return m.cfg }

// Params returns all trainable parameters.
func (m *Model) Params() []*nn.Parameter { return m.params }

// NumParams returns the total scalar parameter count.
func (m *Model) NumParams() int { return nn.NumElements(m.params) }

// Forward computes the scaled runtime prediction (1×1) for one sample.
func (m *Model) Forward(f *nn.Forward, s *Sample) *autodiff.Var {
	tp := f.Tape
	// Node features: kind embedding + sub-kind embedding + scalar feature
	// projected through featVec.
	h := tp.Add(m.kindEmb.Apply(f, s.G.Kinds), m.subEmb.Apply(f, s.G.SubKinds))
	featProj := tp.MatMul(tp.Const(s.G.Feats), f.Bind(m.featVec))
	h = tp.Add(h, featProj)

	for _, l := range m.layers {
		h = tp.ReLU(l.apply(f, s.G, h))
	}

	pooled := tp.MeanRows(h)
	emb := tp.ReLU(m.fc1.Apply(f, pooled))
	emb = tp.ReLU(m.fc2.Apply(f, emb))

	featIn := tp.Const(featRow(s.Feats))
	featEmb := tp.ReLU(m.featFC.Apply(f, featIn))

	return m.out.Apply(f, tp.ConcatCols(emb, featEmb))
}

// Predict returns the scaled prediction for a sample. It routes through the
// inference engine (infer.go): a pooled, allocation-free forward pass whose
// result matches the tape path (PredictTape) to a tight relative tolerance
// (≤1e-9 in the default float64 mode, ≤1e-4 with float32 inference; see the
// equivalence tests). The engine's kernels reassociate sums — tiled
// matmuls, precomputed attention projections — so agreement is
// relaxed-equivalent rather than bit-exact.
func (m *Model) Predict(s *Sample) float64 {
	ip := m.inferParams()
	if ip.f32 != nil {
		return predictOne(m, ip.f32, s)
	}
	return predictOne(m, ip.f64, s)
}

// PredictTape is the reference prediction: Forward, the autodiff tape path,
// run on an inference tape. It exists for the engine equivalence tests and
// benchmarks; serving traffic should use Predict.
func (m *Model) PredictTape(s *Sample) float64 {
	f := nn.NewInference()
	return m.Forward(f, s).Value.At(0, 0)
}

// PredictBatch returns scaled predictions for a batch of samples. The batch
// is evaluated as topology families (infer.go): samples whose graphs share
// their structure — the points of one advise grid — share every row of work
// that their features and edge weights leave equal, and the families are
// fanned across a bounded worker pool (at most GOMAXPROCS goroutines) with
// one pooled engine workspace per worker. Each sample's prediction is
// independent of its batchmates in value — bit-identical to calling Predict
// on it alone — though not in cost. This is the call an advise request's
// whole variant grid arrives on (internal/advisor, and internal/serve's
// metered Batcher in front of it).
// PredictAll is the same evaluation with a caller-chosen worker bound.
func (m *Model) PredictBatch(samples []*Sample) []float64 {
	out := make([]float64, len(samples))
	m.predictInto(out, samples, 0)
	return out
}

// Save writes the model weights as a checkpoint. The architecture (Config)
// is not stored; Load must be called on a model built with the same Config.
// internal/registry pairs the weights with a manifest carrying the Config.
func (m *Model) Save(w io.Writer) error { return nn.SaveParams(w, m.params) }

// Load restores weights from a checkpoint produced by Save on an
// identically-configured model, discarding any precomputed inference
// weights derived from the previous values.
func (m *Model) Load(r io.Reader) error {
	err := nn.LoadParams(r, m.params)
	m.InvalidateInference()
	return err
}

// Checksum fingerprints the current weights (see nn.ChecksumParams).
func (m *Model) Checksum() string { return nn.ChecksumParams(m.params) }

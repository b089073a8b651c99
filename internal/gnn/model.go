package gnn

import (
	"fmt"
	"io"
	"math/rand"
	"sync"

	"paragraph/internal/autodiff"
	"paragraph/internal/nn"
	"paragraph/internal/paragraph"
	"paragraph/internal/tensor"
)

// featRow lays the two runtime-configuration features out as a 1×2 input.
// The tape path builds one per pass because the tape owns its inputs until
// Backward finishes; the inference engine keeps the row in its
// workspace instead (see workspace.featIn).
func featRow(f [2]float64) *tensor.Matrix {
	return tensor.FromData(1, 2, []float64{f[0], f[1]})
}

// onesRowConst is the shared 1×1 constant that offsets Child's message
// scales to 1 + c·w̃, bound read-only as a tape constant by every pass.
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

// The relations' roles. ParaGraph gives every node at most one in-edge of
// every type but Ref (TestInDegreeCensus), so a softmax within a relation
// can change a message only on Ref; and it weighs only Child edges (W is
// zero off Child, paragraph.go). Attention is therefore Ref's alone, and
// every other relation sends its messages with α = 1; the edge-weight
// factor 1 + c·w̃ is Child's alone, and Graph.LogW is Child's column, the
// only one an encoded graph carries (Encode refuses a weight elsewhere).
const (
	ref   = int(paragraph.Ref)
	child = int(paragraph.Child)
)

// rgatLayer is one relational graph attention convolution. Per relation r,
// each edge's message is its source row projected through W_r; on Ref it
// is weighted by additive attention — aSrc·(W_r h_src) + aDst·(W_r h_dst),
// LeakyReLU, softmax over each node's incoming Ref edges (WIRGAT) — and on
// Child scaled by 1 + c·w̃_e. Messages are summed into their destinations
// across relations, plus a self-loop projection.
type rgatLayer struct {
	w          []*nn.Parameter // per-relation projection Hidden×Hidden
	aSrc, aDst *nn.Parameter   // Ref's source and destination attention Hidden×1; nil without a Ref relation
	wCoef      *nn.Parameter   // Child's edge-weight coefficient 1×1
	self       *nn.Parameter   // self-loop projection Hidden×Hidden
	bias       *nn.Parameter   // 1×Hidden
	alpha      float64

	// Derived from the parameters by refresh, into storage newRGATLayer
	// allocates once: Ref's attention projections pSrc = W_Ref·aSrc and
	// pDst = W_Ref·aDst (length Hidden; nil without Ref), which turn the
	// engine's per-node score into one H-dot, and the transposes the
	// backward multiplies by.
	pSrc, pDst []float64
	selfT      *tensor.Matrix
	wT         []*tensor.Matrix

	// Where each parameter starts in a flat gradient (Params order), set
	// once by NewModel.
	wAt                                     []int
	aSrcAt, aDstAt, wCoefAt, selfAt, biasAt int
}

// newRGATLayer draws the layer's parameters from rng and adds to dropped the
// names of those it discards.
func newRGATLayer(name string, cfg Config, rng *rand.Rand, dropped map[string]bool) *rgatLayer {
	l := &rgatLayer{alpha: cfg.LeakyAlpha}
	for r := 0; r < cfg.Relations; r++ {
		l.w = append(l.w, nn.GlorotParameter(fmt.Sprintf("%s.w%d", name, r), cfg.Hidden, cfg.Hidden, rng))
		// Every relation's attention pair is drawn, as when the model held
		// them all, so every kept parameter keeps its seeded bits; Load
		// skips the dropped names, which older checkpoints hold.
		aSrc := nn.GlorotParameter(fmt.Sprintf("%s.asrc%d", name, r), cfg.Hidden, 1, rng)
		aDst := nn.GlorotParameter(fmt.Sprintf("%s.adst%d", name, r), cfg.Hidden, 1, rng)
		if r == ref {
			l.aSrc, l.aDst = aSrc, aDst
		} else {
			dropped[aSrc.Name], dropped[aDst.Name] = true, true
		}
		if r != child {
			dropped[fmt.Sprintf("%s.wcoef%d", name, r)] = true
		}
		l.wT = append(l.wT, tensor.New(cfg.Hidden, cfg.Hidden))
	}
	if l.aSrc != nil {
		l.pSrc, l.pDst = make([]float64, cfg.Hidden), make([]float64, cfg.Hidden)
	}
	l.selfT = tensor.New(cfg.Hidden, cfg.Hidden)
	l.wCoef = nn.NewParameter(fmt.Sprintf("%s.wcoef%d", name, child), 1, 1)
	l.wCoef.Value.Set(0, 0, 1) // start by trusting the static weights
	l.self = nn.GlorotParameter(name+".self", cfg.Hidden, cfg.Hidden, rng)
	l.bias = nn.NewParameter(name+".bias", 1, cfg.Hidden)
	return l
}

// refresh recomputes the layer's derived values from its parameters' current
// values, in place and without allocating.
func (l *rgatLayer) refresh() {
	tensor.TransposeInto(l.self.Value, l.selfT)
	for r, w := range l.w {
		tensor.TransposeInto(w.Value, l.wT[r])
	}
	if l.aSrc != nil {
		w := l.w[ref].Value
		for i := range l.pSrc {
			l.pSrc[i] = tensor.Dot(w.Row(i), l.aSrc.Value.Data)
			l.pDst[i] = tensor.Dot(w.Row(i), l.aDst.Value.Data)
		}
	}
}

func (l *rgatLayer) params() []*nn.Parameter {
	ps := append([]*nn.Parameter(nil), l.w...)
	if l.aSrc != nil {
		ps = append(ps, l.aSrc, l.aDst)
	}
	return append(ps, l.wCoef, l.self, l.bias)
}

// apply runs the convolution over h (N×Hidden) for graph g.
func (l *rgatLayer) apply(f *nn.Forward, g *Graph, h *autodiff.Var) *autodiff.Var {
	tp := f.Tape
	out := tp.AddBias(tp.MatMul(h, f.Bind(l.self)), f.Bind(l.bias))
	for r := range g.Rels[:min(len(g.Rels), len(l.w))] {
		rel := &g.Rels[r]
		if len(rel.Src) == 0 {
			continue
		}
		q := tp.MatMul(h, f.Bind(l.w[r]))
		msgs := tp.GatherRows(q, rel.Src)
		switch r {
		case ref:
			srcScore := tp.MatMul(q, f.Bind(l.aSrc))
			dstScore := tp.MatMul(q, f.Bind(l.aDst))
			logits := tp.Add(tp.GatherRows(srcScore, rel.Src), tp.GatherRows(dstScore, rel.Dst))
			logits = tp.LeakyReLU(logits, l.alpha)
			msgs = tp.MulColBroadcast(msgs, tp.SegmentSoftmax(logits, rel.Dst, g.NumNodes))
		case child:
			// Static edge weights (ParaGraph's W) scale the messages
			// through a learned coefficient: (1 + c·w̃)·q_src. A logit-side
			// weight term would vanish here — a softmax over a node's single
			// incoming Child edge is constant — so the multiplicative path
			// is what lets execution counts reach the embedding.
			wterm := tp.MatMul(tp.Const(g.weightColumn()), f.Bind(l.wCoef))
			msgs = tp.MulColBroadcast(msgs, tp.AddBias(wterm, tp.Const(onesRowConst)))
		}
		out = tp.Add(out, tp.ScatterAddRows(msgs, rel.Dst, g.NumNodes))
	}
	return out
}

// Model is the full ParaGraph cost model. Its parameters change only
// through Train and Load, never while the same model predicts: every caller
// trains (or loads) first and predicts after, so the engine reads them, and
// the values refresh derives from them, without a lock.
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
	// dropped names the parameters older checkpoints hold and the model
	// does not (see newRGATLayer).
	dropped map[string]bool

	// Where the embeddings, featVec and each dense layer's block (W, then
	// b) start in a flat gradient; the layers keep their own.
	kindAt, subAt, featVecAt    int
	fc1At, fc2At, featAt, outAt int

	// ws holds the inference workspaces (see infer.go) between calls, and
	// grads training's (backward.go) between examples and mini-batches.
	ws    freeList[workspace, *workspace]
	grads freeList[gradWS, *gradWS]
}

// NewModel constructs the model with seeded initialization.
func NewModel(cfg Config) *Model {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{cfg: cfg, dropped: map[string]bool{}}
	m.kindEmb = nn.NewEmbedding("kind", cfg.Kinds, cfg.Hidden, rng)
	m.subEmb = nn.NewEmbedding("subkind", MaxSubKinds, cfg.Hidden, rng)
	m.featVec = nn.GlorotParameter("featvec", 1, cfg.Hidden, rng)
	for i := 0; i < cfg.Layers; i++ {
		m.layers = append(m.layers, newRGATLayer(fmt.Sprintf("conv%d", i), cfg, rng, m.dropped))
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

	at := map[*nn.Parameter]int{}
	off := 0
	for _, p := range m.params {
		at[p] = off
		off += len(p.Value.Data)
	}
	m.kindAt, m.subAt, m.featVecAt = at[m.kindEmb.Table], at[m.subEmb.Table], at[m.featVec]
	m.fc1At, m.fc2At, m.featAt, m.outAt = at[m.fc1.W], at[m.fc2.W], at[m.featFC.W], at[m.out.W]
	for _, l := range m.layers {
		for _, w := range l.w {
			l.wAt = append(l.wAt, at[w])
		}
		l.aSrcAt, l.aDstAt = at[l.aSrc], at[l.aDst]
		l.wCoefAt, l.selfAt, l.biasAt = at[l.wCoef], at[l.self], at[l.bias]
	}
	m.refresh()
	return m
}

// refresh recomputes every layer's derived values (rgatLayer.refresh) after
// the parameters change: at each mini-batch's Gradient (after the previous
// Adam step), in Train's validation after each epoch's last step, and in
// Load.
func (m *Model) refresh() {
	for _, l := range m.layers {
		l.refresh()
	}
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
	featProj := tp.MatMul(tp.Const(tensor.FromData(s.G.NumNodes, 1, s.G.Feats)), f.Bind(m.featVec))
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
// inference engine (infer.go): an allocation-free forward pass whose
// result matches the tape path (PredictTape) to ≤1e-9 relative (see the
// equivalence tests). The engine's kernels reassociate sums — tiled
// matmuls, precomputed attention projections — so agreement is
// relaxed-equivalent rather than bit-exact.
func (m *Model) Predict(s *Sample) float64 {
	var out [1]float64
	m.predict(out[:], []*Sample{s})
	return out[0]
}

// PredictTape is the reference prediction: Forward, the autodiff tape path.
// It exists for the engine equivalence tests and benchmarks; serving
// traffic should use Predict.
func (m *Model) PredictTape(s *Sample) float64 {
	f := nn.NewForward()
	return m.Forward(f, s).Value.At(0, 0)
}

// PredictBatch returns scaled predictions for a batch of samples. The batch
// is evaluated as topology families (infer.go): samples whose graphs share
// their structure — the points of one advise grid — share every row of work
// that their features and edge weights leave equal, one family after
// another on the calling goroutine and one engine workspace. Each sample's
// prediction is independent of its batchmates in value — bit-identical to
// calling Predict on it alone — though not in cost. This is the call an
// advise request's whole variant grid arrives on (internal/advisor, and
// internal/serve's metered Batcher in front of it).
func (m *Model) PredictBatch(samples []*Sample) []float64 {
	out := make([]float64, len(samples))
	m.predict(out, samples)
	return out
}

// freeList is a Model's stock of engine workspaces of one kind. get pops
// one, or allocates one when every workspace is out; put pushes it back. So
// the list never holds more workspaces than the model's most concurrent
// callers, and, unlike a sync.Pool, no collection empties it: a workspace
// keeps the buffers it grew. A workspace whose call panicked is not put
// back, nor is one whose buffers outgrew maxRetained.
type freeList[T any, P interface {
	*T
	retained() int
}] struct {
	mu   sync.Mutex
	free []P
}

// maxRetained bounds the slot and undo-log bytes a kept workspace may
// hold. Advising each suite kernel at its largest binding over the default
// grid grows at most 2.4 MB on POWER9 and 1.6 MB on V100 (at Hidden 24 and
// 32: slots grow by powers of two), and training on those graphs 0.5 MB.
// About seven times the largest keeps all of them; a custom kernel of 100
// statements (34 MB) or 720 (268 MB) is left to the collector instead.
const maxRetained = 16 << 20

func (l *freeList[T, P]) get() P {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return new(T)
	}
	v := l.free[n-1]
	l.free = l.free[:n-1]
	return v
}

func (l *freeList[T, P]) put(v P) {
	if v.retained() > maxRetained {
		return
	}
	l.mu.Lock()
	l.free = append(l.free, v)
	l.mu.Unlock()
}

// Save writes the model weights as a checkpoint. The architecture (Config)
// is not stored; Load must be called on a model built with the same Config.
// internal/registry pairs the weights with a manifest carrying the Config.
func (m *Model) Save(w io.Writer) error { return nn.SaveParams(w, m.params) }

// Load restores weights from a checkpoint written by an identically
// configured model — by Save, or by an older model that also held the
// dropped parameters, whose records it skips — and returns the Checksum of
// the model that wrote it (nn.LoadParams). The engine reads the loaded
// values where nn.LoadParams puts them; Load refreshes what is derived
// from them.
func (m *Model) Load(r io.Reader) (string, error) {
	sum, err := nn.LoadParams(r, m.params, m.dropped)
	m.refresh()
	return sum, err
}

// Checksum fingerprints the current weights (see nn.ChecksumParams).
func (m *Model) Checksum() string { return nn.ChecksumParams(m.params) }

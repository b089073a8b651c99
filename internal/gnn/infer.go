package gnn

import (
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"paragraph/internal/fp"
	"paragraph/internal/tensor"
)

// This file is the inference engine: the allocation-free forward pass behind
// Predict/PredictBatch, in float64. It is the one forward pass: serving
// runs it, and training runs it with its ReLU masks recorded, followed by
// the hand-derived backward over the state it retains (backward.go), on the
// same weight set (inferparams.go). The autodiff tape (Forward) is the
// reference semantics; the engine reproduces its arithmetic up to float
// reassociation — the kernels below reassociate sums (tiled matmuls,
// precomputed attention projections, fused softmax scaling) to run near the
// FLOP limit, so predictions agree with the tape to a relaxed tolerance
// (TestInferEngineMatchesTape enforces ≤ 1e-9 relative) instead of bit for
// bit.
//
// A batch is evaluated as topology families, not as independent samples.
// The grid an advise request sweeps is one graph seen many times: a
// variant's (teams, threads) configuration reaches the model through edge
// weights and a few literal feature rows, never through structure. So:
//
//   - Group (families.group): samples whose graphs have equal NumNodes,
//     Kinds, SubKinds, WScale and per-relation Src/Dst form a family. That
//     is observed in the input, never hinted by the caller; unrelated
//     samples simply form families of one.
//   - Base: a family's first member runs the full pass and keeps its
//     per-layer state (layer inputs h⁰…h^L, their self projections and, per
//     relation, the projected source rows q and source attention scores) in
//     a workspace slot.
//   - Members: every later member starts from a copy of a retained
//     sibling's state — the one with the same edge weights if there is one,
//     else the first member — and recomputes exactly the rows that can
//     differ: D₀ = feature rows that differ, W = destinations with a
//     differing in-edge weight, D_{ℓ+1} = D_ℓ ∪ W ∪ out-neighbours(D_ℓ).
//     Layer ℓ re-projects the rows of D_ℓ and re-aggregates the rows of
//     D_{ℓ+1}. The first member seen with a new weight vector keeps its
//     state as a further base, up to maxBases.
//
// There is one layer routine: the full pass is the member pass with every
// row dirty. PredictBatch(ss)[i] is bit-identical to Predict(ss[i])
// whatever else is in the batch, because every kernel on the path computes
// a row from its inputs alone in one fixed accumulation order (see
// tensor/inplace.go), each recomputed row is rebuilt from scratch in the
// full pass's relation and edge order, clean rows are copies, and pooling
// and the head run per member over its fully materialised h^L.
//
// Three precomputed structures make the hot path cheap:
//
//   - InferencePlan: per encoded Graph, derived once and cached in the graph.
//     It re-orders each relation's edge list CSR-style — grouped by
//     destination node — and additionally derives the relation's
//     unique-source list: the only rows whose W_r projection the relation
//     ever reads. Most ParaGraph relations touch a small fraction of the
//     graph, so projecting source rows only cuts the dominant N·H² matmul
//     cost to |sources|·H². It is topology only, so one plan — the first
//     member's — serves a family.
//
//   - weights (inferparams.go): the parameters and the constants derived
//     from them, built once per parameter state — the per-relation
//     attention projections p_src = W_r·aSrc and p_dst = W_r·aDst (so
//     attention scores become one H-dot per node instead of an
//     H²-projection).
//
//   - workspace: the state slots and scratch of one worker, sized from the
//     model Config and graph shape through resize and pooled on the Model
//     via sync.Pool. In steady state a forward pass performs zero heap
//     allocations (asserted by TestInferForwardZeroAllocs). Nothing
//     derived from a graph's weights outlives the call: dataset.Prepare
//     rewrites WScale after encoding.
//
// Every matmul runs the register-blocked tiled kernel (tensor.MatMulInto).

// relPlan is one relation's edges re-ordered by destination node.
type relPlan struct {
	edge       []int // per slot: the edge's index in Relation.Src/Dst/LogW
	edgeSrcIdx []int // per slot: index of its source node in srcList
	runStart   []int // len(runs)+1 offsets into edge/edgeSrcIdx
	runDst     []int // destination node of each run
	srcList    []int // unique source nodes, ascending
}

// InferencePlan is the per-graph constant structure of the fused RGAT path:
// destination-grouped edge permutations and unique-source lists for every
// relation plus the longest attention segment (which sizes the softmax
// scratch buffer). It depends only on the graph topology — not on edge
// weights, WScale or any model parameter — so one plan serves every model,
// every advisor-scaled view of the graph, and every member of a family.
type InferencePlan struct {
	rels   []relPlan
	srcOff []int // prefix sums of len(srcList): a relation's rows in a state slot's q block
	maxRun int
}

// planBox lazily caches a graph's InferencePlan. It is shared by pointer
// across shallow Graph-header copies, so the plan is computed once per
// encoded graph no matter how many advisors re-scale it.
type planBox struct {
	mu   sync.Mutex
	plan atomic.Pointer[InferencePlan]
}

// plan returns the graph's InferencePlan, building and caching it on first
// use. Graphs without a plan cache (hand-built, not from Encode) get a
// fresh plan per call — correct, just not allocation-free.
func (g *Graph) plan() *InferencePlan {
	b := g.planBox
	if b == nil {
		return buildPlan(g)
	}
	if p := b.plan.Load(); p != nil {
		return p
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if p := b.plan.Load(); p != nil {
		return p
	}
	p := buildPlan(g)
	b.plan.Store(p)
	return p
}

// buildPlan groups each relation's edges by destination with a stable
// counting sort. Stability keeps softmax sums and message scatter-adds
// accumulating in the tape ops' edge order within each destination.
func buildPlan(g *Graph) *InferencePlan {
	p := &InferencePlan{rels: make([]relPlan, len(g.Rels)), srcOff: make([]int, len(g.Rels)+1)}
	for r := range g.Rels {
		rel := &g.Rels[r]
		e := len(rel.Src)
		if e == 0 {
			p.srcOff[r+1] = p.srcOff[r]
			continue
		}
		rp := &p.rels[r]
		start := make([]int, g.NumNodes+1)
		for _, d := range rel.Dst {
			start[d+1]++
		}
		runs := 0
		for d := 0; d < g.NumNodes; d++ {
			if start[d+1] > 0 {
				runs++
				if start[d+1] > p.maxRun {
					p.maxRun = start[d+1]
				}
			}
			start[d+1] += start[d]
		}
		// Unique sources, ascending, and each node's slot in that list: the
		// relation's q-projection runs over srcList rows only, and each edge
		// addresses its source's projected row through edgeSrcIdx.
		seen := make([]bool, g.NumNodes)
		for _, s := range rel.Src {
			seen[s] = true
		}
		idxOf := make([]int, g.NumNodes)
		for i, ok := range seen {
			if ok {
				idxOf[i] = len(rp.srcList)
				rp.srcList = append(rp.srcList, i)
			}
		}
		p.srcOff[r+1] = p.srcOff[r] + len(rp.srcList)
		rp.edgeSrcIdx = make([]int, e)
		rp.edge = make([]int, e)
		next := make([]int, g.NumNodes)
		copy(next, start[:g.NumNodes])
		for i, d := range rel.Dst {
			slot := next[d]
			next[d]++
			rp.edgeSrcIdx[slot] = idxOf[rel.Src[i]]
			rp.edge[slot] = i
		}
		rp.runStart = make([]int, 0, runs+1)
		rp.runDst = make([]int, 0, runs)
		for d := 0; d < g.NumNodes; d++ {
			if start[d+1] > start[d] {
				rp.runStart = append(rp.runStart, start[d])
				rp.runDst = append(rp.runDst, d)
			}
		}
		rp.runStart = append(rp.runStart, e)
	}
	return p
}

// sameSlice reports whether two slices hold equal elements, short-circuiting
// on a shared backing array (header copies of one encoded graph).
func sameSlice[T comparable](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0] || slices.Equal(a, b))
}

// sameTopology is the family rule: equal node codes, weight scale and
// per-relation edge lists. Node features and edge weights may differ.
func sameTopology(a, b *Graph) bool {
	if a == b {
		return true
	}
	if a.NumNodes != b.NumNodes || a.WScale != b.WScale || len(a.Rels) != len(b.Rels) ||
		!sameSlice(a.Kinds, b.Kinds) || !sameSlice(a.SubKinds, b.SubKinds) {
		return false
	}
	for r := range a.Rels {
		if !sameSlice(a.Rels[r].Src, b.Rels[r].Src) || !sameSlice(a.Rels[r].Dst, b.Rels[r].Dst) {
			return false
		}
	}
	return true
}

// sameWeights reports whether two graphs of one family carry equal edge
// weights, exiting at the first difference.
func sameWeights(a, b *Graph) bool {
	for r := range a.Rels {
		if !sameSlice(a.Rels[r].LogW, b.Rels[r].LogW) {
			return false
		}
	}
	return true
}

// families partitions a batch by sameTopology: family f is the chain
// heads[f], next[heads[f]], … (ending at -1), members in batch order.
type families struct {
	heads, tails, next []int
	sigs               []uint64 // per family: a cheap topology digest, scanned before any element compare
}

// resize returns s with length n, reallocating only to grow, and then to the
// next power of two: a workspace that sees graphs of varying sizes settles
// on a few capacities instead of growing a little at every larger graph.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, 1<<bits.Len(uint(n-1)))
	}
	return s[:n]
}

// reshape points m at a rows×cols matrix backed by resize.
func reshape(m *tensor.Matrix, rows, cols int) {
	m.Data = resize(m.Data, rows*cols)
	m.Rows, m.Cols = rows, cols
}

// group rebuilds the partition for samples, reusing the slices' capacity.
func (f *families) group(samples []*Sample) {
	f.heads, f.tails, f.sigs = f.heads[:0], f.tails[:0], f.sigs[:0]
	f.next = resize(f.next, len(samples))
	for i, s := range samples {
		f.next[i] = -1
		sig := uint64(s.G.NumNodes)<<32 | uint64(uint32(s.G.NumEdges()))
		fam := -1
		for k, fs := range f.sigs {
			if fs == sig && sameTopology(samples[f.heads[k]].G, s.G) {
				fam = k
				break
			}
		}
		if fam < 0 {
			f.heads, f.tails, f.sigs = append(f.heads, i), append(f.tails, i), append(f.sigs, sig)
			continue
		}
		f.next[f.tails[fam]] = i
		f.tails[fam] = i
	}
}

// maxBases bounds the member states a family keeps as bases: the first
// member plus the first members seen with a new edge-weight vector. A GPU
// grid has one weighting per thread count (three by default); weightings
// past the bound are evaluated against the first member and not kept.
const maxBases = 4

// slot is one member's retained per-layer state, laid out in one buffer so
// a sibling starts from it with a single copy: h⁰…h^L (N×H each), then per
// layer the self projection h^ℓ·W_self + b (N×H), the q block (the plan's
// source rows × H, relation by relation) and the source-score block (one
// per source row).
type slot struct {
	g   *Graph // the member buf describes; nil outside a family evaluation
	buf []float64
}

// workspace holds the state slots and every scratch buffer one worker
// needs. Buffers are sized from the family's shape through resize and
// reused across calls, so re-running a pass over a same-shaped graph
// touches no allocator at all. Workspaces are pooled per Model and used by
// one goroutine at a time.
type workspace struct {
	families

	// The current family's shape: nodes, hidden width, source rows across
	// relations, and where the per-layer blocks start in a slot's buffer
	// and how long each is.
	n, hdim, srcRows, layerOff, layerLen int
	plan                                 *InferencePlan

	slots [maxBases + 1]slot // retained bases, then the scratch member

	dirty, dirtyNext, wDirty []bool // D_ℓ, D_ℓ₊₁ and W, indexed by node
	rows, rowsNext           []int  // D_ℓ and D_ℓ₊₁ as ascending lists
	srcNodes, srcSlots       []int  // a relation's dirty sources: node ids and srcList indices
	gather, proj             tensor.Matrix
	logits                   []float64 // longest-run softmax scratch

	pooled  tensor.Matrix // 1×H mean-pooled graph embedding
	emb     tensor.Matrix // 1×H fc1 output
	emb2    tensor.Matrix // 1×H fc2 output
	featIn  tensor.Matrix // 1×2 (teams, threads) input row
	featEmb tensor.Matrix // 1×F feature-branch embedding
	concat  tensor.Matrix // 1×(H+F) head input
	outBuf  tensor.Matrix // 1×1 prediction

	// pass is nil on serving passes. A training pass (backward.go) records
	// in it where each ReLU's pre-activation is ≥ 0 — where the tape's ReLU
	// passes its gradient, v == 0 included, which max(v, 0) no longer
	// tells: every layer's N×H block, then the head's emb, emb2 and featEmb.
	pass []bool
}

// acquireWS takes a pooled workspace.
func acquireWS(m *Model) *workspace {
	if ws, ok := m.wsPool.Get().(*workspace); ok {
		return ws
	}
	return new(workspace)
}

// h returns layer l's input matrix (l == layers: the final embedding) in st.
func (ws *workspace) h(st *slot, l int) tensor.Matrix {
	sz := ws.n * ws.hdim
	return tensor.Matrix{Rows: ws.n, Cols: ws.hdim, Data: st.buf[l*sz : (l+1)*sz]}
}

// self returns layer l's self projection (bias included) of every node.
func (ws *workspace) self(st *slot, l int) tensor.Matrix {
	off := ws.layerOff + l*ws.layerLen
	return tensor.Matrix{Rows: ws.n, Cols: ws.hdim, Data: st.buf[off : off+ws.n*ws.hdim]}
}

// q returns relation r's projected source rows and source scores at layer l.
func (ws *workspace) q(st *slot, l, r int) (tensor.Matrix, []float64) {
	off := ws.layerOff + l*ws.layerLen + ws.n*ws.hdim
	lo, hi := ws.plan.srcOff[r], ws.plan.srcOff[r+1]
	scores := off + ws.srcRows*ws.hdim
	return tensor.Matrix{Rows: hi - lo, Cols: ws.hdim, Data: st.buf[off+lo*ws.hdim : off+hi*ws.hdim]},
		st.buf[scores+lo : scores+hi]
}

// predictInto evaluates samples family by family across a bounded worker
// pool, writing predictions into out (same length as samples). workers <= 0
// defaults to GOMAXPROCS; the bound is clamped to the family count, and a
// single-worker run stays on the calling goroutine.
func (m *Model) predictInto(out []float64, samples []*Sample, workers int) {
	if len(samples) == 0 {
		return
	}
	predictFamilies(m, m.inferParams(), out, samples, workers)
}

// predictOne is Predict's engine entry: a family of one on the calling
// goroutine. It is separate from predictFamilies because that function's
// worker closures make its arguments escape, and a lone prediction must not
// allocate.
func predictOne(m *Model, w *weights, s *Sample) float64 {
	ws := acquireWS(m)
	defer m.wsPool.Put(ws)
	var out [1]float64
	w.family(ws, out[:], []*Sample{s}, 0, []int{-1})
	return out[0]
}

// predictFamilies groups samples on the calling goroutine's workspace and
// evaluates the families, serially or across workers (see predictInto).
func predictFamilies(m *Model, w *weights, out []float64, samples []*Sample, workers int) {
	ws := acquireWS(m)
	defer m.wsPool.Put(ws)
	ws.group(samples)
	heads, next := ws.heads, ws.next
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(heads) {
		workers = len(heads)
	}
	if workers <= 1 {
		for _, first := range heads {
			w.family(ws, out, samples, first, next)
		}
		return
	}
	// Families are handed out in batch order; the calling goroutine is one
	// of the workers. A panic on any worker is held until every worker has
	// stopped and then re-raised on the calling goroutine, where its
	// caller's recover can answer for it; unrecovered on a worker it would
	// end the process.
	var cursor atomic.Int64
	panics := make([]any, workers)
	run := func(i int, ws *workspace) {
		defer func() { panics[i] = recover() }()
		for f := int(cursor.Add(1)) - 1; f < len(heads); f = int(cursor.Add(1)) - 1 {
			w.family(ws, out, samples, heads[f], next)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for i := 1; i < workers; i++ {
		go func() {
			defer wg.Done()
			ws := acquireWS(m)
			defer m.wsPool.Put(ws)
			run(i, ws)
		}()
	}
	run(0, ws)
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// shape sizes ws for graphs of g's topology under w and returns the length
// of one state slot.
func (ws *workspace) shape(w *weights, g *Graph) int {
	p := g.plan()
	ws.plan, ws.n, ws.hdim, ws.srcRows = p, g.NumNodes, w.hidden, p.srcOff[len(p.srcOff)-1]
	ws.layerOff = (len(w.layers) + 1) * ws.n * ws.hdim
	ws.layerLen = ws.n*ws.hdim + ws.srcRows*(ws.hdim+1)
	ws.dirty, ws.dirtyNext, ws.wDirty = resize(ws.dirty, ws.n), resize(ws.dirtyNext, ws.n), resize(ws.wDirty, ws.n)
	ws.logits = resize(ws.logits, p.maxRun)
	return ws.layerOff + len(w.layers)*ws.layerLen
}

// family evaluates the chain of same-topology samples starting at first
// (see families), choosing each member's base and state slot.
func (w *weights) family(ws *workspace, out []float64, samples []*Sample, first int, next []int) {
	size := ws.shape(w, samples[first].G)
	bases := 0
	for i := first; i >= 0; i = next[i] {
		s := samples[i]
		st, base := &ws.slots[0], (*slot)(nil)
		if bases == 0 {
			bases = 1
		} else {
			st = &ws.slots[maxBases]
			clear(ws.wDirty)
			for b := range ws.slots[:bases] {
				if w.noWeights || sameWeights(ws.slots[b].g, s.G) {
					base = &ws.slots[b]
					break
				}
			}
			if base == nil {
				// A new weighting: evaluated against the first member, and
				// kept as a base for later members while there is room.
				base = &ws.slots[0]
				for r := range s.G.Rels {
					rel, bw := &s.G.Rels[r], base.g.Rels[r].LogW
					for e, lw := range rel.LogW {
						if lw != bw[e] {
							ws.wDirty[rel.Dst[e]] = true
						}
					}
				}
				if bases < maxBases {
					st = &ws.slots[bases]
					bases++
				}
			}
		}
		st.buf = resize(st.buf, size)
		out[i] = w.forward(ws, st, base, s)
	}
	// Nothing of the call's graphs may outlive it in the pooled workspace.
	ws.plan = nil
	for b := range ws.slots {
		ws.slots[b].g = nil
	}
}

// forward computes one member into st and returns its prediction: fused
// node-feature assembly, the fused RGAT convolutions, mean pooling, and the
// two-branch head. It mirrors Model.Forward (the tape path) up to float
// reassociation. With a nil base every row is computed — the full pass;
// otherwise st starts as a copy of base's state and the rows that can
// differ from it (ws.wDirty is set by the caller) are recomputed.
func (w *weights) forward(ws *workspace, st, base *slot, s *Sample) float64 {
	g := s.G
	st.g = g
	dirty := ws.dirty
	if base == nil {
		for i := range dirty {
			dirty[i] = true
		}
	} else {
		copy(st.buf, base.buf)
		bf := base.g.Feats.Data
		for i, f := range g.Feats.Data {
			dirty[i] = f != bf[i]
		}
	}

	rows := ws.rows[:0]
	for i, d := range dirty {
		if d {
			rows = append(rows, i)
		}
	}
	ws.rows = rows

	// Node features: kind embedding + sub-kind embedding + scalar feature
	// projected through featVec, fused into one pass over the dirty rows.
	h0 := ws.h(st, 0)
	fv := w.featVec
	for _, i := range rows {
		krow := w.kindTab.Row(g.Kinds[i])
		srow := w.subTab.Row(g.SubKinds[i])
		hrow := h0.Row(i)
		f := g.Feats.Data[i]
		if f != 0 {
			for j := range hrow {
				hrow[j] = krow[j] + srow[j] + float64(f*fv[j])
			}
		} else {
			for j := range hrow {
				hrow[j] = krow[j] + srow[j]
			}
		}
	}

	for li := range w.layers {
		w.layer(ws, st, li)
	}

	final := ws.h(st, len(w.layers))
	head := len(w.layers) * ws.n * ws.hdim // the head's block of ws.pass
	tensor.MeanRowsInto(&final, &ws.pooled)
	tensor.MatMulInto(&ws.pooled, w.fc1W, &ws.emb)
	tensor.AddBiasInto(&ws.emb, w.fc1B, &ws.emb)
	ws.relu(&ws.emb, head)
	tensor.MatMulInto(&ws.emb, w.fc2W, &ws.emb2)
	tensor.AddBiasInto(&ws.emb2, w.fc2B, &ws.emb2)
	ws.relu(&ws.emb2, head+ws.hdim)

	reshape(&ws.featIn, 1, 2)
	ws.featIn.Data[0], ws.featIn.Data[1] = s.Feats[0], s.Feats[1]
	tensor.MatMulInto(&ws.featIn, w.featW, &ws.featEmb)
	tensor.AddBiasInto(&ws.featEmb, w.featB, &ws.featEmb)
	ws.relu(&ws.featEmb, head+2*ws.hdim)

	hc, fc := ws.emb2.Cols, ws.featEmb.Cols
	reshape(&ws.concat, 1, hc+fc)
	copy(ws.concat.Data[:hc], ws.emb2.Data)
	copy(ws.concat.Data[hc:], ws.featEmb.Data)
	tensor.MatMulInto(&ws.concat, w.outW, &ws.outBuf)
	tensor.AddBiasInto(&ws.outBuf, w.outB, &ws.outBuf)
	return ws.outBuf.Data[0]
}

// relu is the head's ReLU, LeakyReLUInto at slope 0. A training pass first
// records the pre-activation's signs in ws.pass from off.
func (ws *workspace) relu(m *tensor.Matrix, off int) {
	if ws.pass != nil {
		for j, v := range m.Data {
			ws.pass[off+j] = v >= 0
		}
	}
	tensor.LeakyReLUInto(m, 0, m)
}

// project computes dst = src[rows]×b, one output row per listed row. rows is
// ascending, so a list as long as src is every row and src is multiplied
// where it lies instead of through a gathered copy.
func (ws *workspace) project(src *tensor.Matrix, rows []int, b, dst *tensor.Matrix) {
	a := src
	if len(rows) != src.Rows {
		a = &ws.gather
		reshape(a, len(rows), src.Cols)
		for k, i := range rows {
			copy(a.Row(k), src.Row(i))
		}
	}
	tensor.MatMulInto(a, b, dst)
}

// layer is the fused engine counterpart of rgatLayer.apply, computing the
// rows of h^{li+1} that can differ from the base (ws.dirty and ws.rows hold
// D_li on entry and D_li+1 on return; every row, on a full pass). The rows
// of D_li — those whose input changed — are re-projected: the self
// projection, and per relation the dirty unique source rows through W_r
// with one tiled matmul, their attention scores read off the
// precomputed projections p_src/p_dst — one H-dot per node instead of
// re-projecting through W_r. The rows of D_li+1 are then rebuilt from their
// self projection: LeakyReLU, segment softmax, static-weight scaling and
// message aggregation run as one loop nest over the plan's
// destination-grouped runs, accumulating straight into the output row;
// then ReLU.
func (w *weights) layer(ws *workspace, st *slot, li int) {
	l := &w.layers[li]
	g, p := st.g, ws.plan
	in, out := ws.h(st, li), ws.h(st, li+1)
	rels := g.Rels[:min(len(g.Rels), len(l.w))]

	// D_li+1. A full pass (every input row changed) has nothing to
	// propagate and, below, no source lists to build.
	changed := ws.rows
	all := len(changed) == ws.n
	dirty, next := ws.dirty, ws.dirtyNext
	for i, d := range dirty {
		next[i] = d || ws.wDirty[i]
	}
	for r := 0; r < len(rels) && !all; r++ {
		rel := &rels[r]
		for e, s := range rel.Src {
			if dirty[s] {
				next[rel.Dst[e]] = true
			}
		}
	}
	rows := ws.rowsNext[:0]
	for d, is := range next {
		if is {
			rows = append(rows, d)
		}
	}
	ws.dirty, ws.dirtyNext = next, dirty
	ws.rows, ws.rowsNext = rows, changed

	// Self projection plus bias of the changed rows (with every row changed
	// it lands in place); each output row to rebuild restarts from its own.
	self := ws.self(st, li)
	if len(changed) > 0 {
		dst := &ws.proj
		if all {
			dst = &self
		}
		ws.project(&in, changed, l.self, dst)
		bias := l.bias
		for k, d := range changed {
			srow, prow := self.Row(d)[:len(bias)], dst.Row(k)[:len(bias)]
			for j, b := range bias {
				srow[j] = prow[j] + b
			}
		}
	}
	for _, d := range rows {
		copy(out.Row(d), self.Row(d))
	}

	wscale := g.weightScale()
	for r := range rels {
		rp := &p.rels[r]
		if len(rp.edge) == 0 {
			continue
		}
		// Project the relation's dirty unique source rows through W_r:
		// q[si] = h[srcList[si]]×W_r. Only these rows are ever read as
		// messages, so the projection cost scales with the relation's
		// source set, not the graph. Attention scores come off the
		// precomputed projections: one dot with p_src per source row;
		// destination scores are one dot with p_dst per run, computed
		// inline (each destination owns exactly one run).
		q, score := ws.q(st, li, r)
		nodes, slots := rp.srcList, ws.srcSlots[:0] // the dirty sources and, when only some are, their rows in q
		if !all {
			nodes = ws.srcNodes[:0]
			for si, node := range rp.srcList {
				if dirty[node] {
					nodes, slots = append(nodes, node), append(slots, si)
				}
			}
			ws.srcNodes, ws.srcSlots = nodes, slots
		}
		if len(nodes) > 0 {
			some := len(nodes) < q.Rows
			dst := &q
			if some {
				dst = &ws.proj
			}
			ws.project(&in, nodes, l.w[r], dst)
			pSrc := l.pSrc[r]
			for k, node := range nodes {
				si := k
				if some {
					si = slots[k]
					copy(q.Row(si), dst.Row(k))
				}
				score[si] = tensor.Dot(in.Row(node), pSrc)
			}
		}
		pDst, c := l.pDst[r], l.wCoef[r]
		logW := g.Rels[r].LogW
		for t, d := range rp.runDst {
			if !next[d] {
				continue
			}
			lo, hi := rp.runStart[t], rp.runStart[t+1]
			ds := tensor.Dot(in.Row(d), pDst)
			run := ws.logits[:hi-lo]
			mx := math.Inf(-1)
			for i := lo; i < hi; i++ {
				v := score[rp.edgeSrcIdx[i]] + ds
				if v < 0 {
					v = l.alpha * v
				}
				run[i-lo] = v
				if v > mx {
					mx = v
				}
			}
			var sum float64
			for i, v := range run {
				e := fp.Exp(v - mx)
				run[i] = e
				sum += e
			}
			// Segments whose sum underflows to zero stay unnormalized,
			// exactly as the tape's SegmentSoftmax leaves them.
			inv := 1.0
			if sum > 0 {
				inv = 1 / sum
			}
			drow := out.Row(d)
			for i := lo; i < hi; i++ {
				// Static edge weights scale the message through the learned
				// per-relation coefficient: (α·q)·(1 + c_r·w̃), folded into
				// one per-edge factor.
				f := run[i-lo] * inv
				if !w.noWeights {
					if wt := logW[rp.edge[i]] / wscale; wt != 0 {
						f *= float64(wt*c) + 1
					}
				}
				for j, qv := range q.Row(rp.edgeSrcIdx[i]) {
					drow[j] += float64(qv * f)
				}
			}
		}
	}

	if ws.pass != nil {
		pass := ws.pass[li*ws.n*ws.hdim:]
		for _, d := range rows {
			for j, v := range out.Row(d) {
				pass[d*ws.hdim+j] = v >= 0
			}
		}
	}
	// h = ReLU(out) over the rows written, branchless: the sign pattern is
	// effectively random, so a compare-and-branch would mispredict on half
	// the elements.
	for _, d := range rows {
		row := out.Row(d)
		for j, v := range row {
			row[j] = max(v, 0)
		}
	}
}

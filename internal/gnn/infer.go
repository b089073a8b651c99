package gnn

import (
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"paragraph/internal/fp"
	"paragraph/internal/nn"
	"paragraph/internal/tensor"
)

// This file is the inference engine: the allocation-free forward pass behind
// Predict/PredictBatch, in float64. It is the one forward pass: serving
// runs it, and training runs it with its ReLU masks recorded, followed by
// the hand-derived backward over the state it retains (backward.go), on the
// model's own parameters. The autodiff tape (Forward) is the reference
// semantics; the engine reproduces its arithmetic up to float reassociation
// — the kernels below reassociate sums (tiled matmuls, precomputed
// attention projections, fused softmax scaling) to run near the FLOP limit,
// so predictions agree with the tape to a relaxed tolerance
// (TestInferEngineMatchesTape enforces ≤ 1e-9 relative) instead of bit for
// bit.
//
// A batch is evaluated as topology families, not as independent samples.
// The grid an advise request sweeps is one graph seen many times: a
// variant's (teams, threads) configuration reaches the model through edge
// weights and a few literal feature rows, never through structure. So:
//
//   - Group (families.group): samples whose graphs have equal WScale and
//     share a Topology — or, built apart, equal NumNodes, Kinds, SubKinds
//     and per-relation Src/Dst — form a family. That is observed in the
//     input, never hinted by the caller; unrelated samples simply form
//     families of one.
//   - Base: a family's first member runs the full pass and keeps its
//     per-layer state (layer inputs h⁰…h^L, their self projections and, per
//     relation, the projected source rows q and source attention scores) in
//     a workspace slot.
//   - Members: every later member is evaluated from a retained sibling's
//     state — the one with the same edge weights if there is one, else the
//     first member — and recomputes exactly the rows that can differ:
//     D₀ = feature rows that differ, W = destinations with a differing
//     in-edge weight, D_{ℓ+1} = D_ℓ ∪ W ∪ out-neighbours(D_ℓ). Layer ℓ
//     re-projects the rows of D_ℓ and re-aggregates the rows of D_{ℓ+1}.
//     The first member seen with a new weight vector keeps its state as a
//     further base, up to maxBases; it starts from a full copy of the first
//     member's slot. Every other member runs in place in its base's slot:
//     before the pass overwrites a span of it (h, self, q rows, a score
//     block) it saves the span's old contents to the workspace's undo log,
//     and after the prediction the log is restored in reverse order.
//
// There is one layer routine: the full pass is the member pass with every
// row dirty. PredictBatch(ss)[i] is bit-identical to Predict(ss[i])
// whatever else is in the batch, because every kernel on the path computes
// a row from its inputs alone in one fixed accumulation order (see
// tensor/inplace.go), each recomputed row is rebuilt from scratch in the
// full pass's relation and edge order, clean rows are the base's, and
// pooling and the head run per member over its fully materialised h^L.
//
// Attention runs only on Ref, the one relation whose segments can hold two
// edges (see ref in model.go), and there only where a segment does: in a
// segment of one edge α is exactly fp.Exp(0)·(1/1) = 1 whatever the logits.
// Every other message goes straight through with α = 1 — on Child through
// the factor 1 + c·w̃ — and no other relation computes attention scores.
//
// Three precomputed structures make the hot path cheap:
//
//   - InferencePlan: per Topology, derived once and cached in it.
//     It re-orders each relation's edge list CSR-style — grouped by
//     destination node — and additionally derives the relation's
//     unique-source list: the only rows whose W_r projection the relation
//     ever reads. Most ParaGraph relations touch a small fraction of the
//     graph, so projecting source rows only cuts the dominant N·H² matmul
//     cost to |sources|·H². It is topology only, so one plan — the first
//     member's — serves a family.
//
//   - rgatLayer's derived values (model.go): recomputed in place from the
//     parameters when they change — Ref's attention projections
//     p_src = W_Ref·aSrc and p_dst = W_Ref·aDst (so attention scores
//     become one H-dot per node instead of an H²-projection).
//
//   - workspace: the state slots, undo log and scratch of one call, sized
//     from the model Config and graph shape and kept on the Model's free
//     list unless it outgrew maxRetained. In steady state a forward pass
//     performs zero heap allocations (asserted by TestInferForwardZeroAllocs). Nothing
//     derived from a graph's weights outlives the call: dataset.Prepare
//     sets WScale after encoding.
//
// Every matmul runs tensor's one register-blocked tiled kernel: the head's
// dense layers through nn.Linear.Row, and each layer's projections through
// MatMulRowsInto, which reads the listed rows of h and writes the listed
// rows of the slot where they lie, so no row is gathered into or scattered
// out of scratch.

// relPlan is one relation's edges re-ordered by destination node.
type relPlan struct {
	edge       []int // per slot: the edge's index in Relation.Src/Dst (and, on Child, Graph.LogW)
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

// planBox lazily caches a Topology's InferencePlan, so the plan is computed
// once per topology however many graphs point at it.
type planBox struct {
	mu   sync.Mutex
	plan atomic.Pointer[InferencePlan]
}

// plan returns the topology's InferencePlan, building and caching it on
// first use. A Topology without a plan cache (built by hand, not by Encode
// or NewTopology) gets a fresh plan per call — correct, just not
// allocation-free.
func (t *Topology) plan() *InferencePlan {
	b := t.planBox
	if b == nil {
		return buildPlan(t)
	}
	if p := b.plan.Load(); p != nil {
		return p
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if p := b.plan.Load(); p != nil {
		return p
	}
	p := buildPlan(t)
	b.plan.Store(p)
	return p
}

// buildPlan groups each relation's edges by destination with a stable
// counting sort. Stability keeps softmax sums and message scatter-adds
// accumulating in the tape ops' edge order within each destination.
func buildPlan(t *Topology) *InferencePlan {
	p := &InferencePlan{rels: make([]relPlan, len(t.Rels)), srcOff: make([]int, len(t.Rels)+1)}
	for r := range t.Rels {
		rel := &t.Rels[r]
		e := len(rel.Src)
		if e == 0 {
			p.srcOff[r+1] = p.srcOff[r]
			continue
		}
		rp := &p.rels[r]
		start := make([]int, t.NumNodes+1)
		for _, d := range rel.Dst {
			start[d+1]++
		}
		runs := 0
		for d := 0; d < t.NumNodes; d++ {
			if start[d+1] > 0 {
				runs++
				p.maxRun = max(p.maxRun, start[d+1])
			}
			start[d+1] += start[d]
		}
		// Unique sources, ascending, and each node's slot in that list: the
		// relation's q-projection runs over srcList rows only, and each edge
		// addresses its source's projected row through edgeSrcIdx.
		seen := make([]bool, t.NumNodes)
		for _, s := range rel.Src {
			seen[s] = true
		}
		idxOf := make([]int, t.NumNodes)
		for i, ok := range seen {
			if ok {
				idxOf[i] = len(rp.srcList)
				rp.srcList = append(rp.srcList, i)
			}
		}
		p.srcOff[r+1] = p.srcOff[r] + len(rp.srcList)
		rp.edgeSrcIdx = make([]int, e)
		rp.edge = make([]int, e)
		next := make([]int, t.NumNodes)
		copy(next, start[:t.NumNodes])
		for i, d := range rel.Dst {
			slot := next[d]
			next[d]++
			rp.edgeSrcIdx[slot] = idxOf[rel.Src[i]]
			rp.edge[slot] = i
		}
		rp.runStart = make([]int, 0, runs+1)
		rp.runDst = make([]int, 0, runs)
		for d := 0; d < t.NumNodes; d++ {
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
// on a shared backing array.
func sameSlice[T comparable](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0] || slices.Equal(a, b))
}

// sameTopology is the family rule: equal weight scale, and one Topology or
// equal node codes and per-relation edge lists. Node features and edge
// weights may differ.
func sameTopology(a, b *Graph) bool {
	if a.WScale != b.WScale {
		return false
	}
	s, t := a.Topology, b.Topology
	if s == t {
		return true
	}
	if s.NumNodes != t.NumNodes || len(s.Rels) != len(t.Rels) ||
		!sameSlice(s.Kinds, t.Kinds) || !sameSlice(s.SubKinds, t.SubKinds) {
		return false
	}
	for r := range s.Rels {
		if !sameSlice(s.Rels[r].Src, t.Rels[r].Src) || !sameSlice(s.Rels[r].Dst, t.Rels[r].Dst) {
			return false
		}
	}
	return true
}

// sameWeights reports whether two graphs of one family carry equal Child
// weights.
func sameWeights(a, b *Graph) bool { return sameSlice(a.LogW, b.LogW) }

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
// past the bound are evaluated in place against the first member and not
// kept.
const maxBases = 4

// slot is one member's retained per-layer state, laid out in one buffer so
// a new base starts from it with a single copy: h⁰…h^L (N×H each), then per
// layer the self projection h^ℓ·W_self + b (N×H), the q block (the plan's
// source rows × H, relation by relation) and the source-score block (one
// per source row; written only for Ref).
type slot struct {
	g   *Graph // the member buf describes; nil outside a family evaluation
	buf []float64
}

// workspace holds the state slots and every scratch buffer one call
// needs. Buffers are sized from the family's shape through resize and
// reused across calls, so re-running a pass over a same-shaped graph
// touches no allocator at all. A Model keeps its workspaces on a free list
// (Model.ws), and each is used by one goroutine at a time.
type workspace struct {
	families

	// The current family's shape: nodes, hidden width, source rows across
	// relations, and where the per-layer blocks start in a slot's buffer
	// and how long each is.
	n, hdim, srcRows, layerOff, layerLen int
	plan                                 *InferencePlan

	slots [maxBases]slot // retained bases

	// The undo log of a member evaluated in its base's slot (inPlace): the
	// spans of the slot it overwrote, in order, and their old contents back
	// to back.
	inPlace bool
	spans   [][]float64
	old     []float64

	dirty, dirtyNext, wDirty []bool    // D_ℓ, D_ℓ₊₁ and W, indexed by node
	rows, rowsNext           []int     // D_ℓ and D_ℓ₊₁ as ascending lists
	srcNodes, srcSlots       []int     // a relation's dirty sources: node ids and srcList indices
	logits                   []float64 // longest-run softmax scratch
	wt                       []float64 // Child's w̃ = LogW/WScale per edge, in plan order

	// The head: the mean-pooled graph embedding (1×H), each dense layer's
	// pre-activation — fc1's z1 and fc2's z2 (H), featFC's zFeat (F) —
	// which the backward's ReLU masks read, fc1's output emb, and out's
	// input concat (H+F: fc2's output, then featFC's).
	pooled        tensor.Matrix
	z1, z2, zFeat []float64
	emb, concat   []float64
	featIn        [2]float64 // the (teams, threads) row
	pred          [1]float64

	// pass is nil on serving passes. A training pass (backward.go) records
	// in it where each layer's pre-activation is ≥ 0 — where the tape's
	// ReLU passes its gradient, v == 0 included, which max(v, 0) no longer
	// tells — one N×H block per layer.
	pass []bool
}

// retained is the bytes ws's state slots and undo log keep, the buffers
// maxRetained bounds. They grow with a graph's nodes and hold most of what
// a workspace keeps: every matmul reads and writes them in place, so no
// per-node gather or projection buffer sits beside them uncounted. What
// else grows with nodes — the dirty sets, row lists and per-edge scratch,
// and a training workspace's dL/dh, dL/dh^ℓ, dL/dq and ReLU masks — holds
// less than one slot.
func (ws *workspace) retained() (n int) {
	for _, st := range ws.slots {
		n += 8 * cap(st.buf)
	}
	return n + 8*cap(ws.old) + 24*cap(ws.spans)
}

// save records span, a part of the slot the current member pass runs in,
// before the pass overwrites it; outside an in-place pass it does nothing.
func (ws *workspace) save(span []float64) {
	if ws.inPlace {
		ws.spans = append(ws.spans, span)
		ws.old = append(ws.old, span...)
	}
}

// restore writes the saved spans back, the last saved first, and empties
// the log.
func (ws *workspace) restore() {
	end := len(ws.old)
	for k := len(ws.spans) - 1; k >= 0; k-- {
		span := ws.spans[k]
		end -= len(span)
		copy(span, ws.old[end:])
	}
	clear(ws.spans) // keep no slot buffer reachable through a stale span
	ws.spans, ws.old = ws.spans[:0], ws.old[:0]
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

// predict evaluates samples into out (same length) on the calling
// goroutine: it groups them into families and evaluates each family in turn
// on one workspace from the model's free list. Predict, PredictBatch and
// each of PredictAll's chunks run it.
func (m *Model) predict(out []float64, samples []*Sample) {
	if len(samples) == 0 {
		return
	}
	ws := m.ws.get()
	ws.group(samples)
	for _, first := range ws.heads {
		m.family(ws, out, samples, first, ws.next)
	}
	m.ws.put(ws)
}

// shape sizes ws for graphs of g's topology under m and returns the length
// of one state slot.
func (ws *workspace) shape(m *Model, g *Graph) int {
	p := g.plan()
	hd, fh, layers := m.cfg.Hidden, m.cfg.FeatHidden, len(m.layers)
	ws.plan, ws.n, ws.hdim, ws.srcRows = p, g.NumNodes, hd, p.srcOff[len(p.srcOff)-1]
	ws.layerOff = (layers + 1) * ws.n * hd
	ws.layerLen = ws.n*hd + ws.srcRows*(hd+1)
	ws.dirty, ws.dirtyNext, ws.wDirty = resize(ws.dirty, ws.n), resize(ws.dirtyNext, ws.n), resize(ws.wDirty, ws.n)
	ws.logits = resize(ws.logits, p.maxRun)
	ws.z1, ws.z2, ws.zFeat = resize(ws.z1, hd), resize(ws.z2, hd), resize(ws.zFeat, fh)
	ws.emb, ws.concat = resize(ws.emb, hd), resize(ws.concat, hd+fh)
	return ws.layerOff + layers*ws.layerLen
}

// family evaluates the chain of same-topology samples starting at first
// (see families), choosing each member's base and state slot. A member
// that is not kept as a base runs in its base's slot, which the undo log
// gives back unchanged, graph included, once the prediction is made.
func (m *Model) family(ws *workspace, out []float64, samples []*Sample, first int, next []int) {
	size := ws.shape(m, samples[first].G)
	bases := 0
	for i := first; i >= 0; i = next[i] {
		s := samples[i]
		st, base := &ws.slots[0], (*slot)(nil)
		if bases == 0 {
			bases = 1
			st.buf = resize(st.buf, size)
		} else {
			clear(ws.wDirty)
			for b := range ws.slots[:bases] {
				if sameWeights(ws.slots[b].g, s.G) {
					base, st = &ws.slots[b], &ws.slots[b]
					break
				}
			}
			if base == nil {
				// A new weighting: evaluated against the first member, and
				// kept as a base for later members while there is room.
				base = st
				dst, bw := s.G.Rels[child].Dst, base.g.LogW
				for e, lw := range s.G.LogW {
					if lw != bw[e] {
						ws.wDirty[dst[e]] = true
					}
				}
				if bases < maxBases {
					st = &ws.slots[bases]
					bases++
					st.buf = resize(st.buf, size)
					copy(st.buf, base.buf)
				}
			}
		}
		ws.inPlace = st == base
		g := st.g
		out[i] = m.forward(ws, st, base, s)
		if ws.inPlace {
			ws.restore()
			st.g = g
		}
	}
	// Nothing of the call's graphs may outlive it in the kept workspace.
	ws.plan = nil
	for b := range ws.slots {
		ws.slots[b].g = nil
	}
}

// forward computes one member into st and returns its prediction: fused
// node-feature assembly, the fused RGAT convolutions, mean pooling, and the
// two-branch head. It mirrors Model.Forward (the tape path) up to float
// reassociation. With a nil base every row is computed — the full pass;
// otherwise st holds base's state (a copy of it, or base itself on an
// in-place pass) and the rows that can differ from it (ws.wDirty is set by
// the caller) are recomputed.
func (m *Model) forward(ws *workspace, st, base *slot, s *Sample) float64 {
	g := s.G
	dirty := ws.dirty
	if base == nil {
		for i := range dirty {
			dirty[i] = true
		}
	} else {
		bf := base.g.Feats
		for i, f := range g.Feats {
			dirty[i] = f != bf[i]
		}
	}
	st.g = g

	// w̃ depends on the graph alone: every layer, and the backward, reads
	// it from here.
	if g.LogW != nil {
		logW, wscale, edge := g.LogW, g.weightScale(), ws.plan.rels[child].edge
		ws.wt = resize(ws.wt, len(edge))
		for i, e := range edge {
			ws.wt[i] = logW[e] / wscale
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
	kind, sub, fv := m.kindEmb.Table.Value, m.subEmb.Table.Value, m.featVec.Value.Data
	for _, i := range rows {
		krow := kind.Row(g.Kinds[i])
		srow := sub.Row(g.SubKinds[i])
		hrow := h0.Row(i)
		ws.save(hrow)
		f := g.Feats[i]
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

	for li := range m.layers {
		m.layer(ws, st, li)
	}

	// The head: fc1 and fc2 on the pooled embedding, featFC on the
	// (teams, threads) row, each through a ReLU, and out on the two
	// outputs side by side.
	final := ws.h(st, len(m.layers))
	hd := ws.hdim
	tensor.MeanRowsInto(&final, &ws.pooled)
	m.fc1.Row(ws.pooled.Data, ws.z1)
	nn.ReLU(ws.z1, ws.emb)
	m.fc2.Row(ws.emb, ws.z2)
	nn.ReLU(ws.z2, ws.concat[:hd])
	ws.featIn = s.Feats
	m.featFC.Row(ws.featIn[:], ws.zFeat)
	nn.ReLU(ws.zFeat, ws.concat[hd:])
	m.out.Row(ws.concat, ws.pred[:])
	return ws.pred[0]
}

// softmax sets run to the unnormalised attention of one destination's
// segment — the exp of each edge's LeakyReLU'd logit score[src[i]] + ds
// less the segment's largest — and returns the factor that normalises it.
// The backward recomputes α through it, so both passes hold the same bits.
func (l *rgatLayer) softmax(run, score []float64, src []int, ds float64) float64 {
	mx := math.Inf(-1)
	for i, si := range src {
		v := score[si] + ds
		if v < 0 {
			v = l.alpha * v
		}
		run[i] = v
		if v > mx {
			mx = v
		}
	}
	var sum float64
	for i, v := range run {
		run[i] = fp.Exp(v - mx)
		sum += run[i]
	}
	// Segments whose sum underflows to zero stay unnormalised, exactly as
	// the tape's SegmentSoftmax leaves them.
	if sum > 0 {
		return 1 / sum
	}
	return 1
}

// layer is the fused engine counterpart of rgatLayer.apply, computing the
// rows of h^{li+1} that can differ from the base (ws.dirty and ws.rows hold
// D_li on entry and D_li+1 on return; every row, on a full pass). The rows
// of D_li — those whose input changed — are re-projected: the self
// projection, and per relation the dirty unique source rows through W_r
// with one tiled matmul. Ref also scores them off the precomputed
// projection p_src — one H-dot per node instead of re-projecting through
// W_Ref. The rows of D_li+1 are then rebuilt from their self projection:
// Ref's LeakyReLU and segment softmax, Child's static-weight scaling and
// message aggregation run as one loop nest over the plan's
// destination-grouped runs, accumulating straight into the output row;
// then ReLU.
//
// A one-edge Ref run has α = fp.Exp(0)·(1/1) = 1 for any finite logit, so
// it takes its message as every other relation's edges do: no destination
// score, logit, exp, sum or reciprocal. That keeps every bit of the full
// softmax for a finite model. Only a non-finite logit tells the two apart:
// it would make α NaN and gives 1. No finite model reaches one — a score
// is a dot of a finite h row with a finite projection.
func (m *Model) layer(ws *workspace, st *slot, li int) {
	l := m.layers[li]
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

	// Self projection plus bias of the changed rows, computed where they
	// lie; each output row to rebuild restarts from its own.
	self := ws.self(st, li)
	if len(changed) > 0 {
		for _, d := range changed {
			ws.save(self.Row(d))
		}
		tensor.MatMulRowsInto(&in, changed, l.self.Value, &self, changed, false)
		bias := l.bias.Value.Data
		for _, d := range changed {
			srow := self.Row(d)[:len(bias)]
			for j, b := range bias {
				srow[j] += b
			}
		}
	}
	for _, d := range rows {
		ws.save(out.Row(d))
		copy(out.Row(d), self.Row(d))
	}

	for r := range rels {
		rp := &p.rels[r]
		if len(rp.edge) == 0 {
			continue
		}
		// Project the relation's dirty unique source rows through W_r:
		// q[si] = h[srcList[si]]×W_r. Only these rows are ever read as
		// messages, so the projection cost scales with the relation's
		// source set, not the graph. Ref's attention scores come off the
		// precomputed projections: one dot with p_src per source row;
		// destination scores are one dot with p_dst per multi-edge run,
		// computed inline (each destination owns exactly one run).
		q, score := ws.q(st, li, r)
		nodes, slots := rp.srcList, []int(nil) // the dirty sources and their rows in q (nil: every row)
		if !all {
			nodes, slots = ws.srcNodes[:0], ws.srcSlots[:0]
			for si, node := range rp.srcList {
				if dirty[node] {
					nodes, slots = append(nodes, node), append(slots, si)
				}
			}
			ws.srcNodes, ws.srcSlots = nodes, slots
		}
		if len(nodes) > 0 {
			if slots == nil {
				ws.save(q.Data)
			}
			for _, si := range slots {
				ws.save(q.Row(si))
			}
			tensor.MatMulRowsInto(&in, nodes, l.w[r].Value, &q, slots, false)
			if r == ref {
				ws.save(score)
				for k, node := range nodes {
					si := k
					if slots != nil {
						si = slots[k]
					}
					score[si] = tensor.Dot(in.Row(node), l.pSrc)
				}
			}
		}
		var wt []float64 // Child's w̃ (plan order) and coefficient; nil off Child
		var c float64
		if r == child && g.LogW != nil {
			wt, c = ws.wt, l.wCoef.Value.Data[0]
		}
		for t, d := range rp.runDst {
			if !next[d] {
				continue
			}
			lo, hi := rp.runStart[t], rp.runStart[t+1]
			var alpha []float64 // nil: α = 1 on every edge of the run
			inv := 1.0
			if r == ref && hi-lo > 1 {
				alpha = ws.logits[:hi-lo]
				inv = l.softmax(alpha, score, rp.edgeSrcIdx[lo:hi], tensor.Dot(in.Row(d), l.pDst))
			}
			drow := out.Row(d)
			for i := lo; i < hi; i++ {
				// On Child, static edge weights scale the message through
				// the learned coefficient: q·(1 + c·w̃), one per-edge factor.
				f := inv
				if alpha != nil {
					f = alpha[i-lo] * inv
				}
				if wt != nil && wt[i] != 0 {
					f *= float64(wt[i]*c) + 1
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
	// h = ReLU(out) over the rows written.
	for _, d := range rows {
		nn.ReLU(out.Row(d), out.Row(d))
	}
}

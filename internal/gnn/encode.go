// Package gnn implements the paper's cost model: a Relational Graph
// Attention Network (RGAT, Busbridge et al.) over ParaGraph representations,
// with the architecture of §IV-B — three relational graph attention
// convolutions, two fully connected layers on the pooled graph embedding, a
// separate embedding of the (teams, threads) features, and a final fully
// connected regression head predicting kernel runtime.
package gnn

import (
	"fmt"

	"paragraph/internal/fp"
	"paragraph/internal/graph"
	"paragraph/internal/tensor"
)

// MaxSubKinds bounds the sub-kind vocabulary (operator codes, OMP directive
// codes); out-of-range codes are clamped.
const MaxSubKinds = 64

// Relation holds the edges of one type in tensorized form.
type Relation struct {
	Src  []int
	Dst  []int
	LogW []float64 // log1p of edge weights, scaled later by WScale
}

// Graph is a ParaGraph encoded for the model: integer node codes, a scalar
// feature column, and per-relation edge lists.
type Graph struct {
	NumNodes int
	Kinds    []int
	SubKinds []int
	Feats    *tensor.Matrix // N×1 scalar node features
	Rels     []Relation     // indexed by edge type
	// WScale divides LogW before it enters attention logits; the dataset
	// fits it so weights land in [0, 1] (the paper's MinMaxScaler).
	WScale float64

	// planBox caches the graph's InferencePlan (see infer.go). It is a
	// pointer so shallow header copies (a copy made to override WScale)
	// share one cached plan. Encode installs it; hand-built graphs may
	// leave it nil at the cost of re-deriving the plan on every prediction.
	planBox *planBox
}

// Encode converts a built graph into model form. numRelations must be at
// least the number of edge types used by the graph.
func Encode(g *graph.Graph, numRelations int) (*Graph, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("gnn: encoding invalid graph: %w", err)
	}
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("gnn: cannot encode empty graph")
	}
	eg := &Graph{
		NumNodes: g.NumNodes(),
		Kinds:    make([]int, g.NumNodes()),
		SubKinds: make([]int, g.NumNodes()),
		Feats:    tensor.New(g.NumNodes(), 1),
		Rels:     make([]Relation, numRelations),
		WScale:   1,
		planBox:  &planBox{},
	}
	for i, n := range g.Nodes {
		eg.Kinds[i] = n.Kind
		sk := n.SubKind
		if sk < 0 {
			sk = 0
		}
		if sk >= MaxSubKinds {
			sk = MaxSubKinds - 1
		}
		eg.SubKinds[i] = sk
		eg.Feats.Set(i, 0, n.Feature)
	}
	for _, e := range g.Edges {
		if e.Type < 0 || e.Type >= numRelations {
			return nil, fmt.Errorf("gnn: edge type %d exceeds %d relations", e.Type, numRelations)
		}
		r := &eg.Rels[e.Type]
		r.Src = append(r.Src, e.Src)
		r.Dst = append(r.Dst, e.Dst)
		r.LogW = append(r.LogW, fp.Log1p(e.Weight))
	}
	return eg, nil
}

// Topology is what sibling graphs share: the grid an advisor sweeps is one
// graph seen many times (see infer.go), so its node codes, edge lists, the
// zero weight columns of the unweighted relations and the inference plan are
// held once here and every Graph made from it points at them. Nothing reads
// a Topology but Graph; the slices it shares are never written after
// NewTopology returns — per-sample state (Feats, the weighted relation's
// LogW, WScale) lives in each Graph's own header.
type Topology struct {
	kinds, subKinds []int
	rels            []Relation // Src, Dst and an all-zero LogW per relation
	planBox         *planBox
}

// NewTopology checks and adopts a graph structure in Encode's form: kinds
// and subKinds per node (sub-kinds clamped into the vocabulary, as Encode
// clamps them) and one Src/Dst edge list per relation. kinds, src and dst are
// kept, not copied: the caller must not write them afterwards.
func NewTopology(kinds, subKinds []int, src, dst [][]int) (*Topology, error) {
	n := len(kinds)
	if n == 0 {
		return nil, fmt.Errorf("gnn: cannot encode empty graph")
	}
	if len(subKinds) != n || len(src) != len(dst) {
		return nil, fmt.Errorf("gnn: topology of %d kinds, %d sub-kinds, %d source and %d destination lists",
			n, len(subKinds), len(src), len(dst))
	}
	t := &Topology{kinds: kinds, subKinds: make([]int, n), rels: make([]Relation, len(src)), planBox: &planBox{}}
	for i, sk := range subKinds {
		t.subKinds[i] = min(max(sk, 0), MaxSubKinds-1)
	}
	for r := range src {
		if len(src[r]) != len(dst[r]) {
			return nil, fmt.Errorf("gnn: relation %d has %d sources for %d destinations", r, len(src[r]), len(dst[r]))
		}
		for e, s := range src[r] {
			if d := dst[r][e]; s < 0 || s >= n || d < 0 || d >= n {
				return nil, fmt.Errorf("gnn: relation %d edge %d (%d→%d) out of range [0,%d)", r, e, s, d, n)
			}
		}
		if len(src[r]) > 0 {
			t.rels[r] = Relation{Src: src[r], Dst: dst[r], LogW: make([]float64, len(src[r]))}
		}
	}
	return t, nil
}

// Graph is the one constructor of a Graph over a shared Topology: feats is
// the node feature column and logW the log1p weights of relation weighted,
// in its edge order; every other relation weighs zero (ParaGraph's W is zero
// off the Child type). Both slices are kept, so graphs given one logW share
// it and the engine's same-weights test is a pointer compare. Given the
// columns Encode would derive, the result equals Encode's, field for field.
func (t *Topology) Graph(feats []float64, weighted int, logW []float64) (*Graph, error) {
	if len(feats) != len(t.kinds) {
		return nil, fmt.Errorf("gnn: %d features for %d nodes", len(feats), len(t.kinds))
	}
	if weighted < 0 || weighted >= len(t.rels) || len(logW) != len(t.rels[weighted].Src) {
		return nil, fmt.Errorf("gnn: %d weights for relation %d", len(logW), weighted)
	}
	rels := append([]Relation(nil), t.rels...)
	if len(logW) > 0 {
		rels[weighted].LogW = logW
	}
	return &Graph{
		NumNodes: len(t.kinds),
		Kinds:    t.kinds,
		SubKinds: t.subKinds,
		Feats:    &tensor.Matrix{Rows: len(feats), Cols: 1, Data: feats},
		Rels:     rels,
		WScale:   1,
		planBox:  t.planBox,
	}, nil
}

// LogWeights rewrites a column of edge weights in place as Encode stores
// them (log1p) and returns it.
func LogWeights(ws []float64) []float64 {
	for i, w := range ws {
		ws[i] = fp.Log1p(w)
	}
	return ws
}

// MaxLogWeight returns the largest log1p edge weight in the graph.
func (g *Graph) MaxLogWeight() float64 {
	var mx float64
	for _, r := range g.Rels {
		for _, w := range r.LogW {
			if w > mx {
				mx = w
			}
		}
	}
	return mx
}

// NumEdges returns the total edge count across relations.
func (g *Graph) NumEdges() int {
	n := 0
	for _, r := range g.Rels {
		n += len(r.Src)
	}
	return n
}

// weightScale is the divisor of LogW: WScale, or 1 while it is unset (≤ 0).
func (g *Graph) weightScale() float64 {
	if g.WScale <= 0 {
		return 1
	}
	return g.WScale
}

// weightColumn materializes relation r's scaled weight column (E×1).
func (g *Graph) weightColumn(r int) *tensor.Matrix {
	rel := g.Rels[r]
	m := tensor.New(len(rel.LogW), 1)
	scale := g.weightScale()
	for i, w := range rel.LogW {
		m.Data[i] = w / scale
	}
	return m
}

// Sample is one training/evaluation example: an encoded graph, the two
// scaled runtime-configuration features (teams, threads — §III-B: "our
// feature set also includes the number of teams and threads"), the scaled
// regression target, and bookkeeping for metrics.
type Sample struct {
	G      *Graph
	Feats  [2]float64 // scaled (teams, threads)
	Target float64    // scaled runtime target
	RawUS  float64    // unscaled runtime in microseconds
	App    string     // application name (per-app error, Fig. 6)
	Name   string     // instance identifier
}

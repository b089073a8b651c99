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
	"paragraph/internal/paragraph"
	"paragraph/internal/tensor"
)

// MaxSubKinds bounds the sub-kind vocabulary (operator codes, OMP directive
// codes); out-of-range codes are clamped.
const MaxSubKinds = 64

// Relation holds the edges of one type in tensorized form.
type Relation struct {
	Src []int
	Dst []int
}

// Topology is the structure of an encoded ParaGraph: node count, integer
// node codes, one edge list per relation (indexed by edge type) and the
// inference plan (see infer.go). It is what sibling graphs share: the grid
// an advisor sweeps is one graph seen many times, so every Graph of a
// variant kind points at one Topology. Its slices are never written after
// Encode or NewTopology returns.
type Topology struct {
	NumNodes int
	Kinds    []int
	SubKinds []int
	Rels     []Relation

	// planBox caches the plan; nil in a Topology built by hand, which gets
	// a fresh plan on every prediction.
	planBox *planBox
}

// Graph is a ParaGraph encoded for the model: a shared, read-only Topology
// plus what a grid point changes — the scalar node features, Child's edge
// weights and their scale. Only Child edges carry a weight (ParaGraph's W is
// zero off the Child type), so only Child's column exists.
type Graph struct {
	*Topology
	Feats []float64 // one scalar feature per node
	// LogW holds log1p of Child's edge weights in its edge order, nil when
	// Child has no edges.
	LogW []float64
	// WScale divides LogW before it enters the model; the dataset fits it
	// so weights land in [0, 1] (the paper's MinMaxScaler).
	WScale float64
}

// Encode converts a built graph into model form. numRelations must be at
// least the number of edge types used by the graph, and an edge of any type
// but Child must weigh zero.
func Encode(g *graph.Graph, numRelations int) (*Graph, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("gnn: encoding invalid graph: %w", err)
	}
	n := g.NumNodes()
	if n == 0 {
		return nil, fmt.Errorf("gnn: cannot encode empty graph")
	}
	t := &Topology{
		NumNodes: n,
		Kinds:    make([]int, n),
		SubKinds: make([]int, n),
		Rels:     make([]Relation, numRelations),
		planBox:  &planBox{},
	}
	eg := &Graph{Topology: t, Feats: make([]float64, n), WScale: 1}
	for i, nd := range g.Nodes {
		t.Kinds[i] = nd.Kind
		t.SubKinds[i] = min(max(nd.SubKind, 0), MaxSubKinds-1)
		eg.Feats[i] = nd.Feature
	}
	for i, e := range g.Edges {
		if e.Type < 0 || e.Type >= numRelations {
			return nil, fmt.Errorf("gnn: edge type %d exceeds %d relations", e.Type, numRelations)
		}
		if e.Type != child && e.Weight != 0 {
			return nil, fmt.Errorf("gnn: edge %d (%d→%d, %v) weighs %v: only Child edges carry a weight",
				i, e.Src, e.Dst, paragraph.EdgeType(e.Type), e.Weight)
		}
		r := &t.Rels[e.Type]
		r.Src = append(r.Src, e.Src)
		r.Dst = append(r.Dst, e.Dst)
		if e.Type == child {
			eg.LogW = append(eg.LogW, fp.Log1p(e.Weight))
		}
	}
	return eg, nil
}

// NewTopology checks and adopts a graph structure in Encode's form: kinds
// and subKinds per node (sub-kinds clamped into the vocabulary, as Encode
// clamps them) and one Src/Dst edge list per relation, Child's among them.
// kinds, src and dst are kept, not copied: the caller must not write them
// afterwards.
func NewTopology(kinds, subKinds []int, src, dst [][]int) (*Topology, error) {
	n := len(kinds)
	if n == 0 {
		return nil, fmt.Errorf("gnn: cannot encode empty graph")
	}
	if len(subKinds) != n || len(src) != len(dst) || len(src) <= child {
		return nil, fmt.Errorf("gnn: topology of %d kinds, %d sub-kinds, %d source and %d destination lists",
			n, len(subKinds), len(src), len(dst))
	}
	t := &Topology{NumNodes: n, Kinds: kinds, SubKinds: make([]int, n), Rels: make([]Relation, len(src)), planBox: &planBox{}}
	for i, sk := range subKinds {
		t.SubKinds[i] = min(max(sk, 0), MaxSubKinds-1)
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
			t.Rels[r] = Relation{Src: src[r], Dst: dst[r]}
		}
	}
	return t, nil
}

// Graph is the one constructor of a Graph over a shared Topology: feats is
// the node feature column and logW Child's log1p weights, in its edge order.
// Both slices are kept, so graphs given one logW share it and the engine's
// same-weights test is a pointer compare. Given the columns Encode would
// derive, the result equals Encode's, field for field.
func (t *Topology) Graph(feats, logW []float64) (*Graph, error) {
	if len(feats) != t.NumNodes {
		return nil, fmt.Errorf("gnn: %d features for %d nodes", len(feats), t.NumNodes)
	}
	if len(logW) != len(t.Rels[child].Src) {
		return nil, fmt.Errorf("gnn: %d weights for %d Child edges", len(logW), len(t.Rels[child].Src))
	}
	g := &Graph{Topology: t, Feats: feats, WScale: 1}
	if len(logW) > 0 {
		g.LogW = logW
	}
	return g, nil
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
	for _, w := range g.LogW {
		if w > mx {
			mx = w
		}
	}
	return mx
}

// NumEdges returns the total edge count across relations.
func (t *Topology) NumEdges() int {
	n := 0
	for _, r := range t.Rels {
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

// weightColumn materializes Child's scaled weight column (E×1).
func (g *Graph) weightColumn() *tensor.Matrix {
	m := tensor.New(len(g.LogW), 1)
	scale := g.weightScale()
	for i, w := range g.LogW {
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

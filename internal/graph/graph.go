// Package graph provides the typed, weighted multigraph structure that
// ParaGraph representations are built on. It is deliberately generic: edge
// types are small integers with caller-supplied names, so the package knows
// nothing about ASTs or OpenMP. Exports include DOT and JSON renderings and
// CSR-style adjacency views used by the GNN layers.
package graph

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// Node is a graph vertex. Kind and SubKind are small integers interpreted by
// the producer (for ParaGraph: the AST node kind and, where meaningful, an
// operator or directive code). Feature is an optional scalar payload
// (ParaGraph uses log1p of literal magnitudes).
type Node struct {
	ID      int     `json:"id"`
	Kind    int     `json:"kind"`
	SubKind int     `json:"subkind,omitempty"`
	Feature float64 `json:"feature,omitempty"`
	Label   string  `json:"label,omitempty"`
}

// Edge is a directed, typed, weighted edge.
type Edge struct {
	Src    int     `json:"src"`
	Dst    int     `json:"dst"`
	Type   int     `json:"type"`
	Weight float64 `json:"weight"`
}

// Graph is a directed multigraph with typed, weighted edges.
type Graph struct {
	Nodes     []Node   `json:"nodes"`
	Edges     []Edge   `json:"edges"`
	TypeNames []string `json:"type_names,omitempty"` // edge-type names, indexed by Edge.Type
	KindNames []string `json:"kind_names,omitempty"` // node-kind names, indexed by Node.Kind
}

// New returns an empty graph with the given edge-type names.
func New(typeNames []string) *Graph {
	return &Graph{TypeNames: typeNames}
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.Nodes) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// NumTypes returns the number of declared edge types.
func (g *Graph) NumTypes() int { return len(g.TypeNames) }

// AddNode appends a node and returns its ID.
func (g *Graph) AddNode(n Node) int {
	n.ID = len(g.Nodes)
	g.Nodes = append(g.Nodes, n)
	return n.ID
}

// AddEdge appends an edge.
func (g *Graph) AddEdge(src, dst, typ int, weight float64) {
	g.Edges = append(g.Edges, Edge{Src: src, Dst: dst, Type: typ, Weight: weight})
}

// Validate checks structural invariants: endpoints and types in range,
// finite non-negative weights, node IDs dense and in order.
func (g *Graph) Validate() error {
	for i, n := range g.Nodes {
		if n.ID != i {
			return fmt.Errorf("graph: node %d has ID %d (IDs must be dense)", i, n.ID)
		}
	}
	for i, e := range g.Edges {
		if e.Src < 0 || e.Src >= len(g.Nodes) {
			return fmt.Errorf("graph: edge %d src %d out of range [0,%d)", i, e.Src, len(g.Nodes))
		}
		if e.Dst < 0 || e.Dst >= len(g.Nodes) {
			return fmt.Errorf("graph: edge %d dst %d out of range [0,%d)", i, e.Dst, len(g.Nodes))
		}
		if len(g.TypeNames) > 0 && (e.Type < 0 || e.Type >= len(g.TypeNames)) {
			return fmt.Errorf("graph: edge %d type %d out of range [0,%d)", i, e.Type, len(g.TypeNames))
		}
		if math.IsNaN(e.Weight) || math.IsInf(e.Weight, 0) || e.Weight < 0 {
			return fmt.Errorf("graph: edge %d has invalid weight %v", i, e.Weight)
		}
	}
	return nil
}

// EdgesOfType returns the edges with the given type, in insertion order.
func (g *Graph) EdgesOfType(typ int) []Edge {
	var out []Edge
	for _, e := range g.Edges {
		if e.Type == typ {
			out = append(out, e)
		}
	}
	return out
}

// CountByType returns the number of edges of each type.
func (g *Graph) CountByType() []int {
	counts := make([]int, g.NumTypes())
	for _, e := range g.Edges {
		if e.Type >= 0 && e.Type < len(counts) {
			counts[e.Type]++
		}
	}
	return counts
}

// InDegrees returns the in-degree of every node.
func (g *Graph) InDegrees() []int {
	deg := make([]int, len(g.Nodes))
	for _, e := range g.Edges {
		deg[e.Dst]++
	}
	return deg
}

// OutDegrees returns the out-degree of every node.
func (g *Graph) OutDegrees() []int {
	deg := make([]int, len(g.Nodes))
	for _, e := range g.Edges {
		deg[e.Src]++
	}
	return deg
}

// TotalWeight returns the sum of all edge weights.
func (g *Graph) TotalWeight() float64 {
	var w float64
	for _, e := range g.Edges {
		w += e.Weight
	}
	return w
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		Nodes:     append([]Node(nil), g.Nodes...),
		Edges:     append([]Edge(nil), g.Edges...),
		TypeNames: append([]string(nil), g.TypeNames...),
		KindNames: append([]string(nil), g.KindNames...),
	}
	return c
}

// typeName returns a printable name for an edge type.
func (g *Graph) typeName(t int) string {
	if t >= 0 && t < len(g.TypeNames) {
		return g.TypeNames[t]
	}
	return fmt.Sprintf("type%d", t)
}

// kindName returns a printable name for a node kind.
func (g *Graph) kindName(k int) string {
	if k >= 0 && k < len(g.KindNames) {
		return g.KindNames[k]
	}
	return fmt.Sprintf("kind%d", k)
}

// dotColors maps edge types to Graphviz colors, cycling when there are more
// types than colors. The first type (Child in ParaGraph) renders black.
var dotColors = []string{
	"black", "orange", "blue", "deeppink", "forestgreen",
	"red", "purple", "brown", "cadetblue", "goldenrod",
}

// WriteDOT renders the graph in Graphviz DOT format.
func (g *Graph) WriteDOT(w io.Writer, name string) error {
	if name == "" {
		name = "paragraph"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n  node [shape=box, fontname=\"monospace\"];\n", name)
	for _, n := range g.Nodes {
		label := n.Label
		if label == "" {
			label = g.kindName(n.Kind)
		}
		fmt.Fprintf(&sb, "  n%d [label=%q];\n", n.ID, label)
	}
	for _, e := range g.Edges {
		color := dotColors[e.Type%len(dotColors)]
		if e.Weight != 0 {
			fmt.Fprintf(&sb, "  n%d -> n%d [color=%s, label=%q];\n",
				e.Src, e.Dst, color, fmt.Sprintf("%s w=%g", g.typeName(e.Type), e.Weight))
		} else {
			fmt.Fprintf(&sb, "  n%d -> n%d [color=%s, label=%q];\n",
				e.Src, e.Dst, color, g.typeName(e.Type))
		}
	}
	sb.WriteString("}\n")
	_, err := io.WriteString(w, sb.String())
	return err
}

// WriteJSON renders the graph as JSON.
func (g *Graph) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(g)
}

// Stats summarizes a graph for reporting.
type Stats struct {
	Nodes       int
	Edges       int
	EdgesByType map[string]int
	MaxInDeg    int
	MaxOutDeg   int
	TotalWeight float64
}

// Summary computes Stats for the graph.
func (g *Graph) Summary() Stats {
	s := Stats{
		Nodes:       g.NumNodes(),
		Edges:       g.NumEdges(),
		EdgesByType: map[string]int{},
		TotalWeight: g.TotalWeight(),
	}
	for t, c := range g.CountByType() {
		if c > 0 {
			s.EdgesByType[g.typeName(t)] = c
		}
	}
	for _, d := range g.InDegrees() {
		if d > s.MaxInDeg {
			s.MaxInDeg = d
		}
	}
	for _, d := range g.OutDegrees() {
		if d > s.MaxOutDeg {
			s.MaxOutDeg = d
		}
	}
	return s
}

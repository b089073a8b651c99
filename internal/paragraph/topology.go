package paragraph

import (
	"fmt"
	"math"

	"paragraph/internal/analysis"
	"paragraph/internal/cast"
	"paragraph/internal/omp"
)

// Topology is the part of a ParaGraph that is a function of the AST alone:
// node codes, the feature column the source's own literals give, and every
// relation's edge list in construction order. What is left — the Child
// weights — is a function of (threads, bindings) over this structure and
// comes from Trips and ChildWeights; and across the grid an advisor sweeps,
// a variant kind's sources differ only in the literals of one directive's
// num_teams/thread_limit/num_threads clauses, which Features rewrites. So a
// grid costs one parse and one Topology per variant kind, then per point a
// feature column and per distinct thread count a weight column.
//
// A Topology is immutable once built: its slices are shared by every graph
// encoded from it and must not be written.
type Topology struct {
	Level    Level
	Kinds    []int     // per node: cast.Kind
	SubKinds []int     // per node: operator, directive or clause code
	Feats    []float64 // per node: the source's own scalar feature
	// Src and Dst are each edge type's endpoints, in Build's emission order.
	Src, Dst [NumEdgeTypes][]int

	root    *cast.Node
	loops   []*cast.Node    // well-formed ForStmts, in the order childEdges asks for their trips
	configs []configLiteral // clause literals a grid point's configuration is spelled in
}

// configLiteral is one IntegerLiteral child of a num_teams, thread_limit or
// num_threads clause.
type configLiteral struct {
	directive int // byte offset of the directive's pragma in the source
	clause    omp.ClauseKind
	row       int
}

// NewTopology derives the structure of the ParaGraph of the AST subtree
// rooted at root at the requested level: Build's nodes and edges, without
// labels and without weights.
func NewTopology(root *cast.Node, level Level) (*Topology, error) {
	if root == nil {
		return nil, fmt.Errorf("paragraph: nil AST root")
	}
	n := root.Size()
	t := &Topology{
		Level: level, root: root,
		Kinds: make([]int, 0, n), SubKinds: make([]int, 0, n), Feats: make([]float64, 0, n),
	}
	id := make(map[*cast.Node]int, n)
	var directives []*cast.Node
	cast.Walk(root, func(n *cast.Node) bool {
		id[n] = len(t.Kinds)
		t.Kinds = append(t.Kinds, int(n.Kind))
		t.SubKinds = append(t.SubKinds, subKind(n))
		t.Feats = append(t.Feats, nodeFeature(n))
		if n.Kind == cast.KindOMPExecutableDirective {
			directives = append(directives, n)
		}
		return true
	})
	for _, d := range directives {
		for _, c := range d.Children {
			if c.Kind != cast.KindOMPClause {
				continue
			}
			switch c.Clause {
			case omp.ClauseNumTeams, omp.ClauseThreadLimit, omp.ClauseNumThreads:
				for _, lit := range c.Children {
					if lit.Kind == cast.KindIntegerLiteral {
						t.configs = append(t.configs, configLiteral{d.Pos.Offset, c.Clause, id[lit]})
					}
				}
			}
		}
	}
	rule := newWeightRule(Options{Level: level})
	rule.trip = func(fs *cast.Node) float64 {
		t.loops = append(t.loops, fs)
		return 1
	}
	walkEdges(root, rule, func(src, dst *cast.Node, et EdgeType, _ float64) {
		if d, ok := id[dst]; ok {
			t.Src[et] = append(t.Src[et], id[src])
			t.Dst[et] = append(t.Dst[et], d)
		}
	})
	return t, nil
}

// Trips evaluates every loop's trip count under bindings, for ChildWeights:
// once per topology × bindings, however many thread counts are then weighed.
func (t *Topology) Trips(bindings analysis.Env) []float64 {
	trips := make([]float64, len(t.loops))
	for i, fs := range t.loops {
		trips[i] = analysis.ForTrip(fs, bindings, defaultTrip).Trip
	}
	return trips
}

// ChildWeights is the weighing step: the Child relation's weights, in
// Src[Child]/Dst[Child] order, for threads (Options.Threads) and the trip
// counts Trips returned — the weights Build gives the same AST with the same
// Threads and Bindings and default DefaultTrip and MaxWeight, bit for bit.
// Like Build it refuses a weight that is not a finite non-negative number.
func (t *Topology) ChildWeights(threads int, trips []float64) ([]float64, error) {
	if len(trips) != len(t.loops) {
		return nil, fmt.Errorf("paragraph: %d trip counts for %d loops", len(trips), len(t.loops))
	}
	rule := newWeightRule(Options{Level: t.Level, Threads: threads})
	next := 0
	rule.trip = func(*cast.Node) float64 {
		next++
		return trips[next-1]
	}
	ws := make([]float64, 0, len(t.Src[Child]))
	rule.childEdges(t.root, 1, 0, func(_, _ *cast.Node, _ EdgeType, w float64) {
		ws = append(ws, w)
	})
	for i, w := range ws {
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			return nil, fmt.Errorf("paragraph: built invalid graph: child edge %d has invalid weight %v", i, w)
		}
	}
	return ws, nil
}

// Features returns a fresh feature column for the grid point (teams,
// threads): the source's own, with the literals of the num_teams and the
// thread_limit/num_threads clauses of the directive at byte offset directive
// of the source rewritten — the column a parse of that point's source would
// give, as long as the point spells the same clauses (a count of zero drops
// a clause, which is another topology). A directive offset no directive
// sits at rewrites nothing.
func (t *Topology) Features(directive, teams, threads int) []float64 {
	feats := append([]float64(nil), t.Feats...)
	for _, c := range t.configs {
		if c.directive != directive {
			continue
		}
		v := threads
		if c.clause == omp.ClauseNumTeams {
			v = teams
		}
		feats[c.row] = literalFeature(float64(v))
	}
	return feats
}

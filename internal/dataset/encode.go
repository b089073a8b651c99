package dataset

import (
	"paragraph/internal/analysis"
	"paragraph/internal/cparse"
	"paragraph/internal/gnn"
	"paragraph/internal/paragraph"
)

// Encoder is the front end every graph the model sees comes through —
// training samples in Prepare, served requests in advisor — split where the
// paper splits a ParaGraph. What is a function of the AST alone (nodes, edge
// lists: paragraph.Topology, and their model form gnn.Topology) is derived
// once per parsed source, here; what a grid sweeps over that structure — the
// Child weights, a function of (threads, bindings), and the literals of the
// one directive variants.Generate writes — is a point's gnn.Graph, a header
// over the one gnn.Topology made by Grid.Graph. A variant kind's sources
// differ in nothing else, so a kind's whole grid is one Encoder.
//
// An Encoder is immutable and may be shared across goroutines; its topology
// and weight columns are shared by every graph it encodes and never written
// (callers set WScale on their own Graph header only).
type Encoder struct {
	para      *paragraph.Topology
	net       *gnn.Topology
	directive int
}

// NewEncoder parses one variant's source and derives its topology at level.
// directive is the byte offset in source of the pragma whose
// num_teams/thread_limit/num_threads literals Grid.Graph rewrites per grid
// point — where variants.Generate put it: apps.Kernel.PragmaOffset — or
// negative for a source encoded only as itself.
func NewEncoder(source string, level paragraph.Level, directive int) (*Encoder, error) {
	fn, err := cparse.ParseFunction(source)
	if err != nil {
		return nil, err
	}
	para, err := paragraph.NewTopology(fn, level)
	if err != nil {
		return nil, err
	}
	net, err := gnn.NewTopology(para.Kinds, para.SubKinds, para.Src[:], para.Dst[:])
	if err != nil {
		return nil, err
	}
	return &Encoder{para: para, net: net, directive: directive}, nil
}

// Bind evaluates the source's loop trip counts under bindings, once, and
// returns the grid of its encodings under them.
func (e *Encoder) Bind(bindings analysis.Env) *Grid {
	return &Grid{enc: e, trips: e.para.Trips(bindings), logW: map[int][]float64{}}
}

// Grid is one Encoder under one set of bindings. It weighs the Child
// relation once per distinct thread count and hands the same weight column to
// every point at that count, so the engine's same-weights test between them
// is a pointer compare. A Grid is used by one goroutine.
type Grid struct {
	enc   *Encoder
	trips []float64
	logW  map[int][]float64 // Child log-weights per dividing thread count
}

// Graph encodes the grid point (teams, threads): the graph a fresh parse →
// paragraph.Build → gnn.Encode of that point's source yields, bit for bit,
// provided the point spells the clauses the Encoder's source spells (same
// kind, and teams and threads positive where its are). threads is
// paragraph.Options.Threads — the per-team count, never teams×threads, for
// the reason given there — with one difference: a count below one divides by
// one too, since the front end never reads a divisor off the directive's
// literals. The graph's WScale is the caller's to set.
func (g *Grid) Graph(teams, threads int) (*gnn.Graph, error) {
	div := max(threads, 1)
	logW, ok := g.logW[div]
	if !ok {
		ws, err := g.enc.para.ChildWeights(div, g.trips)
		if err != nil {
			return nil, err
		}
		logW = gnn.LogWeights(ws)
		g.logW[div] = logW
	}
	return g.enc.net.Graph(g.enc.para.Features(g.enc.directive, teams, threads), logW)
}

// EncodeSource encodes one source as itself — a grid of one: its topology,
// weighed once at threads (see Grid.Graph for the rule) under bindings.
func EncodeSource(source string, level paragraph.Level, threads int, bindings analysis.Env) (*gnn.Graph, error) {
	enc, err := NewEncoder(source, level, -1)
	if err != nil {
		return nil, err
	}
	return enc.Bind(bindings).Graph(0, threads)
}

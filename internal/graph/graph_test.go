package graph

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func smallGraph() *Graph {
	g := New([]string{"Child", "Ref"})
	g.KindNames = []string{"A", "B", "C"}
	a := g.AddNode(Node{Kind: 0, Label: "root"})
	b := g.AddNode(Node{Kind: 1})
	c := g.AddNode(Node{Kind: 2})
	g.AddEdge(a, b, 0, 1)
	g.AddEdge(a, c, 0, 2.5)
	g.AddEdge(c, b, 1, 0)
	return g
}

func TestAddAndValidate(t *testing.T) {
	g := smallGraph()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 || g.NumTypes() != 2 {
		t.Errorf("counts = %d/%d/%d", g.NumNodes(), g.NumEdges(), g.NumTypes())
	}
}

func TestValidateCatchesBadEdges(t *testing.T) {
	cases := []func(*Graph){
		func(g *Graph) { g.AddEdge(-1, 0, 0, 1) },
		func(g *Graph) { g.AddEdge(0, 99, 0, 1) },
		func(g *Graph) { g.AddEdge(0, 1, 7, 1) },
		func(g *Graph) { g.AddEdge(0, 1, 0, -1) },
		func(g *Graph) { g.AddEdge(0, 1, 0, math.NaN()) },
		func(g *Graph) { g.AddEdge(0, 1, 0, math.Inf(1)) },
	}
	for i, corrupt := range cases {
		g := smallGraph()
		corrupt(g)
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted corrupt graph", i)
		}
	}
	g := smallGraph()
	g.Nodes[1].ID = 7
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted non-dense IDs")
	}
}

func TestDegreesAndCounts(t *testing.T) {
	g := smallGraph()
	in := g.InDegrees()
	out := g.OutDegrees()
	if in[1] != 2 || in[0] != 0 || in[2] != 1 {
		t.Errorf("in degrees = %v", in)
	}
	if out[0] != 2 || out[2] != 1 || out[1] != 0 {
		t.Errorf("out degrees = %v", out)
	}
	counts := g.CountByType()
	if counts[0] != 2 || counts[1] != 1 {
		t.Errorf("counts by type = %v", counts)
	}
	if got := g.TotalWeight(); got != 3.5 {
		t.Errorf("TotalWeight = %v, want 3.5", got)
	}
}

func TestDOTOutput(t *testing.T) {
	g := smallGraph()
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf, "test"); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{"digraph", "n0 -> n1", "Child", "Ref", "w=2.5", "root"} {
		if !strings.Contains(s, want) {
			t.Errorf("DOT missing %q:\n%s", want, s)
		}
	}
	var buf2 bytes.Buffer
	if err := g.WriteDOT(&buf2, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf2.String(), "paragraph") {
		t.Error("default DOT name missing")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := smallGraph()
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var g2 Graph
	if err := json.Unmarshal(buf.Bytes(), &g2); err != nil {
		t.Fatal(err)
	}
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip: %d/%d vs %d/%d", g2.NumNodes(), g2.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	for i := range g.Edges {
		if g2.Edges[i] != g.Edges[i] {
			t.Errorf("edge %d: %v vs %v", i, g2.Edges[i], g.Edges[i])
		}
	}
}

func TestSummary(t *testing.T) {
	g := smallGraph()
	s := g.Summary()
	if s.Nodes != 3 || s.Edges != 3 {
		t.Errorf("summary counts = %+v", s)
	}
	if s.EdgesByType["Child"] != 2 || s.EdgesByType["Ref"] != 1 {
		t.Errorf("by type = %v", s.EdgesByType)
	}
	if s.MaxInDeg != 2 || s.MaxOutDeg != 2 {
		t.Errorf("degrees = %d/%d", s.MaxInDeg, s.MaxOutDeg)
	}
	if s.TotalWeight != 3.5 {
		t.Errorf("weight = %v", s.TotalWeight)
	}
}

func TestTypeNameFallbacks(t *testing.T) {
	g := New(nil)
	g.AddNode(Node{Kind: 4})
	g.AddNode(Node{})
	g.AddEdge(0, 1, 3, 1)
	if err := g.Validate(); err != nil {
		t.Fatalf("untyped graph should validate: %v", err)
	}
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf, "x"); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, "type3") || !strings.Contains(s, "kind4") {
		t.Errorf("fallback names missing:\n%s", s)
	}
}

package main

import (
	"bytes"
	"testing"
)

func TestGeneratorIsAFunctionOfTheSeed(t *testing.T) {
	a, b, other := newGenerator(7), newGenerator(7), newGenerator(8)
	same, differs := true, false
	for i := 0; i < 500; i++ {
		if !bytes.Equal(a.at(i).Body, b.at(i).Body) {
			same = false
		}
		if !bytes.Equal(a.at(i).Body, other.at(i).Body) {
			differs = true
		}
	}
	if !same {
		t.Error("one seed gave two different request sequences")
	}
	if !differs {
		t.Error("two seeds gave the same request sequence")
	}
	// Entering the stream midway gives the same request as walking to it.
	if !bytes.Equal(newGenerator(7).at(321).Body, a.at(321).Body) {
		t.Error("request 321 depends on what was generated before it")
	}
}

func TestColdSequenceNeverRepeatsAKey(t *testing.T) {
	g := newGenerator(3)
	const clients, perClient = 2, 20000 // more than a client sends in a run
	seen := make(map[string]bool, clients*perClient)
	for c := 0; c < clients; c++ {
		for _, r := range g.coldSequence(c, clients, perClient) {
			if seen[string(r.Body)] {
				t.Fatalf("request repeated within one run: %s", r.Body)
			}
			seen[string(r.Body)] = true
		}
	}
}

func TestColdSequenceRoundRobinsTheSuite(t *testing.T) {
	g := newGenerator(1)
	for i := 0; i < 3*len(g.kernels); i++ {
		if got, want := g.at(i).Kernel.Name, g.kernels[i%len(g.kernels)].Name; got != want {
			t.Fatalf("request %d is for %s, want %s", i, got, want)
		}
	}
}

func TestWarmSetFitsTheAdviseCache(t *testing.T) {
	set := newGenerator(5).warmSet()
	if len(set) != 136 || len(set) >= 512 {
		t.Fatalf("warm set has %d keys, want 136 (< 512)", len(set))
	}
	seen := map[string]bool{}
	perKernel := map[string]int{}
	for _, r := range set {
		if seen[string(r.Body)] {
			t.Fatalf("warm set repeats %s", r.Body)
		}
		seen[string(r.Body)] = true
		perKernel[r.Kernel.Name]++
		if r.Grid != 24 && r.Grid != 48 {
			t.Errorf("%s: grid of %d, want 24 or 48", r.Kernel.Name, r.Grid)
		}
	}
	for name, n := range perKernel {
		if n != sizesPerKernel {
			t.Errorf("%s has %d sizes, want %d", name, n, sizesPerKernel)
		}
	}
}

func TestUniformDrawsAreSeededAndInRange(t *testing.T) {
	a, b := uniformDraws(9, 0, 136, 5000), uniformDraws(9, 0, 136, 5000)
	other := uniformDraws(9, 1, 136, 5000)
	differs := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("one seed and client gave two different access patterns")
		}
		if a[i] >= 136 {
			t.Fatalf("draw %d out of range", a[i])
		}
		if a[i] != other[i] {
			differs = true
		}
	}
	if !differs {
		t.Error("two clients share one access pattern")
	}
}

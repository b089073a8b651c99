package nn

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"paragraph/internal/tensor"
)

func paramSet(t *testing.T) []*Parameter {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	return []*Parameter{
		GlorotParameter("layer1.W", 4, 8, rng),
		GlorotParameter("layer1.b", 1, 8, rng),
		GlorotParameter("out.W", 8, 1, rng),
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	src := paramSet(t)
	var buf bytes.Buffer
	if err := SaveParams(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := paramSet(t)
	// Perturb destination so we can tell loading worked.
	for _, p := range dst {
		p.Value.Fill(99)
	}
	if err := LoadParams(&buf, dst); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		for j, v := range src[i].Value.Data {
			if dst[i].Value.Data[j] != v {
				t.Fatalf("param %s elem %d: %v vs %v", src[i].Name, j, dst[i].Value.Data[j], v)
			}
		}
	}
}

func TestLoadedValuesAreIndependent(t *testing.T) {
	src := paramSet(t)
	var buf bytes.Buffer
	if err := SaveParams(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := paramSet(t)
	if err := LoadParams(&buf, dst); err != nil {
		t.Fatal(err)
	}
	dst[0].Value.Set(0, 0, 12345)
	if src[0].Value.At(0, 0) == 12345 {
		t.Error("loaded parameters alias the source buffers")
	}
}

func TestSaveRejectsBadNames(t *testing.T) {
	anon := NewParameter("", 1, 1)
	if err := SaveParams(&bytes.Buffer{}, []*Parameter{anon}); err == nil {
		t.Error("anonymous parameter accepted")
	}
	a := NewParameter("dup", 1, 1)
	b := NewParameter("dup", 1, 1)
	if err := SaveParams(&bytes.Buffer{}, []*Parameter{a, b}); err == nil {
		t.Error("duplicate names accepted")
	}
}

func TestLoadRejectsMismatches(t *testing.T) {
	src := paramSet(t)
	save := func() *bytes.Buffer {
		var buf bytes.Buffer
		if err := SaveParams(&buf, src); err != nil {
			t.Fatal(err)
		}
		return &buf
	}

	// Missing parameter in checkpoint.
	extra := append(paramSet(t), NewParameter("new.W", 2, 2))
	if err := LoadParams(save(), extra); err == nil {
		t.Error("missing checkpoint entry accepted")
	}
	// Shape mismatch.
	reshaped := paramSet(t)
	reshaped[0] = NewParameter("layer1.W", 5, 5)
	if err := LoadParams(save(), reshaped); err == nil {
		t.Error("shape mismatch accepted")
	}
	// Extra checkpoint entry (model smaller than checkpoint).
	smaller := paramSet(t)[:2]
	if err := LoadParams(save(), smaller); err == nil {
		t.Error("extra checkpoint entry accepted")
	}
	// Garbage input.
	if err := LoadParams(strings.NewReader("{bad"), paramSet(t)); err == nil {
		t.Error("garbage accepted")
	}
	// Wrong version.
	if err := LoadParams(strings.NewReader(`{"version":9,"params":[]}`), nil); err == nil {
		t.Error("future version accepted")
	}
}

func TestCheckpointPreservesPredictions(t *testing.T) {
	// A trained linear layer must predict identically after save/load into
	// a fresh instance.
	rng := rand.New(rand.NewSource(5))
	l := NewLinear("fit", 3, 1, rng)
	var buf bytes.Buffer
	if err := SaveParams(&buf, l.Params()); err != nil {
		t.Fatal(err)
	}
	l2 := NewLinear("fit", 3, 1, rand.New(rand.NewSource(99)))
	if err := LoadParams(&buf, l2.Params()); err != nil {
		t.Fatal(err)
	}
	f1 := NewForward()
	f2 := NewForward()
	x1 := f1.Tape.Const(tensorFromRow(1, 2, 3))
	x2 := f2.Tape.Const(tensorFromRow(1, 2, 3))
	if got, want := l2.Apply(f2, x2).Value.At(0, 0), l.Apply(f1, x1).Value.At(0, 0); got != want {
		t.Errorf("prediction after load = %v, want %v", got, want)
	}
}

// tensorFromRow builds a 1×n matrix from values.
func tensorFromRow(vs ...float64) *tensor.Matrix {
	return tensor.FromData(1, len(vs), vs)
}

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
		for i := range p.Value.Data {
			p.Value.Data[i] = 99
		}
	}
	if _, err := LoadParams(&buf, dst, nil); err != nil {
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

// TestLoadChecksumsRecordsAsWritten: LoadParams returns the checksum of the
// parameter set that wrote the checkpoint, dropped records included.
func TestLoadChecksumsRecordsAsWritten(t *testing.T) {
	src := paramSet(t)
	var buf bytes.Buffer
	if err := SaveParams(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := paramSet(t)[:2]
	sum, err := LoadParams(&buf, dst, map[string]bool{"out.W": true})
	if err != nil {
		t.Fatal(err)
	}
	if sum != ChecksumParams(src) {
		t.Errorf("checksum %.12s, the writer's parameters give %.12s", sum, ChecksumParams(src))
	}
	if sum == ChecksumParams(dst) {
		t.Error("checksum leaves the dropped record out")
	}
}

func TestLoadedValuesAreIndependent(t *testing.T) {
	src := paramSet(t)
	var buf bytes.Buffer
	if err := SaveParams(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := paramSet(t)
	if _, err := LoadParams(&buf, dst, nil); err != nil {
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
	if _, err := LoadParams(save(), extra, nil); err == nil {
		t.Error("missing checkpoint entry accepted")
	}
	// Shape mismatch.
	reshaped := paramSet(t)
	reshaped[0] = NewParameter("layer1.W", 5, 5)
	if _, err := LoadParams(save(), reshaped, nil); err == nil {
		t.Error("shape mismatch accepted")
	}
	// Extra checkpoint entry (model smaller than checkpoint).
	smaller := paramSet(t)[:2]
	if _, err := LoadParams(save(), smaller, nil); err == nil {
		t.Error("extra checkpoint entry accepted")
	}
	// An extra entry the caller names as dropped is skipped, and only that one.
	if _, err := LoadParams(save(), smaller, map[string]bool{"out.W": true}); err != nil {
		t.Errorf("dropped checkpoint entry refused: %v", err)
	}
	if _, err := LoadParams(save(), paramSet(t)[1:], map[string]bool{"out.W": true}); err == nil {
		t.Error("extra checkpoint entry outside the dropped set accepted")
	}
	// Garbage input.
	if _, err := LoadParams(strings.NewReader("{bad"), paramSet(t), nil); err == nil {
		t.Error("garbage accepted")
	}
	// Wrong version.
	if _, err := LoadParams(strings.NewReader(`{"version":9,"params":[]}`), nil, nil); err == nil {
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
	if _, err := LoadParams(&buf, l2.Params(), nil); err != nil {
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

package gnn

import (
	"math"
	"math/rand"
	"testing"

	"paragraph/internal/nn"
	"paragraph/internal/paragraph"
	"paragraph/internal/tensor"
)

// tapeGradient is the oracle the engine's backward is checked against: the
// squared error of the tape's forward pass, its backward, and every
// parameter's gradient laid out as nn.Gradient lays them out (Params order;
// a parameter the pass never bound stays zero).
func tapeGradient(m *Model, s *Sample, grad []float64) float64 {
	f := nn.NewForward()
	loss := f.Tape.MSE(m.Forward(f, s), tensor.Scalar(s.Target))
	f.Backward(loss)
	grads := f.Gradients()
	for _, p := range m.params {
		if g, ok := grads[p]; ok {
			copy(grad, g.Data)
		}
		grad = grad[len(p.Value.Data):]
	}
	return loss.Value.At(0, 0)
}

// tapeGradients is nn.Train's callback on the tape: the loop's oracle.
func tapeGradients(m *Model, samples []*Sample) func() nn.Gradient {
	return func() nn.Gradient {
		return func(i int, grad []float64) float64 { return tapeGradient(m, samples[i], grad) }
	}
}

// checkGradientsMatchTape compares one sample's engine gradient with the
// tape's, element by element, at relErr ≤ equivTol.
func checkGradientsMatchTape(t *testing.T, m *Model, s *Sample, what string) {
	t.Helper()
	want := make([]float64, m.NumParams())
	wantLoss := tapeGradient(m, s, want)
	got := make([]float64, len(want))
	loss := m.Gradient([]*Sample{s})(0, got)
	if e := relErr(loss, wantLoss); e > equivTol {
		t.Fatalf("%s: loss %v, tape %v (rel err %v)", what, loss, wantLoss, e)
	}
	i := 0
	for _, p := range m.params {
		for j := range p.Value.Data {
			if e := relErr(got[i], want[i]); e > equivTol || math.IsNaN(got[i]) {
				t.Fatalf("%s: %s[%d] gradient %v, tape %v (rel err %v)", what, p.Name, j, got[i], want[i], e)
			}
			i++
		}
	}
}

// TestTrainGradientsMatchTape fuzzes the space fuzzEngineVsTape covers —
// 1–8 relations, empty relations, single-node graphs, exact-zero features
// and weights, WScale 0, Layers 1–3, graphs without weights — plus real
// encoded kernels: every parameter's engine gradient must be within 1e-9 of the
// tape's. Targets are drawn so the loss gradient is never zero.
func TestTrainGradientsMatchTape(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < equivTrials(40); trial++ {
		numRels := 1 + rng.Intn(8)
		cfg := Config{
			Seed:      rng.Int63n(1000),
			Hidden:    []int{4, 8, 16}[rng.Intn(3)],
			Layers:    1 + rng.Intn(3),
			Relations: numRels,
		}
		unweighted := rng.Intn(2) == 0
		m := NewModel(cfg)
		g := randomEncodedGraph(rng, numRels)
		if trial%2 == 0 {
			initPlanCache(g)
		}
		s := &Sample{G: g, Feats: [2]float64{rng.Float64(), rng.Float64()}, Target: rng.NormFloat64()}
		if unweighted {
			zeroWeights(s)
		}
		checkGradientsMatchTape(t, m, s, "random graph")
	}
	for _, threads := range []int{1, 16, 128} {
		for _, unweighted := range []bool{false, true} {
			eg := encode(t, buildTestGraph(t, threads))
			m := NewModel(Config{Seed: 5, Hidden: 16, Layers: 3, Relations: int(paragraph.NumEdgeTypes)})
			for _, wscale := range []float64{1, 10} {
				scaled := *eg
				scaled.WScale = wscale
				s := &Sample{G: &scaled, Feats: [2]float64{0.4, 0.6}, Target: 0.9}
				if unweighted {
					zeroWeights(s)
				}
				checkGradientsMatchTape(t, m, s, "real kernel")
			}
		}
	}
}

// TestTrainGradientsMatchFiniteDifferences guards against a mistake the
// backward and the tape could share: on a few graphs every parameter's
// gradient is held to a central difference of the loss. Every parameter is
// jittered first so that no pre-activation sits exactly on a ReLU's kink
// (a zero bias under a zero row would), where a difference quotient
// straddles two slopes.
func TestTrainGradientsMatchFiniteDifferences(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	graphs := []*Graph{encode(t, buildTestGraph(t, 8))}
	for len(graphs) < 4 {
		if g := randomEncodedGraph(rng, 3); g.NumEdges() > 0 {
			graphs = append(graphs, g)
		}
	}
	for k, g := range graphs {
		m := NewModel(Config{Seed: int64(k), Hidden: 4, FeatHidden: 4, Layers: 2, Relations: len(g.Rels)})
		for _, p := range m.params {
			for j := range p.Value.Data {
				p.Value.Data[j] += 0.1 * rng.NormFloat64()
			}
		}
		s := &Sample{G: g, Feats: [2]float64{0.3, 0.7}, Target: 0.5}
		grad := make([]float64, m.NumParams())
		m.Gradient([]*Sample{s})(0, grad)
		loss := func() float64 {
			m.refresh()
			d := m.Predict(s) - s.Target
			return d * d
		}
		const h = 1e-6
		i := 0
		for _, p := range m.params {
			for j, v := range p.Value.Data {
				p.Value.Data[j] = v + h
				up := loss()
				p.Value.Data[j] = v - h
				down := loss()
				p.Value.Data[j] = v
				if fd := (up - down) / (2 * h); math.Abs(fd-grad[i]) > 1e-6*math.Max(1, math.Abs(fd)) {
					t.Errorf("graph %d: %s[%d] gradient %v, central difference %v", k, p.Name, j, grad[i], fd)
				}
				i++
			}
		}
	}
}

// TestTrainGradientZeroAllocs: after warm-up, one example's engine gradient
// over an Encode-built graph allocates nothing.
func TestTrainGradientZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are only meaningful unraced")
	}
	eg := encode(t, buildTestGraph(t, 8))
	eg.WScale = 10
	s := &Sample{G: eg, Feats: [2]float64{0.5, 0.5}, Target: 0.3}
	m := NewModel(Config{Seed: 1, Relations: int(paragraph.NumEdgeTypes)})
	grad := make([]float64, m.NumParams())
	step := m.Gradient([]*Sample{s})
	step(0, grad)
	if allocs := testing.AllocsPerRun(100, func() { step(0, grad) }); allocs != 0 {
		t.Errorf("steady-state engine gradient allocates %v times per example, want 0", allocs)
	}
}

// TestGradientSetupAllocs: a mini-batch's Gradient refreshes the values
// derived from the parameters in storage allocated once, so after the
// first call it allocates at most the closure it returns.
func TestGradientSetupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are only meaningful unraced")
	}
	eg := encode(t, buildTestGraph(t, 8))
	samples := []*Sample{{G: eg, Feats: [2]float64{0.5, 0.5}, Target: 0.3}}
	m := NewModel(Config{Seed: 1, Hidden: 24, Layers: 3, Relations: int(paragraph.NumEdgeTypes)})
	m.Gradient(samples)
	if allocs := testing.AllocsPerRun(100, func() { m.Gradient(samples) }); allocs > 1 {
		t.Errorf("Model.Gradient allocates %v times per mini-batch, want at most 1 (its closure)", allocs)
	}
}

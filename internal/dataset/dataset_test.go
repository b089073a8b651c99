package dataset

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"paragraph/internal/cluster"
	"paragraph/internal/gnn"
	"paragraph/internal/hw"
	"paragraph/internal/paragraph"
	"paragraph/internal/sim"
	"paragraph/internal/variants"
)

// tinyConfig keeps collection fast for tests.
func tinyConfig() Config {
	return Config{
		Sweep: variants.SweepConfig{
			// One parallelism level per side so the cpu:gpu point ratio is
			// driven purely by the 2-vs-4 variant-kind split, as in Table II.
			CPUThreads:        []int{8},
			GPUTeams:          []int{64},
			GPUThreads:        []int{128},
			MaxSizesPerKernel: 1,
		},
		Sim:     sim.Config{Seed: 1},
		Cluster: cluster.Config{FailureRate: 0, Seed: 1},
		Seed:    1,
	}
}

func collect(t *testing.T, m hw.Machine) *Platform {
	t.Helper()
	p, err := Collect(m, tinyConfig())
	if err != nil {
		t.Fatalf("Collect(%s): %v", m.Name, err)
	}
	return p
}

func TestCollectSplitsVariantsByPlatform(t *testing.T) {
	cpu := collect(t, hw.Power9())
	gpu := collect(t, hw.V100())
	for _, pt := range cpu.Points {
		if pt.Instance.Kind.IsGPU() {
			t.Errorf("GPU variant %v on CPU platform", pt.Instance.Kind)
		}
	}
	for _, pt := range gpu.Points {
		if !pt.Instance.Kind.IsGPU() {
			t.Errorf("CPU variant %v on GPU platform", pt.Instance.Kind)
		}
	}
	// GPU platforms see 4 of 6 kinds, CPUs 2 of 6 → roughly 2x the points
	// for the same sweep (Table II shows the same ratio).
	if gpu.Stats().NumPoints <= cpu.Stats().NumPoints {
		t.Errorf("gpu points %d should exceed cpu points %d",
			gpu.Stats().NumPoints, cpu.Stats().NumPoints)
	}
}

func TestCollectStats(t *testing.T) {
	p := collect(t, hw.V100())
	s := p.Stats()
	if s.NumPoints != len(p.Points) {
		t.Errorf("NumPoints = %d", s.NumPoints)
	}
	if s.MinRuntimeMS <= 0 || s.MaxRuntimeMS <= s.MinRuntimeMS {
		t.Errorf("runtime range [%v, %v] implausible", s.MinRuntimeMS, s.MaxRuntimeMS)
	}
	if s.StdDevMS <= 0 {
		t.Errorf("stddev = %v", s.StdDevMS)
	}
	// Table II: ranges span orders of magnitude.
	if s.MaxRuntimeMS/s.MinRuntimeMS < 10 {
		t.Errorf("dynamic range %v too narrow", s.MaxRuntimeMS/s.MinRuntimeMS)
	}
}

func TestCollectWithFailures(t *testing.T) {
	cfg := tinyConfig()
	cfg.Cluster.FailureRate = 0.5
	p, err := Collect(hw.MI50(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Failed == 0 {
		t.Error("expected some lost measurements at 50% failure rate")
	}
	if len(p.Points) == 0 {
		t.Error("all measurements lost")
	}
}

func TestCollectMaxPerPlatform(t *testing.T) {
	cfg := tinyConfig()
	cfg.MaxPerPlatform = 10
	p, err := Collect(hw.EPYC7401(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Points) > 10 {
		t.Errorf("points = %d, want <= 10", len(p.Points))
	}
}

func TestScaler(t *testing.T) {
	s := FitScaler([]float64{10, 20, 30})
	if s.Min != 10 || s.Max != 30 {
		t.Errorf("scaler = %+v", s)
	}
	if got := s.Scale(20); got != 0.5 {
		t.Errorf("Scale(20) = %v", got)
	}
	if got := s.Scale(-100); got != 0 {
		t.Errorf("clamp low = %v", got)
	}
	if got := s.Scale(100); got != 1 {
		t.Errorf("clamp high = %v", got)
	}
	if got := s.Unscale(0.5); got != 20 {
		t.Errorf("Unscale = %v", got)
	}
	deg := FitScaler([]float64{5, 5})
	if deg.Scale(5) != 0 {
		t.Error("degenerate scaler should return 0")
	}
	empty := FitScaler(nil)
	if empty.Scale(0.3) != 0.3 {
		t.Errorf("empty scaler Scale(0.3) = %v", empty.Scale(0.3))
	}
}

func TestPrepareBuildsScaledSamples(t *testing.T) {
	p := collect(t, hw.V100())
	prep, err := Prepare(p.Points, PrepConfig{Level: paragraph.LevelParaGraph, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	total := len(prep.Train) + len(prep.Val)
	if total != len(p.Points) {
		t.Errorf("samples = %d, points = %d", total, len(p.Points))
	}
	// 9:1 split.
	wantVal := int(float64(total) * 0.1)
	if len(prep.Val) != wantVal {
		t.Errorf("val = %d, want %d", len(prep.Val), wantVal)
	}
	// Membership and order are the seed's permutation, validation first —
	// what PR 22's Prepare drew.
	order := rand.New(rand.NewSource(1)).Perm(total)
	for i, s := range append(append([]*gnn.Sample{}, prep.Val...), prep.Train...) {
		if want := p.Points[order[i]].Instance.Name(); s.Name != want {
			t.Fatalf("split position %d holds %s, want %s", i, s.Name, want)
		}
	}
	for _, s := range prep.Train {
		if s.Target < 0 || s.Target > 1 {
			t.Errorf("target %v outside [0,1]", s.Target)
		}
		if s.Feats[0] < 0 || s.Feats[0] > 1 || s.Feats[1] < 0 || s.Feats[1] > 1 {
			t.Errorf("feats %v outside [0,1]", s.Feats)
		}
		if s.G.WScale != prep.WScale {
			t.Error("WScale not propagated")
		}
		if s.App == "" || s.Name == "" {
			t.Error("sample metadata missing")
		}
	}
	// Descale inverts the target transform.
	for _, s := range prep.Val[:min(5, len(prep.Val))] {
		back := prep.DescaleUS(s.Target)
		if math.Abs(math.Log(back)-math.Log(s.RawUS)) > 1e-6 {
			t.Errorf("descale(%v) = %v, want %v", s.Target, back, s.RawUS)
		}
	}
}

func TestPrepareLevelsDiffer(t *testing.T) {
	p := collect(t, hw.Power9())
	raw, err := Prepare(p.Points[:10], PrepConfig{Level: paragraph.LevelRawAST, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Prepare(p.Points[:10], PrepConfig{Level: paragraph.LevelParaGraph, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rawEdges := raw.Train[0].G.NumEdges()
	fullEdges := full.Train[0].G.NumEdges()
	if fullEdges <= rawEdges {
		t.Errorf("ParaGraph edges %d should exceed RawAST edges %d", fullEdges, rawEdges)
	}
}

func TestPrepareEmpty(t *testing.T) {
	if _, err := Prepare(nil, PrepConfig{}); err == nil {
		t.Error("empty Prepare accepted")
	}
}

func TestPrepareDeterministic(t *testing.T) {
	p := collect(t, hw.MI50())
	pts := p.Points[:12]
	p1, err := Prepare(pts, PrepConfig{Level: paragraph.LevelParaGraph, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Prepare(pts, PrepConfig{Level: paragraph.LevelParaGraph, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Train) != len(p2.Train) {
		t.Fatal("split sizes differ")
	}
	for i := range p1.Train {
		if p1.Train[i].Name != p2.Train[i].Name || p1.Train[i].Target != p2.Train[i].Target {
			t.Errorf("sample %d differs", i)
		}
	}
}

// TestSplit holds the one train/validation split to its contract: a
// partition, a function of its seed, max(1, ⌊n/10⌋) validation samples and
// so never an empty side from two samples up — and, drawn as PR 22's Prepare
// drew it (the first nVal of rand.Perm validate, the rest train in Perm
// order), the same membership in the same order, so every checkpoint and
// bench/'s 64/16 subset are trained on the same samples as before.
func TestSplit(t *testing.T) {
	for n := 0; n <= 200; n++ {
		xs := make([]int, n)
		for i := range xs {
			xs[i] = i
		}
		train, val := Split(xs, 1)
		if again, againVal := Split(xs, 1); !slices.Equal(train, again) || !slices.Equal(val, againVal) {
			t.Fatalf("n=%d: the same seed split two ways", n)
		}
		order := rand.New(rand.NewSource(1)).Perm(n)
		nVal := int(float64(n) * 0.1)
		if nVal < 1 {
			nVal = 1
		}
		if n == 0 {
			nVal = 0
		}
		if !slices.Equal(val, order[:nVal]) || !slices.Equal(train, order[nVal:]) {
			t.Fatalf("n=%d: train %v val %v, PR 22 drew train %v val %v", n, train, val, order[nVal:], order[:nVal])
		}
		if n >= 2 && (len(train) == 0 || len(val) == 0) {
			t.Fatalf("n=%d: %d train, %d val", n, len(train), len(val))
		}
	}
	xs := make([]int, 20)
	for i := range xs {
		xs[i] = i
	}
	train, val := Split(xs, 1)
	if !slices.Equal(val, []int{12, 4}) || !slices.Equal(train[:4], []int{2, 13, 10, 0}) {
		t.Errorf("seed 1 over 20: val %v, train %v…", val, train[:4])
	}
	if other, _ := Split(xs, 2); slices.Equal(train, other) {
		t.Error("seeds 1 and 2 drew the same split")
	}
}

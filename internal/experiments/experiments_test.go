package experiments

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"

	"paragraph/internal/hw"
	"paragraph/internal/metrics"
	"paragraph/internal/paragraph"
)

// tinyRunner shares one Runner across the test file: experiments reuse its
// cached datasets and models exactly as cmd/experiments does.
var tinyRunner = NewRunner(Tiny())

func TestTable1Shape(t *testing.T) {
	rows := Table1()
	if len(rows) != 9 {
		t.Fatalf("applications = %d, want 9", len(rows))
	}
	total := 0
	for _, r := range rows {
		total += r.NumKernels
	}
	if total != 17 {
		t.Errorf("kernels = %d, want 17", total)
	}
	var buf bytes.Buffer
	RenderTable1(&buf)
	for _, want := range []string{"Particle Filter", "Linear Algebra", "Total"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	rows, err := tinyRunner.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("platforms = %d, want 4", len(rows))
	}
	for _, r := range rows {
		if r.NumPoints == 0 {
			t.Errorf("%s: no points", r.Platform)
		}
		if r.MaxRuntimeMS <= r.MinRuntimeMS {
			t.Errorf("%s: degenerate range", r.Platform)
		}
		if r.StdDevMS <= 0 {
			t.Errorf("%s: no dispersion", r.Platform)
		}
	}
	var buf bytes.Buffer
	if err := tinyRunner.RenderTable2(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Summit") || !strings.Contains(buf.String(), "Corona") {
		t.Error("render missing cluster names")
	}
}

func TestTable3AndFigure5(t *testing.T) {
	rows, err := tinyRunner.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.RMSEms <= 0 || math.IsNaN(r.RMSEms) {
			t.Errorf("%s: RMSE = %v", r.Platform, r.RMSEms)
		}
		// Tiny scale is noisy; still, normalized RMSE must be a sane
		// fraction of the range.
		if r.NormRMSE <= 0 || r.NormRMSE > 0.5 {
			t.Errorf("%s: NormRMSE = %v outside (0, 0.5]", r.Platform, r.NormRMSE)
		}
	}
	series, err := tinyRunner.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range series {
		if len(s.ValRMSE) != tinyRunner.Scale.Epochs {
			t.Errorf("%s: %d epochs, want %d", s.Platform, len(s.ValRMSE), tinyRunner.Scale.Epochs)
		}
		// Training must improve on the first epoch.
		if s.ValRMSE[len(s.ValRMSE)-1] >= s.ValRMSE[0]*1.5 {
			t.Errorf("%s: training diverged: %v", s.Platform, s.ValRMSE)
		}
	}
}

func TestFigure4BinsAreSmallError(t *testing.T) {
	series, err := tinyRunner.Figure4(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		// At tiny scale the sparse top bins (single huge-runtime points)
		// are noisy; the paper's <10% per-bin claim is a full-scale
		// property. Here we assert the structural shape: bins exist, the
		// most populated bin has modest error, and errors are weighted-mean
		// bounded.
		best := metricsBinMax(s.Bins)
		if best.Count == 0 {
			t.Errorf("%s: no occupied bins", s.Platform)
			continue
		}
		if best.MeanErr > 0.4 {
			t.Errorf("%s: most-populated bin %s err %v too high", s.Platform, best.Label, best.MeanErr)
		}
		var wsum, n float64
		for _, b := range s.Bins {
			wsum += b.MeanErr * float64(b.Count)
			n += float64(b.Count)
		}
		if n > 0 && wsum/n > 0.5 {
			t.Errorf("%s: weighted mean rel err %v too high", s.Platform, wsum/n)
		}
	}
}

// metricsBinMax returns the bin with the largest population.
func metricsBinMax(bins []metrics.Bin) metrics.Bin {
	var best metrics.Bin
	for _, b := range bins {
		if b.Count > best.Count {
			best = b
		}
	}
	return best
}

func TestFigure6CoversApplications(t *testing.T) {
	rows, err := tinyRunner.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	apps := map[string]bool{}
	for _, r := range rows {
		apps[r.Application] = true
		if r.ErrorRate < 0 {
			t.Errorf("negative error rate: %+v", r)
		}
	}
	// The tiny validation split cannot cover all nine apps on every
	// platform, but several must appear.
	if len(apps) < 3 {
		t.Errorf("only %d applications in Figure 6 at tiny scale", len(apps))
	}
}

func TestRenderAllTinyPieces(t *testing.T) {
	var buf bytes.Buffer
	if err := tinyRunner.RenderTable3(&buf); err != nil {
		t.Fatal(err)
	}
	if err := tinyRunner.RenderFigure4(&buf); err != nil {
		t.Fatal(err)
	}
	if err := tinyRunner.RenderFigure5(&buf); err != nil {
		t.Fatal(err)
	}
	if err := tinyRunner.RenderFigure6(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table III", "Figure 4", "Figure 5", "Figure 6"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in render", want)
		}
	}
}

func TestCompoffRequiresGPU(t *testing.T) {
	if _, err := tinyRunner.Compoff(hw.Power9()); err == nil {
		t.Error("COMPOFF on CPU accepted; paper restricts it to GPUs")
	}
}

func TestRunnerCaching(t *testing.T) {
	p1, err := tinyRunner.Platform(hw.V100())
	if err != nil {
		t.Fatal(err)
	}
	p2, err := tinyRunner.Platform(hw.V100())
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("platform not cached")
	}
	t1, err := tinyRunner.Trained(hw.V100(), paragraph.LevelParaGraph)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := tinyRunner.Trained(hw.V100(), paragraph.LevelParaGraph)
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Error("model not cached")
	}
}

// TestTrainedOnceUnderConcurrency: two callers of one key at once share one
// training run, and so one *Trained.
func TestTrainedOnceUnderConcurrency(t *testing.T) {
	r := NewRunner(Tiny())
	var got [2]*Trained
	var errs [2]error
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = r.Trained(hw.V100(), paragraph.LevelParaGraph)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got[0] != got[1] {
		t.Error("concurrent callers of one key trained twice")
	}
}

func TestTable4AndFigure7Ablation(t *testing.T) {
	rows, err := tinyRunner.Table4()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		for name, v := range map[string]float64{
			"raw": r.RawAST, "aug": r.AugAST, "para": r.ParaGraph,
		} {
			if v <= 0 || math.IsNaN(v) {
				t.Errorf("%s %s RMSE = %v", r.Platform, name, v)
			}
		}
	}
	series, err := tinyRunner.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("figure 7 series = %d", len(series))
	}
	names := []string{"Raw AST", "Augmented AST", "ParaGraph"}
	for i, s := range series {
		if s.Level != names[i] {
			t.Errorf("series %d level = %q, want %q", i, s.Level, names[i])
		}
		if len(s.ValRMSE) != tinyRunner.Scale.Epochs {
			t.Errorf("%s: %d epochs", s.Level, len(s.ValRMSE))
		}
	}
}

func TestFigure8And9Comparison(t *testing.T) {
	res, err := tinyRunner.Figure8()
	if err != nil {
		t.Fatal(err)
	}
	if res.N == 0 {
		t.Fatal("no comparison points")
	}
	if res.ParaGraphMeanErr < 0 || res.CompoffMeanErr < 0 {
		t.Errorf("negative errors: %+v", res)
	}
	if res.WinFraction < 0 || res.WinFraction > 1 {
		t.Errorf("win fraction = %v", res.WinFraction)
	}
	f9, err := tinyRunner.Figure9(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(f9.Points) == 0 || len(f9.Points) > 5 {
		t.Errorf("points = %d", len(f9.Points))
	}
	// Both models should correlate positively with actual runtimes even at
	// tiny scale.
	if f9.ParaGraphPearson <= 0 {
		t.Errorf("ParaGraph correlation = %v", f9.ParaGraphPearson)
	}
	var buf bytes.Buffer
	if err := tinyRunner.RenderTable4(&buf); err != nil {
		t.Fatal(err)
	}
	if err := tinyRunner.RenderFigure7(&buf); err != nil {
		t.Fatal(err)
	}
	if err := tinyRunner.RenderFigure8(&buf); err != nil {
		t.Fatal(err)
	}
	if err := tinyRunner.RenderFigure9(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table IV", "Figure 7", "Figure 8", "Figure 9"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestScalesAreOrdered(t *testing.T) {
	tiny, small, full := Tiny(), Small(), Full()
	if tiny.Epochs >= small.Epochs || small.Epochs >= full.Epochs {
		t.Error("epochs not increasing across scales")
	}
	if tiny.MaxPerPlatform >= small.MaxPerPlatform {
		t.Error("dataset sizes not increasing")
	}
	if full.MaxPerPlatform != 0 {
		t.Error("full scale should not subsample")
	}
	for _, s := range []Scale{tiny, small, full} {
		if s.Name == "" || s.Hidden <= 0 || s.BatchSize <= 0 || s.LR <= 0 {
			t.Errorf("scale %+v incomplete", s)
		}
	}
}

func TestParseScale(t *testing.T) {
	for _, name := range []string{"tiny", "small", "full", "TINY"} {
		s, err := ParseScale(name)
		if err != nil {
			t.Errorf("ParseScale(%q): %v", name, err)
		}
		if s.Name != strings.ToLower(name) {
			t.Errorf("ParseScale(%q).Name = %q", name, s.Name)
		}
	}
	if _, err := ParseScale("enormous"); err == nil {
		t.Error("unknown scale accepted")
	}
}

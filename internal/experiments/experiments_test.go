package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"paragraph/internal/hw"
	"paragraph/internal/paragraph"
)

// tinyRunner shares one Runner across the test file: experiments reuse its
// cached datasets and models exactly as cmd/experiments does.
var tinyRunner = NewRunner(Tiny())

var update = flag.Bool("update", false, "rewrite testdata/rows_tiny.golden from this build")

// rowsOf returns one artifact's rows at tiny scale.
func rowsOf(t *testing.T, kind string, number int) []Row {
	t.Helper()
	rows, err := tinyRunner.Rows(kind, number)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// index maps each row, its value zeroed, to its value.
func index(rows []Row) map[Row]float64 {
	m := map[Row]float64{}
	for _, row := range rows {
		v := row.Value
		row.Value = 0
		m[row] = v
	}
	return m
}

// render prints artifacts at tiny scale, each named "table N" or "figure N".
func render(t *testing.T, names ...string) string {
	t.Helper()
	var buf bytes.Buffer
	for _, name := range names {
		var kind string
		var number int
		if _, err := fmt.Sscanf(name, "%s %d", &kind, &number); err != nil {
			t.Fatal(err)
		}
		if err := tinyRunner.Render(&buf, kind, number); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

// platformRuns returns rows' runs of one platform each, in order.
func platformRuns(rows []Row) [][]Row {
	var out [][]Row
	runs(rows, byPlatform, func(p []Row) { out = append(out, p) })
	return out
}

func TestTable1Shape(t *testing.T) {
	rows := rowsOf(t, "table", 1)
	if len(rows) != 9 {
		t.Fatalf("applications = %d, want 9", len(rows))
	}
	total := 0.0
	for _, r := range rows {
		total += r.Value
	}
	if total != 17 {
		t.Errorf("kernels = %v, want 17", total)
	}
	out := render(t, "table 1")
	for _, want := range []string{"Particle Filter", "Linear Algebra", "Total"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
	if _, err := tinyRunner.Rows("table", 5); err == nil {
		t.Error("Rows of a table the paper lacks accepted")
	}
}

func TestTable2Shape(t *testing.T) {
	rows := rowsOf(t, "table", 2)
	if n := len(platformRuns(rows)); n != 4 {
		t.Fatalf("platforms = %d, want 4", n)
	}
	v := index(rows)
	for _, m := range hw.All() {
		row := Row{Platform: m.Name, Group: m.Cluster}
		if v[row.with("points", 0)] <= 0 {
			t.Errorf("%s: no points", m.Name)
		}
		if v[row.with("max_ms", 0)] <= v[row.with("min_ms", 0)] {
			t.Errorf("%s: degenerate range", m.Name)
		}
		if v[row.with("std_ms", 0)] <= 0 {
			t.Errorf("%s: no dispersion", m.Name)
		}
	}
	out := render(t, "table 2")
	if !strings.Contains(out, "Summit") || !strings.Contains(out, "Corona") {
		t.Error("render missing cluster names")
	}
}

func TestTable3AndFigure5(t *testing.T) {
	rows := rowsOf(t, "table", 3)
	if n := len(platformRuns(rows)); n != 4 {
		t.Fatalf("platforms = %d", n)
	}
	v := index(rows)
	for _, m := range hw.All() {
		row := Row{Platform: m.Name, Arm: pgArm}
		if rmse := v[row.with("rmse_ms", 0)]; rmse <= 0 || math.IsNaN(rmse) {
			t.Errorf("%s: RMSE = %v", m.Name, rmse)
		}
		// Tiny scale is noisy; still, normalized RMSE must be a sane
		// fraction of the range.
		if norm := v[row.with("norm_rmse", 0)]; norm <= 0 || norm > 0.5 {
			t.Errorf("%s: NormRMSE = %v outside (0, 0.5]", m.Name, norm)
		}
	}
	curves := platformRuns(rowsOf(t, "figure", 5))
	if len(curves) != 4 {
		t.Fatalf("figure 5 curves = %d", len(curves))
	}
	for _, c := range curves {
		if len(c) != tinyRunner.Scale.Epochs {
			t.Errorf("%s: %d epochs, want %d", c[0].Platform, len(c), tinyRunner.Scale.Epochs)
		}
		// Training must improve on the first epoch.
		if c[len(c)-1].Value >= c[0].Value*1.5 {
			t.Errorf("%s: training diverged: %v", c[0].Platform, c)
		}
	}
}

func TestFigure4BinsAreSmallError(t *testing.T) {
	series := platformRuns(rowsOf(t, "figure", 4))
	if len(series) != 4 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		// At tiny scale the sparse top bins (single huge-runtime points)
		// are noisy; the paper's <10% per-bin claim is a full-scale
		// property. Here we assert the structural shape: bins exist, the
		// most populated bin has modest error, and errors are weighted-mean
		// bounded.
		var best []Row
		var wsum, n float64
		runs(s, byGroup, func(b []Row) {
			if b[0].Metric != "n" || b[1].Metric != "mean_rel_err" {
				t.Fatalf("bin rows %v", b)
			}
			if best == nil || b[0].Value > best[0].Value {
				best = b
			}
			wsum += b[1].Value * b[0].Value
			n += b[0].Value
		})
		if best == nil || best[0].Value == 0 {
			t.Errorf("%s: no occupied bins", s[0].Platform)
			continue
		}
		if best[1].Value > 0.4 {
			t.Errorf("%s: most-populated bin %s err %v too high", s[0].Platform, best[0].Group, best[1].Value)
		}
		if n > 0 && wsum/n > 0.5 {
			t.Errorf("%s: weighted mean rel err %v too high", s[0].Platform, wsum/n)
		}
	}
}

func TestFigure6CoversApplications(t *testing.T) {
	apps := map[string]bool{}
	for _, r := range rowsOf(t, "figure", 6) {
		apps[r.Group] = true
		if r.Value < 0 {
			t.Errorf("negative %s: %+v", r.Metric, r)
		}
	}
	// The tiny validation split cannot cover all nine apps on every
	// platform, but several must appear.
	if len(apps) < 3 {
		t.Errorf("only %d applications in Figure 6 at tiny scale", len(apps))
	}
}

func TestRenderAllTinyPieces(t *testing.T) {
	out := render(t, "table 3", "figure 4", "figure 5", "figure 6")
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
	names := []string{"Raw AST", "Augmented AST", "ParaGraph"}
	platforms := platformRuns(rowsOf(t, "table", 4))
	if len(platforms) != 4 {
		t.Fatalf("platforms = %d", len(platforms))
	}
	for _, p := range platforms {
		if len(p) != len(names) {
			t.Fatalf("%s: %d arms, want %d", p[0].Platform, len(p), len(names))
		}
		for i, r := range p {
			if r.Arm != names[i] {
				t.Errorf("%s arm %d = %q, want %q", r.Platform, i, r.Arm, names[i])
			}
			if r.Value <= 0 || math.IsNaN(r.Value) {
				t.Errorf("%s %s RMSE = %v", r.Platform, r.Arm, r.Value)
			}
		}
	}
	var series [][]Row
	runs(rowsOf(t, "figure", 7), func(r Row) string { return r.Arm }, func(s []Row) { series = append(series, s) })
	if len(series) != 3 {
		t.Fatalf("figure 7 series = %d", len(series))
	}
	for i, s := range series {
		if s[0].Arm != names[i] {
			t.Errorf("series %d level = %q, want %q", i, s[0].Arm, names[i])
		}
		if len(s) != tinyRunner.Scale.Epochs {
			t.Errorf("%s: %d epochs", s[0].Arm, len(s))
		}
	}
}

func TestFigure8And9Comparison(t *testing.T) {
	v := index(rowsOf(t, "figure", 8))
	platform := hw.V100().Name
	if v[Row{Platform: platform, Metric: "n"}] == 0 {
		t.Fatal("no comparison points")
	}
	pg, co := Row{Platform: platform, Arm: pgArm}, Row{Platform: platform, Arm: compoffArm}
	if v[pg.with("mean_rel_err", 0)] < 0 || v[co.with("mean_rel_err", 0)] < 0 {
		t.Errorf("negative errors: %v", v)
	}
	if w := v[pg.with("win_share", 0)]; w < 0 || w > 1 {
		t.Errorf("win share = %v", w)
	}
	f9 := rowsOf(t, "figure", 9)
	points := 0
	runs(f9[2:], byGroup, func([]Row) { points++ })
	if points == 0 || points > 12 {
		t.Errorf("points = %d", points)
	}
	// Both models should correlate positively with actual runtimes even at
	// tiny scale.
	if r := index(f9)[pg.with("log_pearson", 0)]; r <= 0 {
		t.Errorf("ParaGraph correlation = %v", r)
	}
	out := render(t, "table 4", "figure 7", "figure 8", "figure 9")
	for _, want := range []string{"Table IV", "Figure 7", "Figure 8", "Figure 9"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// TestRowsTinyGolden pins every row of every artifact at tiny scale, each
// value at full precision, against testdata/rows_tiny.golden: unlike the
// printed tables, it sees a change of one ulp in any number. A change meant
// to move predictions rewrites the file with
//
//	go test ./internal/experiments -run RowsTinyGolden -update
func TestRowsTinyGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("trains every tiny model in -short mode")
	}
	if runtime.GOARCH != "amd64" {
		// As cmd/experiments' stdout goldens: gc fuses a*b+c into one
		// rounding on other architectures, and math.Exp differs there.
		t.Skipf("golden holds amd64's bits; %s rounds differently", runtime.GOARCH)
	}
	var b strings.Builder
	for _, a := range artifacts {
		for _, r := range rowsOf(t, a.kind, a.number) {
			fmt.Fprintf(&b, "%s %d\t%s\t%s\t%s\t%s\t%s\n", a.kind, a.number,
				r.Platform, r.Arm, r.Group, r.Metric, strconv.FormatFloat(r.Value, 'g', -1, 64))
		}
	}
	path := filepath.Join("testdata", "rows_tiny.golden")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(b.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("%d rows, golden has %d", len(gotLines)-1, len(wantLines)-1)
	}
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Errorf("row %d: got %q, golden %q", i+1, gotLines[i], wantLines[i])
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

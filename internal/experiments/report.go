package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"

	"paragraph/internal/apps"
	"paragraph/internal/hw"
	"paragraph/internal/metrics"
	"paragraph/internal/paragraph"
)

// levels are the ablation treatments of Table IV, in paper order.
var levels = []paragraph.Level{
	paragraph.LevelRawAST,
	paragraph.LevelAugmentedAST,
	paragraph.LevelParaGraph,
}

// Table1Row is one row of Table I (benchmark applications).
type Table1Row struct {
	Application string
	NumKernels  int
	Domain      string
}

// Table1 reproduces Table I: the benchmark application inventory.
func Table1() []Table1Row {
	var rows []Table1Row
	for _, a := range apps.Apps() {
		rows = append(rows, Table1Row{Application: a.Name, NumKernels: a.NumKernels, Domain: a.Domain})
	}
	return rows
}

// RenderTable1 prints Table I.
func RenderTable1(w io.Writer) {
	fmt.Fprintf(w, "Table I: Benchmark Applications\n")
	fmt.Fprintf(w, "%-32s %8s  %s\n", "Application", "Kernels", "Domain")
	total := 0
	for _, r := range Table1() {
		fmt.Fprintf(w, "%-32s %8d  %s\n", r.Application, r.NumKernels, r.Domain)
		total += r.NumKernels
	}
	fmt.Fprintf(w, "%-32s %8d\n", "Total", total)
}

// Table2Row is one row of Table II (data points per accelerator).
type Table2Row struct {
	Platform     string
	Cluster      string
	NumPoints    int
	MinRuntimeMS float64
	MaxRuntimeMS float64
	StdDevMS     float64
	LostToFaults int
}

// Table2 reproduces Table II: per-platform dataset statistics.
func (r *Runner) Table2() ([]Table2Row, error) {
	var rows []Table2Row
	for _, m := range hw.All() {
		p, err := r.Platform(m)
		if err != nil {
			return nil, err
		}
		s := p.Stats()
		rows = append(rows, Table2Row{
			Platform:     m.Name,
			Cluster:      m.Cluster,
			NumPoints:    s.NumPoints,
			MinRuntimeMS: s.MinRuntimeMS,
			MaxRuntimeMS: s.MaxRuntimeMS,
			StdDevMS:     s.StdDevMS,
			LostToFaults: p.Failed,
		})
	}
	return rows, nil
}

// RenderTable2 prints Table II.
func (r *Runner) RenderTable2(w io.Writer) error {
	rows, err := r.Table2()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Table II: Data points collected on each accelerator (simulated substrate)\n")
	fmt.Fprintf(w, "%-22s %-8s %8s  %-26s %12s %6s\n",
		"Platform", "Cluster", "#Points", "Runtime Range (ms)", "Std. Dev.", "Lost")
	for _, row := range rows {
		fmt.Fprintf(w, "%-22s %-8s %8d  [%.3g - %.6g] %12.4g %6d\n",
			row.Platform, row.Cluster, row.NumPoints,
			row.MinRuntimeMS, row.MaxRuntimeMS, row.StdDevMS, row.LostToFaults)
	}
	return nil
}

// Table3Row is one row of Table III (runtime-prediction error).
type Table3Row struct {
	Platform string
	RMSEms   float64
	NormRMSE float64
}

// Table3 reproduces Table III: validation RMSE and normalized RMSE of the
// ParaGraph model per platform.
func (r *Runner) Table3() ([]Table3Row, error) {
	var rows []Table3Row
	for _, m := range hw.All() {
		tr, err := r.Trained(m, paragraph.LevelParaGraph)
		if err != nil {
			return nil, err
		}
		actual, pred := tr.ValActualPredMS()
		rows = append(rows, Table3Row{
			Platform: m.Name,
			RMSEms:   metrics.RMSE(pred, actual),
			NormRMSE: metrics.NormRMSE(pred, actual),
		})
	}
	return rows, nil
}

// RenderTable3 prints Table III.
func (r *Runner) RenderTable3(w io.Writer) error {
	rows, err := r.Table3()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Table III: Experimental results (validation split)\n")
	fmt.Fprintf(w, "%-22s %12s %12s\n", "Platform", "RMSE (ms)", "Norm-RMSE")
	for _, row := range rows {
		fmt.Fprintf(w, "%-22s %12.4g %12.2e\n", row.Platform, row.RMSEms, row.NormRMSE)
	}
	return nil
}

// Table4Row is one row of Table IV (ablation RMSE in ms).
type Table4Row struct {
	Platform  string
	RawAST    float64
	AugAST    float64
	ParaGraph float64
}

// Table4 reproduces Table IV: the representation ablation. The expected
// shape: ParaGraph < Augmented AST < Raw AST on every platform.
func (r *Runner) Table4() ([]Table4Row, error) {
	var rows []Table4Row
	for _, m := range hw.All() {
		var rmse [3]float64
		for li, level := range levels {
			tr, err := r.Trained(m, level)
			if err != nil {
				return nil, err
			}
			actual, pred := tr.ValActualPredMS()
			rmse[li] = metrics.RMSE(pred, actual)
		}
		rows = append(rows, Table4Row{
			Platform:  m.Name,
			RawAST:    rmse[0],
			AugAST:    rmse[1],
			ParaGraph: rmse[2],
		})
	}
	return rows, nil
}

// RenderTable4 prints Table IV.
func (r *Runner) RenderTable4(w io.Writer) error {
	rows, err := r.Table4()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Table IV: RMSE (ms) of training with and without edges/weights (ablation)\n")
	fmt.Fprintf(w, "%-22s %12s %12s %12s\n", "Platform", "Raw AST", "Aug AST", "ParaGraph")
	for _, row := range rows {
		fmt.Fprintf(w, "%-22s %12.4g %12.4g %12.4g\n", row.Platform, row.RawAST, row.AugAST, row.ParaGraph)
	}
	return nil
}

// Figure4Series is the binned relative error of one platform.
type Figure4Series struct {
	Platform string
	Bins     []metrics.Bin
}

// Figure4 reproduces Figure 4: relative error per runtime bin. The paper
// bins by 10-second ranges over runtimes reaching hundreds of seconds; the
// simulated substrate spans a smaller absolute range, so bins are
// range/numBins wide — same layout, same expected shape (small error in
// every occupied bin).
func (r *Runner) Figure4(numBins int) ([]Figure4Series, error) {
	if numBins <= 0 {
		numBins = 10
	}
	var out []Figure4Series
	for _, m := range hw.All() {
		tr, err := r.Trained(m, paragraph.LevelParaGraph)
		if err != nil {
			return nil, err
		}
		actual, pred := tr.ValActualPredMS()
		width := metrics.Range(actual) / float64(numBins)
		if width <= 0 {
			width = 1
		}
		out = append(out, Figure4Series{
			Platform: m.Name,
			Bins:     metrics.BinnedRelError(pred, actual, width, numBins),
		})
	}
	return out, nil
}

// RenderFigure4 prints Figure 4's data.
func (r *Runner) RenderFigure4(w io.Writer) error {
	series, err := r.Figure4(10)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 4: Prediction relative error per runtime bin (bin unit: ms)\n")
	for _, s := range series {
		fmt.Fprintf(w, "%s\n", s.Platform)
		for _, b := range s.Bins {
			if b.Count == 0 {
				continue
			}
			fmt.Fprintf(w, "  bin %-18s n=%-5d rel.err=%.4f\n", b.Label, b.Count, b.MeanErr)
		}
	}
	return nil
}

// Figure5Series is one platform's per-epoch validation curve.
type Figure5Series struct {
	Platform string
	ValRMSE  []float64 // normalized (scaled-target space) per epoch
}

// Figure5 reproduces Figure 5: normalized validation RMSE per epoch for all
// four accelerators. The curves are in the MinMax-scaled target space, the
// same normalization the paper plots.
func (r *Runner) Figure5() ([]Figure5Series, error) {
	var out []Figure5Series
	for _, m := range hw.All() {
		tr, err := r.Trained(m, paragraph.LevelParaGraph)
		if err != nil {
			return nil, err
		}
		out = append(out, Figure5Series{Platform: m.Name, ValRMSE: tr.Hist.ValRMSE})
	}
	return out, nil
}

// RenderFigure5 prints Figure 5's data.
func (r *Runner) RenderFigure5(w io.Writer) error {
	series, err := r.Figure5()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 5: Normalized RMSE per epoch (validation)\n")
	for _, s := range series {
		fmt.Fprintf(w, "%s:", s.Platform)
		for _, v := range s.ValRMSE {
			fmt.Fprintf(w, " %.4f", v)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Figure6Row is one (application, platform) error-rate cell.
type Figure6Row struct {
	Application string
	Platform    string
	Count       int
	ErrorRate   float64
}

// Figure6 reproduces Figure 6: average relative error per application.
func (r *Runner) Figure6() ([]Figure6Row, error) {
	var out []Figure6Row
	for _, m := range hw.All() {
		tr, err := r.Trained(m, paragraph.LevelParaGraph)
		if err != nil {
			return nil, err
		}
		actual, pred := tr.ValActualPredMS()
		for _, g := range metrics.GroupedRelError(pred, actual, tr.ValApps()) {
			out = append(out, Figure6Row{
				Application: g.Group,
				Platform:    m.Name,
				Count:       g.Count,
				ErrorRate:   g.MeanErr,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Application != out[j].Application {
			return out[i].Application < out[j].Application
		}
		return out[i].Platform < out[j].Platform
	})
	return out, nil
}

// RenderFigure6 prints Figure 6's data.
func (r *Runner) RenderFigure6(w io.Writer) error {
	rows, err := r.Figure6()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 6: Error rate per application\n")
	fmt.Fprintf(w, "%-32s %-22s %6s %10s\n", "Application", "Platform", "n", "err.rate")
	for _, row := range rows {
		fmt.Fprintf(w, "%-32s %-22s %6d %10.4f\n", row.Application, row.Platform, row.Count, row.ErrorRate)
	}
	return nil
}

// Figure7Series is one ablation level's training curve on MI50.
type Figure7Series struct {
	Level   string
	ValRMSE []float64
}

// Figure7 reproduces Figure 7: validation RMSE per epoch for Raw AST,
// Augmented AST and ParaGraph on the MI50 data. Expected shape: ParaGraph
// converges below Augmented AST below Raw AST.
func (r *Runner) Figure7() ([]Figure7Series, error) {
	var out []Figure7Series
	for _, level := range levels {
		tr, err := r.Trained(hw.MI50(), level)
		if err != nil {
			return nil, err
		}
		out = append(out, Figure7Series{Level: level.String(), ValRMSE: tr.Hist.ValRMSE})
	}
	return out, nil
}

// RenderFigure7 prints Figure 7's data.
func (r *Runner) RenderFigure7(w io.Writer) error {
	series, err := r.Figure7()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 7: Validation RMSE during training on MI50 (ablation)\n")
	for _, s := range series {
		fmt.Fprintf(w, "%-14s:", s.Level)
		for _, v := range s.ValRMSE {
			fmt.Fprintf(w, " %.4f", v)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Figure8Result compares per-point errors of ParaGraph and COMPOFF on V100.
type Figure8Result struct {
	ParaGraphMeanErr float64
	CompoffMeanErr   float64
	// WinFraction is the fraction of validation points where ParaGraph's
	// absolute error is smaller.
	WinFraction float64
	// SmallKernelCompoffErr and SmallKernelParaGraphErr summarize the
	// bottom runtime quartile, where the paper observes COMPOFF degrading.
	SmallKernelParaGraphErr float64
	SmallKernelCompoffErr   float64
	N                       int
}

// Figure8 reproduces Figure 8: per-data-point prediction error of ParaGraph
// vs COMPOFF on the NVIDIA V100.
func (r *Runner) Figure8() (Figure8Result, error) {
	tr, err := r.Trained(hw.V100(), paragraph.LevelParaGraph)
	if err != nil {
		return Figure8Result{}, err
	}
	tc, err := r.Compoff(hw.V100())
	if err != nil {
		return Figure8Result{}, err
	}
	actual, pgPred := tr.ValActualPredMS()
	cActual, cPred := tc.valActualPredMS()
	if len(actual) != len(cActual) {
		return Figure8Result{}, fmt.Errorf("experiments: val split mismatch %d vs %d", len(actual), len(cActual))
	}
	pgErr := metrics.RelErrors(pgPred, actual)
	cErr := metrics.RelErrors(cPred, cActual)

	var res Figure8Result
	res.N = len(actual)
	res.ParaGraphMeanErr = metrics.Mean(pgErr)
	res.CompoffMeanErr = metrics.Mean(cErr)
	wins := 0
	for i := range pgErr {
		if pgErr[i] < cErr[i] {
			wins++
		}
	}
	res.WinFraction = float64(wins) / math.Max(float64(len(pgErr)), 1)

	// Bottom-quartile (small runtime) comparison.
	idx := make([]int, len(actual))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return actual[idx[a]] < actual[idx[b]] })
	q := len(idx) / 4
	if q > 0 {
		var pe, ce float64
		for _, i := range idx[:q] {
			pe += pgErr[i]
			ce += cErr[i]
		}
		res.SmallKernelParaGraphErr = pe / float64(q)
		res.SmallKernelCompoffErr = ce / float64(q)
	}
	return res, nil
}

// RenderFigure8 prints Figure 8's comparison.
func (r *Runner) RenderFigure8(w io.Writer) error {
	res, err := r.Figure8()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 8: ParaGraph vs COMPOFF per-point error on NVIDIA V100 (n=%d)\n", res.N)
	fmt.Fprintf(w, "  mean rel. error: ParaGraph %.4f, COMPOFF %.4f\n", res.ParaGraphMeanErr, res.CompoffMeanErr)
	fmt.Fprintf(w, "  ParaGraph wins on %.1f%% of points\n", 100*res.WinFraction)
	fmt.Fprintf(w, "  small kernels (bottom runtime quartile): ParaGraph %.4f, COMPOFF %.4f\n",
		res.SmallKernelParaGraphErr, res.SmallKernelCompoffErr)
	return nil
}

// Figure9Result is the predicted-vs-actual correlation comparison.
type Figure9Result struct {
	ParaGraphPearson float64
	CompoffPearson   float64
	// Sample scatter points (actualMS, paragraphMS, compoffMS), capped.
	Points [][3]float64
}

// Figure9 reproduces Figure 9: predicted vs actual runtimes on V100 for
// both models. Correlations are computed in log space, matching the
// figure's log-log axes.
func (r *Runner) Figure9(maxPoints int) (Figure9Result, error) {
	tr, err := r.Trained(hw.V100(), paragraph.LevelParaGraph)
	if err != nil {
		return Figure9Result{}, err
	}
	tc, err := r.Compoff(hw.V100())
	if err != nil {
		return Figure9Result{}, err
	}
	actual, pgPred := tr.ValActualPredMS()
	_, cPred := tc.valActualPredMS()

	res := Figure9Result{
		ParaGraphPearson: metrics.LogPearson(pgPred, actual),
		CompoffPearson:   metrics.LogPearson(cPred, actual),
	}
	n := len(actual)
	if maxPoints > 0 && n > maxPoints {
		n = maxPoints
	}
	for i := 0; i < n; i++ {
		res.Points = append(res.Points, [3]float64{actual[i], pgPred[i], cPred[i]})
	}
	return res, nil
}

// RenderFigure9 prints Figure 9's data.
func (r *Runner) RenderFigure9(w io.Writer) error {
	res, err := r.Figure9(12)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 9: Predicted vs actual on NVIDIA V100 (log-space Pearson)\n")
	fmt.Fprintf(w, "  ParaGraph r = %.4f, COMPOFF r = %.4f\n", res.ParaGraphPearson, res.CompoffPearson)
	fmt.Fprintf(w, "  %-14s %-14s %-14s\n", "actual(ms)", "paragraph(ms)", "compoff(ms)")
	for _, p := range res.Points {
		fmt.Fprintf(w, "  %-14.5g %-14.5g %-14.5g\n", p[0], p[1], p[2])
	}
	return nil
}

// artifacts is every table and figure this package reproduces, in paper
// order: what -table N and -figure N select from and what RunAll walks.
var artifacts = []struct {
	kind   string // "table" or "figure"
	number int
	render func(r *Runner, w io.Writer) error
}{
	{"table", 1, func(_ *Runner, w io.Writer) error { RenderTable1(w); return nil }},
	{"table", 2, (*Runner).RenderTable2},
	{"table", 3, (*Runner).RenderTable3},
	{"table", 4, (*Runner).RenderTable4},
	{"figure", 4, (*Runner).RenderFigure4},
	{"figure", 5, (*Runner).RenderFigure5},
	{"figure", 6, (*Runner).RenderFigure6},
	{"figure", 7, (*Runner).RenderFigure7},
	{"figure", 8, (*Runner).RenderFigure8},
	{"figure", 9, (*Runner).RenderFigure9},
}

// Render prints one artifact: kind is "table" or "figure", number its
// number in the paper.
func (r *Runner) Render(w io.Writer, kind string, number int) error {
	for _, a := range artifacts {
		if a.kind == kind && a.number == number {
			return a.render(r, w)
		}
	}
	return fmt.Errorf("no %s %d in the paper's evaluation", kind, number)
}

// RunAll renders every table and figure to w.
func (r *Runner) RunAll(w io.Writer) error {
	for _, a := range artifacts {
		if err := a.render(r, w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

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

// paraGraph is the representation the paper proposes, alone.
var paraGraph = []paragraph.Level{paragraph.LevelParaGraph}

// The arms of Figures 8 and 9: the ParaGraph model and the COMPOFF baseline.
var pgArm, compoffArm = paragraph.LevelParaGraph.String(), "COMPOFF"

// Row is one number of the paper's evaluation. Every table and figure is a
// list of rows, and its text is printed from them.
type Row struct {
	Platform string // machine name; empty in Table I
	Arm      string // representation level or COMPOFF; empty when no model made the number
	Group    string // application, cluster, runtime bin, epoch or point; empty where the number has none
	Metric   string
	Value    float64
}

// with returns row carrying metric and its value.
func (row Row) with(metric string, value float64) Row {
	row.Metric, row.Value = metric, value
	return row
}

// eachModel returns fn's rows for the model of each machine in ms at each
// level in ls, machines outermost. fn is handed the model's validation split
// and a row that names the machine and the level.
func (r *Runner) eachModel(ms []hw.Machine, ls []paragraph.Level, fn func(row Row, s split) []Row) ([]Row, error) {
	var rows []Row
	for _, m := range ms {
		for _, level := range ls {
			s, err := r.validation(m, level)
			if err != nil {
				return nil, err
			}
			rows = append(rows, fn(Row{Platform: m.Name, Arm: level.String()}, s)...)
		}
	}
	return rows, nil
}

// versusCompoff returns the V100 validation split's actual runtimes with
// ParaGraph's and COMPOFF's predictions for it (Figures 8 and 9).
func (r *Runner) versusCompoff() (actual, pg, co []float64, err error) {
	s, err := r.validation(hw.V100(), paragraph.LevelParaGraph)
	if err != nil {
		return nil, nil, nil, err
	}
	tc, err := r.Compoff(hw.V100())
	if err != nil {
		return nil, nil, nil, err
	}
	cActual, co := tc.valActualPredMS()
	if len(s.actual) != len(cActual) {
		return nil, nil, nil, fmt.Errorf("experiments: val split mismatch %d vs %d", len(s.actual), len(cActual))
	}
	return s.actual, s.pred, co, nil
}

// table1 reproduces Table I: the benchmark application inventory.
func table1(*Runner) ([]Row, error) {
	var rows []Row
	for _, a := range apps.Apps() {
		rows = append(rows, Row{Group: a.Name, Metric: "kernels", Value: float64(a.NumKernels)})
	}
	return rows, nil
}

func writeTable1(w io.Writer, rows []Row) {
	domain := map[string]string{}
	for _, a := range apps.Apps() {
		domain[a.Name] = a.Domain
	}
	fmt.Fprintf(w, "Table I: Benchmark Applications\n")
	fmt.Fprintf(w, "%-32s %8s  %s\n", "Application", "Kernels", "Domain")
	total := 0
	for _, row := range rows {
		fmt.Fprintf(w, "%-32s %8d  %s\n", row.Group, int(row.Value), domain[row.Group])
		total += int(row.Value)
	}
	fmt.Fprintf(w, "%-32s %8d\n", "Total", total)
}

// table2 reproduces Table II: per-platform dataset statistics.
func table2(r *Runner) ([]Row, error) {
	var rows []Row
	for _, m := range hw.All() {
		p, err := r.Platform(m)
		if err != nil {
			return nil, err
		}
		s, row := p.Stats(), Row{Platform: m.Name, Group: m.Cluster}
		rows = append(rows, row.with("points", float64(s.NumPoints)), row.with("min_ms", s.MinRuntimeMS),
			row.with("max_ms", s.MaxRuntimeMS), row.with("std_ms", s.StdDevMS), row.with("lost", float64(p.Failed)))
	}
	return rows, nil
}

func writeTable2(w io.Writer, rows []Row) {
	fmt.Fprintf(w, "Table II: Data points collected on each accelerator (simulated substrate)\n")
	fmt.Fprintf(w, "%-22s %-8s %8s  %-26s %12s %6s\n",
		"Platform", "Cluster", "#Points", "Runtime Range (ms)", "Std. Dev.", "Lost")
	runs(rows, byPlatform, func(p []Row) {
		fmt.Fprintf(w, "%-22s %-8s %8d  [%.3g - %.6g] %12.4g %6d\n",
			p[0].Platform, p[0].Group, int(p[0].Value), p[1].Value, p[2].Value, p[3].Value, int(p[4].Value))
	})
}

// table3 reproduces Table III: validation RMSE and normalized RMSE of the
// ParaGraph model per platform.
func table3(r *Runner) ([]Row, error) {
	return r.eachModel(hw.All(), paraGraph, func(row Row, s split) []Row {
		return []Row{row.with("rmse_ms", metrics.RMSE(s.pred, s.actual)),
			row.with("norm_rmse", metrics.NormRMSE(s.pred, s.actual))}
	})
}

func writeTable3(w io.Writer, rows []Row) {
	fmt.Fprintf(w, "Table III: Experimental results (validation split)\n")
	fmt.Fprintf(w, "%-22s %12s %12s\n", "Platform", "RMSE (ms)", "Norm-RMSE")
	runs(rows, byPlatform, func(p []Row) {
		fmt.Fprintf(w, "%-22s %12.4g %12.2e\n", p[0].Platform, p[0].Value, p[1].Value)
	})
}

// table4 reproduces Table IV: the representation ablation. The expected
// shape: ParaGraph < Augmented AST < Raw AST on every platform.
func table4(r *Runner) ([]Row, error) {
	return r.eachModel(hw.All(), levels, func(row Row, s split) []Row {
		return []Row{row.with("rmse_ms", metrics.RMSE(s.pred, s.actual))}
	})
}

func writeTable4(w io.Writer, rows []Row) {
	fmt.Fprintf(w, "Table IV: RMSE (ms) of training with and without edges/weights (ablation)\n")
	fmt.Fprintf(w, "%-22s %12s %12s %12s\n", "Platform", "Raw AST", "Aug AST", "ParaGraph")
	runs(rows, byPlatform, func(p []Row) {
		fmt.Fprintf(w, "%-22s %12.4g %12.4g %12.4g\n", p[0].Platform, p[0].Value, p[1].Value, p[2].Value)
	})
}

// figure4 reproduces Figure 4: relative error per occupied runtime bin. The
// paper bins by 10-second ranges over runtimes reaching hundreds of
// seconds; the simulated substrate spans a smaller absolute range, so the
// ten bins are range/10 wide — same layout, same expected shape (small
// error in every occupied bin).
func figure4(r *Runner) ([]Row, error) {
	const numBins = 10
	return r.eachModel(hw.All(), paraGraph, func(row Row, s split) []Row {
		width := metrics.Range(s.actual) / float64(numBins)
		if width <= 0 {
			width = 1
		}
		var rows []Row
		for _, b := range metrics.BinnedRelError(s.pred, s.actual, width, numBins) {
			if b.Count > 0 {
				row.Group = b.Label
				rows = append(rows, row.with("n", float64(b.Count)), row.with("mean_rel_err", b.MeanErr))
			}
		}
		return rows
	})
}

func writeFigure4(w io.Writer, rows []Row) {
	fmt.Fprintf(w, "Figure 4: Prediction relative error per runtime bin (bin unit: ms)\n")
	runs(rows, byPlatform, func(p []Row) {
		fmt.Fprintf(w, "%s\n", p[0].Platform)
		runs(p, byGroup, func(b []Row) {
			fmt.Fprintf(w, "  bin %-18s n=%-5d rel.err=%.4f\n", b[0].Group, int(b[0].Value), b[1].Value)
		})
	})
}

// figure5 reproduces Figure 5: normalized validation RMSE per epoch for all
// four accelerators. The curves are in the MinMax-scaled target space, the
// same normalization the paper plots.
func figure5(r *Runner) ([]Row, error) {
	return r.eachModel(hw.All(), paraGraph, curveRows)
}

// curveRows is a model's validation curve, a row per epoch (Figures 5 and 7).
func curveRows(row Row, s split) []Row {
	var rows []Row
	for i, v := range s.curve {
		row.Group = fmt.Sprintf("epoch %d", i+1)
		rows = append(rows, row.with("val_rmse", v))
	}
	return rows
}

// writeCurves prints a line per run of rows that agree on key: label,
// formatted from the key, then each value.
func writeCurves(w io.Writer, rows []Row, key func(Row) string, label string) {
	runs(rows, key, func(c []Row) {
		fmt.Fprintf(w, label, key(c[0]))
		for _, row := range c {
			fmt.Fprintf(w, " %.4f", row.Value)
		}
		fmt.Fprintln(w)
	})
}

func writeFigure5(w io.Writer, rows []Row) {
	fmt.Fprintf(w, "Figure 5: Normalized RMSE per epoch (validation)\n")
	writeCurves(w, rows, byPlatform, "%s:")
}

// figure6 reproduces Figure 6: average relative error per application,
// ordered by application, then platform.
func figure6(r *Runner) ([]Row, error) {
	rows, err := r.eachModel(hw.All(), paraGraph, func(row Row, s split) []Row {
		var rows []Row
		for _, g := range metrics.GroupedRelError(s.pred, s.actual, s.apps) {
			row.Group = g.Group
			rows = append(rows, row.with("n", float64(g.Count)), row.with("mean_rel_err", g.MeanErr))
		}
		return rows
	})
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Group != rows[j].Group {
			return rows[i].Group < rows[j].Group
		}
		return rows[i].Platform < rows[j].Platform
	})
	return rows, err
}

func writeFigure6(w io.Writer, rows []Row) {
	fmt.Fprintf(w, "Figure 6: Error rate per application\n")
	fmt.Fprintf(w, "%-32s %-22s %6s %10s\n", "Application", "Platform", "n", "err.rate")
	runs(rows, func(row Row) string { return row.Group + "\x00" + row.Platform }, func(c []Row) {
		fmt.Fprintf(w, "%-32s %-22s %6d %10.4f\n", c[0].Group, c[0].Platform, int(c[0].Value), c[1].Value)
	})
}

// figure7 reproduces Figure 7: validation RMSE per epoch for Raw AST,
// Augmented AST and ParaGraph on the MI50 data. Expected shape: ParaGraph
// converges below Augmented AST below Raw AST.
func figure7(r *Runner) ([]Row, error) {
	return r.eachModel([]hw.Machine{hw.MI50()}, levels, curveRows)
}

func writeFigure7(w io.Writer, rows []Row) {
	fmt.Fprintf(w, "Figure 7: Validation RMSE during training on MI50 (ablation)\n")
	writeCurves(w, rows, func(row Row) string { return row.Arm }, "%-14s:")
}

// figure8 reproduces Figure 8: per-data-point prediction error of ParaGraph
// vs COMPOFF on the NVIDIA V100 — the mean, the share of points where
// ParaGraph's error is smaller, and the mean over the bottom runtime
// quartile, where the paper observes COMPOFF degrading.
func figure8(r *Runner) ([]Row, error) {
	actual, pgPred, cPred, err := r.versusCompoff()
	if err != nil {
		return nil, err
	}
	pgErr := metrics.RelErrors(pgPred, actual)
	cErr := metrics.RelErrors(cPred, actual)
	wins := 0
	for i := range pgErr {
		if pgErr[i] < cErr[i] {
			wins++
		}
	}
	idx := make([]int, len(actual))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return actual[idx[a]] < actual[idx[b]] })
	var pe, ce float64
	if q := len(idx) / 4; q > 0 {
		for _, i := range idx[:q] {
			pe += pgErr[i]
			ce += cErr[i]
		}
		pe, ce = pe/float64(q), ce/float64(q)
	}
	v, low := hw.V100().Name, "bottom quartile"
	return []Row{
		{Platform: v, Metric: "n", Value: float64(len(actual))},
		{Platform: v, Arm: pgArm, Metric: "mean_rel_err", Value: metrics.Mean(pgErr)},
		{Platform: v, Arm: compoffArm, Metric: "mean_rel_err", Value: metrics.Mean(cErr)},
		{Platform: v, Arm: pgArm, Metric: "win_share", Value: float64(wins) / math.Max(float64(len(pgErr)), 1)},
		{Platform: v, Arm: pgArm, Group: low, Metric: "mean_rel_err", Value: pe},
		{Platform: v, Arm: compoffArm, Group: low, Metric: "mean_rel_err", Value: ce},
	}, nil
}

func writeFigure8(w io.Writer, rows []Row) {
	fmt.Fprintf(w, "Figure 8: ParaGraph vs COMPOFF per-point error on NVIDIA V100 (n=%d)\n", int(rows[0].Value))
	fmt.Fprintf(w, "  mean rel. error: ParaGraph %.4f, COMPOFF %.4f\n", rows[1].Value, rows[2].Value)
	fmt.Fprintf(w, "  ParaGraph wins on %.1f%% of points\n", 100*rows[3].Value)
	fmt.Fprintf(w, "  small kernels (bottom runtime quartile): ParaGraph %.4f, COMPOFF %.4f\n",
		rows[4].Value, rows[5].Value)
}

// figure9 reproduces Figure 9: predicted vs actual runtimes on V100 for
// both models, with the first 12 points of the scatter. Correlations are
// computed in log space, matching the figure's log-log axes.
func figure9(r *Runner) ([]Row, error) {
	actual, pgPred, cPred, err := r.versusCompoff()
	if err != nil {
		return nil, err
	}
	v := hw.V100().Name
	pg, co := Row{Platform: v, Arm: pgArm}, Row{Platform: v, Arm: compoffArm}
	rows := []Row{pg.with("log_pearson", metrics.LogPearson(pgPred, actual)),
		co.with("log_pearson", metrics.LogPearson(cPred, actual))}
	for i := 0; i < len(actual) && i < 12; i++ {
		pg.Group = fmt.Sprintf("point %d", i+1)
		co.Group = pg.Group
		rows = append(rows, Row{Platform: v, Group: pg.Group}.with("actual_ms", actual[i]),
			pg.with("predicted_ms", pgPred[i]), co.with("predicted_ms", cPred[i]))
	}
	return rows, nil
}

func writeFigure9(w io.Writer, rows []Row) {
	fmt.Fprintf(w, "Figure 9: Predicted vs actual on NVIDIA V100 (log-space Pearson)\n")
	fmt.Fprintf(w, "  ParaGraph r = %.4f, COMPOFF r = %.4f\n", rows[0].Value, rows[1].Value)
	fmt.Fprintf(w, "  %-14s %-14s %-14s\n", "actual(ms)", "paragraph(ms)", "compoff(ms)")
	runs(rows[2:], byGroup, func(p []Row) {
		fmt.Fprintf(w, "  %-14.5g %-14.5g %-14.5g\n", p[0].Value, p[1].Value, p[2].Value)
	})
}

func byPlatform(row Row) string { return row.Platform }
func byGroup(row Row) string    { return row.Group }

// runs calls line with each run of consecutive rows that agree on key.
func runs(rows []Row, key func(Row) string, line func([]Row)) {
	for len(rows) > 0 {
		n := 1
		for n < len(rows) && key(rows[n]) == key(rows[0]) {
			n++
		}
		line(rows[:n])
		rows = rows[n:]
	}
}

// artifact is one table or figure: how to compute its rows and how to
// print them.
type artifact struct {
	kind   string // "table" or "figure"
	number int
	rows   func(*Runner) ([]Row, error)
	write  func(io.Writer, []Row)
}

// artifacts is every table and figure this package reproduces, in paper
// order: what -table N and -figure N select from and what RunAll walks.
var artifacts = []artifact{
	{"table", 1, table1, writeTable1},
	{"table", 2, table2, writeTable2},
	{"table", 3, table3, writeTable3},
	{"table", 4, table4, writeTable4},
	{"figure", 4, figure4, writeFigure4},
	{"figure", 5, figure5, writeFigure5},
	{"figure", 6, figure6, writeFigure6},
	{"figure", 7, figure7, writeFigure7},
	{"figure", 8, figure8, writeFigure8},
	{"figure", 9, figure9, writeFigure9},
}

func find(kind string, number int) (artifact, error) {
	for _, a := range artifacts {
		if a.kind == kind && a.number == number {
			return a, nil
		}
	}
	return artifact{}, fmt.Errorf("no %s %d in the paper's evaluation", kind, number)
}

// Rows computes one artifact's rows: kind is "table" or "figure", number
// its number in the paper.
func (r *Runner) Rows(kind string, number int) ([]Row, error) {
	a, err := find(kind, number)
	if err != nil {
		return nil, err
	}
	return a.rows(r)
}

// Render prints one artifact, selected as Rows selects it.
func (r *Runner) Render(w io.Writer, kind string, number int) error {
	a, err := find(kind, number)
	if err != nil {
		return err
	}
	rows, err := a.rows(r)
	if err != nil {
		return err
	}
	a.write(w, rows)
	return nil
}

// RunAll renders every table and figure to w.
func (r *Runner) RunAll(w io.Writer) error {
	for _, a := range artifacts {
		if err := r.Render(w, a.kind, a.number); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

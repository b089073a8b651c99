// Package metrics implements the paper's evaluation measures (§V-A): RMSE,
// normalized RMSE (divided by the runtime range), relative error, per-bin
// and per-group error aggregation, and the correlation used in the
// predicted-vs-actual comparison (Figure 9).
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// RMSE returns the root mean squared error between pred and actual.
func RMSE(pred, actual []float64) float64 {
	if len(pred) != len(actual) {
		panic(fmt.Sprintf("metrics: RMSE length mismatch %d vs %d", len(pred), len(actual)))
	}
	if len(pred) == 0 {
		return 0
	}
	var acc float64
	for i := range pred {
		d := pred[i] - actual[i]
		acc += d * d
	}
	return math.Sqrt(acc / float64(len(pred)))
}

// Range returns max(actual) - min(actual), or 0 for empty input.
func Range(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	min, max := xs[0], xs[0]
	for _, v := range xs[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return max - min
}

// NormRMSE returns RMSE divided by the actual-value range (§V-A:
// "Normalized RMSE is calculated by dividing the RMSE by the distance
// between the minimum and maximum runtime"). Zero range returns 0.
func NormRMSE(pred, actual []float64) float64 {
	r := Range(actual)
	if r == 0 {
		return 0
	}
	return RMSE(pred, actual) / r
}

// RelErrors returns per-point |error| / range(actual) — the paper's relative
// error. Zero range yields all zeros.
func RelErrors(pred, actual []float64) []float64 {
	if len(pred) != len(actual) {
		panic(fmt.Sprintf("metrics: RelErrors length mismatch %d vs %d", len(pred), len(actual)))
	}
	out := make([]float64, len(pred))
	r := Range(actual)
	if r == 0 {
		return out
	}
	for i := range pred {
		out[i] = math.Abs(pred[i]-actual[i]) / r
	}
	return out
}

// Mean returns the arithmetic mean (0 for empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var acc float64
	for _, v := range xs {
		acc += v
	}
	return acc / float64(len(xs))
}

// StdDev returns the population standard deviation (0 for n < 2).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var acc float64
	for _, v := range xs {
		d := v - m
		acc += d * d
	}
	return math.Sqrt(acc / float64(len(xs)))
}

// Pearson returns the Pearson correlation coefficient between two series
// (0 when either is constant).
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("metrics: Pearson length mismatch %d vs %d", len(xs), len(ys)))
	}
	if len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// LogPearson is Pearson over the natural logs of two runtime series — the
// log-space correlation of predicted and measured runtimes that Figure 9
// reports. Each value is clamped to at least 1e-9 before its log, so a zero
// or negative prediction stays finite (NaN stays NaN).
func LogPearson(xs, ys []float64) float64 {
	logs := func(vs []float64) []float64 {
		out := make([]float64, len(vs))
		for i, v := range vs {
			out[i] = math.Log(math.Max(v, 1e-9))
		}
		return out
	}
	return Pearson(logs(xs), logs(ys))
}

// ranks assigns 1-based ranks to xs, averaging ranks across ties (the
// "fractional ranking" used by Spearman's rho).
func ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	out := make([]float64, n)
	for i := 0; i < n; {
		j := i + 1
		for j < n && xs[idx[j]] == xs[idx[i]] {
			j++
		}
		// positions i..j-1 are tied; average rank = mean of (i+1)..j
		avg := float64(i+1+j) / 2
		for k := i; k < j; k++ {
			out[idx[k]] = avg
		}
		i = j
	}
	return out
}

// Spearman returns Spearman's rank correlation coefficient between two
// series: Pearson correlation over fractional (tie-averaged) ranks. It is
// the serving tier's online quality measure — an advisor only needs to
// *order* variants correctly, so rank correlation of predicted vs. measured
// runtimes is the right score. Returns NaN for n < 3 or when either series
// is constant (no ranking information).
func Spearman(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("metrics: Spearman length mismatch %d vs %d", len(xs), len(ys)))
	}
	if len(xs) < 3 {
		return math.NaN()
	}
	rx, ry := ranks(xs), ranks(ys)
	mx, my := Mean(rx), Mean(ry)
	var sxy, sxx, syy float64
	for i := range rx {
		dx, dy := rx[i]-mx, ry[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Bin is one error bucket of Figure 4 (relative error per 10-second range).
type Bin struct {
	Label   string  // e.g. "0-10", "100 <"
	Lo, Hi  float64 // bounds in the actual-value unit; Hi = +Inf for the last
	Count   int
	MeanErr float64 // mean relative error of points in the bin
}

// BinnedRelError groups points by actual value into numBins buckets of
// binWidth (same unit as actual), with a final open-ended bucket, and
// averages the relative error within each — Figure 4's layout with
// binWidth=10s and numBins=10 gives bins 0-10 … 90-100, "100 <".
func BinnedRelError(pred, actual []float64, binWidth float64, numBins int) []Bin {
	if binWidth <= 0 || numBins < 1 {
		panic("metrics: BinnedRelError needs positive binWidth and numBins")
	}
	rel := RelErrors(pred, actual)
	bins := make([]Bin, numBins+1)
	sums := make([]float64, numBins+1)
	for i := range bins {
		lo := float64(i) * binWidth
		if i < numBins {
			bins[i] = Bin{Label: fmt.Sprintf("%g-%g", lo, lo+binWidth), Lo: lo, Hi: lo + binWidth}
		} else {
			bins[i] = Bin{Label: fmt.Sprintf("%g <", lo), Lo: lo, Hi: math.Inf(1)}
		}
	}
	for i, a := range actual {
		idx := int(a / binWidth)
		if idx < 0 {
			idx = 0
		}
		if idx > numBins {
			idx = numBins
		}
		bins[idx].Count++
		sums[idx] += rel[i]
	}
	for i := range bins {
		if bins[i].Count > 0 {
			bins[i].MeanErr = sums[i] / float64(bins[i].Count)
		}
	}
	return bins
}

// GroupErr is a per-group error row (Figure 6's per-application error rate).
type GroupErr struct {
	Group   string
	Count   int
	MeanErr float64
}

// GroupedRelError averages relative error per group label, sorted by group
// name.
func GroupedRelError(pred, actual []float64, groups []string) []GroupErr {
	if len(groups) != len(pred) {
		panic(fmt.Sprintf("metrics: GroupedRelError length mismatch %d vs %d", len(groups), len(pred)))
	}
	rel := RelErrors(pred, actual)
	type agg struct {
		n   int
		sum float64
	}
	m := map[string]*agg{}
	for i, g := range groups {
		a, ok := m[g]
		if !ok {
			a = &agg{}
			m[g] = a
		}
		a.n++
		a.sum += rel[i]
	}
	var out []GroupErr
	for g, a := range m {
		out = append(out, GroupErr{Group: g, Count: a.n, MeanErr: a.sum / float64(a.n)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Group < out[j].Group })
	return out
}

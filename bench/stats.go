package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 < q <= 1) of an ascending slice by
// nearest rank: the smallest sample with at least q·n samples at or below
// it. No interpolation, so the value is always one that was measured.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)-1]
}

// rank is the 1-based nearest-rank index of the q-quantile among n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// samplesBeyond is how many of n samples lie above the q-quantile's rank —
// the count the choosing-metrics rule wants to be well over ten before a
// tail percentile is reported.
func samplesBeyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, q)
}

// median returns the middle value (mean of the middle two for even n) of
// xs without reordering the caller's slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// mean returns the arithmetic mean, 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the default "exclusive" method), so
// the A/A report computes the same spread the driver does. It needs at
// least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median — the
// steadiness figure the A/A calibration and the driver both judge by.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// steadyHalf keeps the half of the rounds (rounded up) that completed the
// most operations, in round order. On a shared host a neighbour slows some
// seconds of a run by a tenth or more and leaves others alone; which
// seconds differs from run to run, so a statistic over all of them moves
// with the neighbour, while the better half repeats (AA.md has the
// comparison). Every serving metric of a timed run is taken from these
// rounds alone.
func steadyHalf(rounds [][]float64) [][]float64 {
	order := make([]int, len(rounds))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return len(rounds[order[a]]) > len(rounds[order[b]]) })
	keep := order[:(len(rounds)+1)/2]
	sort.Ints(keep)
	kept := make([][]float64, len(keep))
	for i, r := range keep {
		kept[i] = rounds[r]
	}
	return kept
}

// pooled merges per-round samples into one ascending slice.
func pooled(rounds [][]float64) []float64 {
	var all []float64
	for _, r := range rounds {
		all = append(all, r...)
	}
	sort.Float64s(all)
	return all
}

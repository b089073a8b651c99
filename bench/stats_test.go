package main

import (
	"math"
	"testing"
)

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.95, 10}, {0.01, 1}, {1, 10}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
}

func TestSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{{1000, 0.95, 50}, {1000, 0.99, 10}, {75, 0.80, 15}, {10, 0.5, 5}, {0, 0.9, 0}} {
		if got := samplesBeyond(c.n, c.q); got != c.want {
			t.Errorf("samplesBeyond(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	in := []float64{5, 1, 4}
	if got := median(in); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
	if in[0] != 5 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

func TestSteadyHalfKeepsTheFullestRounds(t *testing.T) {
	round := func(n int, v float64) []float64 {
		r := make([]float64, n)
		for i := range r {
			r[i] = v
		}
		return r
	}
	// Five rounds, one disturbed: the three fullest stay, in round order.
	kept := steadyHalf([][]float64{round(300, 1), round(120, 9), round(303, 2), round(297, 3), round(306, 4)})
	if len(kept) != 3 || kept[0][0] != 1 || kept[1][0] != 2 || kept[2][0] != 4 {
		t.Errorf("steadyHalf kept %d rounds starting %v", len(kept), kept)
	}
	if got := pooled(kept); len(got) != 909 || got[0] != 1 || got[908] != 4 {
		t.Errorf("pooled: %d samples", len(got))
	}
	if got := steadyHalf([][]float64{round(5, 1)}); len(got) != 1 {
		t.Errorf("one round: kept %d", len(got))
	}
}

// The reference values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10.2, 9.8, 10.0, 10.5, 9.9, 10.1, 10.4, 9.7, 10.3, 10.6}
	q1, q2, q3 := quartiles(xs)
	for _, c := range []struct{ got, want float64 }{{q1, 9.875}, {q2, 10.15}, {q3, 10.425}} {
		if math.Abs(c.got-c.want) > 1e-9 {
			t.Errorf("quartile = %v, want %v", c.got, c.want)
		}
	}
	if got, want := spread(xs), (10.425-9.875)/10.15; math.Abs(got-want) > 1e-9 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

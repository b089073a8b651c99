package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestRMSE(t *testing.T) {
	if got := RMSE([]float64{1, 2, 3}, []float64{1, 2, 3}); got != 0 {
		t.Errorf("perfect RMSE = %v", got)
	}
	if got := RMSE([]float64{0, 0}, []float64{3, 4}); !almost(got, math.Sqrt(12.5)) {
		t.Errorf("RMSE = %v", got)
	}
	if got := RMSE(nil, nil); got != 0 {
		t.Errorf("empty RMSE = %v", got)
	}
}

func TestRangeAndNormRMSE(t *testing.T) {
	if got := Range([]float64{5, 1, 9, 3}); got != 8 {
		t.Errorf("Range = %v", got)
	}
	if got := Range(nil); got != 0 {
		t.Errorf("empty Range = %v", got)
	}
	pred := []float64{10, 20}
	actual := []float64{0, 100}
	want := RMSE(pred, actual) / 100
	if got := NormRMSE(pred, actual); !almost(got, want) {
		t.Errorf("NormRMSE = %v, want %v", got, want)
	}
	if got := NormRMSE([]float64{1}, []float64{5}); got != 0 {
		t.Errorf("constant actual NormRMSE = %v", got)
	}
}

func TestRelErrors(t *testing.T) {
	rel := RelErrors([]float64{10, 30}, []float64{0, 100})
	if !almost(rel[0], 0.1) || !almost(rel[1], 0.7) {
		t.Errorf("RelErrors = %v", rel)
	}
	zero := RelErrors([]float64{1, 2}, []float64{5, 5})
	if zero[0] != 0 || zero[1] != 0 {
		t.Errorf("zero-range RelErrors = %v", zero)
	}
}

func TestMeanStdDev(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("empty Mean = %v", got)
	}
	if got := StdDev([]float64{2, 2, 2}); got != 0 {
		t.Errorf("constant StdDev = %v", got)
	}
	if got := StdDev([]float64{0, 2}); got != 1 {
		t.Errorf("StdDev = %v", got)
	}
	if got := StdDev([]float64{7}); got != 0 {
		t.Errorf("single StdDev = %v", got)
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := Pearson(xs, xs); !almost(got, 1) {
		t.Errorf("self correlation = %v", got)
	}
	neg := []float64{4, 3, 2, 1}
	if got := Pearson(xs, neg); !almost(got, -1) {
		t.Errorf("anti correlation = %v", got)
	}
	if got := Pearson(xs, []float64{5, 5, 5, 5}); got != 0 {
		t.Errorf("constant correlation = %v", got)
	}
	if got := Pearson([]float64{1}, []float64{1}); got != 0 {
		t.Errorf("single-point correlation = %v", got)
	}
}

// TestLogPearsonPerfectCorrelation: a runtime series correlates perfectly
// with itself in log space.
func TestLogPearsonPerfectCorrelation(t *testing.T) {
	pred := []float64{10, 100, 1000, 10000}
	if r := LogPearson(pred, pred); math.Abs(r-1) > 1e-12 {
		t.Errorf("LogPearson(x, x) = %v, want 1", r)
	}
}

// TestLogPearsonClamps: zero and negative runtimes are clamped to 1e-9
// before the log, so they neither poison the result with -Inf/NaN nor
// differ from an explicit 1e-9.
func TestLogPearsonClamps(t *testing.T) {
	clamped := []float64{0, -5, 10, 100}
	ys := []float64{1, 2, 3, 4}
	r := LogPearson(clamped, ys)
	if math.IsNaN(r) || math.IsInf(r, 0) {
		t.Fatalf("LogPearson with non-positive runtimes = %v", r)
	}
	if want := LogPearson([]float64{1e-9, 1e-9, 10, 100}, ys); r != want {
		t.Errorf("LogPearson(%v) = %v, want %v as with 1e-9", clamped, r, want)
	}
	if want := Pearson([]float64{math.Log(1e-9), math.Log(1e-9), math.Log(10), math.Log(100)},
		[]float64{0, math.Log(2), math.Log(3), math.Log(4)}); r != want {
		t.Errorf("LogPearson = %v, want Pearson of the logs %v", r, want)
	}
}

func TestPearsonScaleInvariance(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 3 {
			return true
		}
		xs := raw
		ys := make([]float64, len(xs))
		for i, v := range xs {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
			ys[i] = 3*v + 7 // positive affine map
		}
		r := Pearson(xs, ys)
		return r == 0 || math.Abs(r-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBinnedRelError(t *testing.T) {
	// Actual values 5 and 15 and 205: bins 0-10, 10-20, overflow.
	pred := []float64{6, 10, 230}
	actual := []float64{5, 15, 205}
	bins := BinnedRelError(pred, actual, 10, 10)
	if len(bins) != 11 {
		t.Fatalf("bins = %d, want 11", len(bins))
	}
	if bins[0].Count != 1 || bins[1].Count != 1 || bins[10].Count != 1 {
		t.Errorf("counts = %v %v %v", bins[0].Count, bins[1].Count, bins[10].Count)
	}
	if bins[0].Label != "0-10" || bins[10].Label != "100 <" {
		t.Errorf("labels = %q / %q", bins[0].Label, bins[10].Label)
	}
	// rel error of point 0: |6-5|/200 = 0.005.
	if !almost(bins[0].MeanErr, 1.0/200) {
		t.Errorf("bin 0 err = %v", bins[0].MeanErr)
	}
	// Empty bins report zero error.
	if bins[5].Count != 0 || bins[5].MeanErr != 0 {
		t.Errorf("bin 5 = %+v", bins[5])
	}
	if !math.IsInf(bins[10].Hi, 1) {
		t.Error("overflow bin not open-ended")
	}
}

func TestGroupedRelError(t *testing.T) {
	pred := []float64{10, 20, 110}
	actual := []float64{0, 40, 100}
	groups := []string{"mm", "mm", "nn"}
	ge := GroupedRelError(pred, actual, groups)
	if len(ge) != 2 {
		t.Fatalf("groups = %d", len(ge))
	}
	// Sorted: mm before nn.
	if ge[0].Group != "mm" || ge[1].Group != "nn" {
		t.Errorf("order = %v", ge)
	}
	if ge[0].Count != 2 || ge[1].Count != 1 {
		t.Errorf("counts = %v", ge)
	}
	// mm: (10/100 + 20/100)/2 = 0.15; nn: 10/100 = 0.1.
	if !almost(ge[0].MeanErr, 0.15) || !almost(ge[1].MeanErr, 0.1) {
		t.Errorf("errors = %v", ge)
	}
}

func TestPanicsOnLengthMismatch(t *testing.T) {
	cases := []func(){
		func() { RMSE([]float64{1}, []float64{1, 2}) },
		func() { RelErrors([]float64{1}, nil) },
		func() { Pearson([]float64{1, 2}, []float64{1}) },
		func() { GroupedRelError([]float64{1}, []float64{1}, nil) },
		func() { BinnedRelError(nil, nil, 0, 5) },
		func() { BinnedRelError(nil, nil, 10, 0) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestSpearman(t *testing.T) {
	cases := []struct {
		name   string
		xs, ys []float64
		want   float64
	}{
		{"perfect monotone", []float64{1, 2, 3, 4, 5}, []float64{10, 20, 30, 40, 50}, 1},
		{"nonlinear monotone", []float64{1, 2, 3, 4}, []float64{1, 100, 1e4, 1e6}, 1},
		{"reversed", []float64{1, 2, 3, 4, 5}, []float64{50, 40, 30, 20, 10}, -1},
		// ranks(xs) = {1, 2.5, 2.5, 4}, ranks(ys) = {1, 3, 2, 4};
		// Pearson over those ranks = 4.5/sqrt(4.5*5) = sqrt(0.9).
		{"ties", []float64{1, 2, 2, 4}, []float64{1, 3, 2, 4}, math.Sqrt(0.9)},
		{"one swap", []float64{1, 2, 3, 4}, []float64{1, 3, 2, 4}, 0.8},
	}
	for _, tc := range cases {
		if got := Spearman(tc.xs, tc.ys); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: Spearman = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSpearmanDegenerate(t *testing.T) {
	if got := Spearman([]float64{5, 5, 5, 5}, []float64{1, 2, 3, 4}); !math.IsNaN(got) {
		t.Errorf("constant xs: Spearman = %v, want NaN", got)
	}
	if got := Spearman([]float64{1, 2, 3}, []float64{7, 7, 7}); !math.IsNaN(got) {
		t.Errorf("constant ys: Spearman = %v, want NaN", got)
	}
	for n := 0; n < 3; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		if got := Spearman(xs, xs); !math.IsNaN(got) {
			t.Errorf("n=%d: Spearman = %v, want NaN", n, got)
		}
	}
}

func TestSpearmanProperties(t *testing.T) {
	// Symmetric, and invariant under strictly monotone transforms of either
	// series (that is the whole point of using ranks).
	f := func(raw []float64) bool {
		var xs []float64
		seen := map[float64]bool{}
		for _, v := range raw {
			v = math.Mod(v, 1e6)
			if !seen[v] && !math.IsNaN(v) {
				seen[v] = true
				xs = append(xs, v)
			}
		}
		if len(xs) < 3 {
			return true
		}
		cube := make([]float64, len(xs)) // x*|x| is strictly monotone on all reals
		for i, v := range xs {
			cube[i] = v * math.Abs(v)
		}
		if got := Spearman(xs, cube); math.Abs(got-1) > 1e-9 {
			return false
		}
		ys := make([]float64, len(xs))
		for i := range ys {
			ys[i] = xs[(i+1)%len(xs)]
		}
		return math.Abs(Spearman(xs, ys)-Spearman(ys, xs)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

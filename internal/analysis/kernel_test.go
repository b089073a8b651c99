package analysis

import (
	"testing"

	"paragraph/internal/cast"
	"paragraph/internal/cparse"
)

func analyze(t *testing.T, src string, env Env) KernelCost {
	t.Helper()
	fn, err := cparse.ParseFunction(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return AnalyzeKernel(fn, env, 100)
}

func TestAnalyzeVectorAdd(t *testing.T) {
	kc := analyze(t, `
void vadd(double *a, double *b, double *c, int n) {
    for (int i = 0; i < n; i++) {
        c[i] = a[i] + b[i];
    }
}`, Env{"n": 1000})
	if kc.Flops != 1000 {
		t.Errorf("Flops = %v, want 1000", kc.Flops)
	}
	if kc.Loads != 2000 {
		t.Errorf("Loads = %v, want 2000", kc.Loads)
	}
	if kc.Stores != 1000 {
		t.Errorf("Stores = %v, want 1000", kc.Stores)
	}
	if kc.TotalIters != 1000 {
		t.Errorf("TotalIters = %v, want 1000", kc.TotalIters)
	}
	if kc.MaxLoopDepth != 1 {
		t.Errorf("MaxLoopDepth = %v, want 1", kc.MaxLoopDepth)
	}
	if kc.IsOffload {
		t.Error("plain loop should not be offload")
	}
}

func TestAnalyzeMatMulScaling(t *testing.T) {
	src := `
void mm(double *a, double *b, double *c, int n) {
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < n; j++) {
            double sum = 0.0;
            for (int k = 0; k < n; k++) {
                sum += a[i * n + k] * b[k * n + j];
            }
            c[i * n + j] = sum;
        }
    }
}`
	small := analyze(t, src, Env{"n": 10})
	big := analyze(t, src, Env{"n": 20})
	// Flops scale as n^3: doubling n gives 8x.
	if ratio := big.Flops / small.Flops; ratio < 7.5 || ratio > 8.5 {
		t.Errorf("flop scaling ratio = %v, want ~8", ratio)
	}
	if small.MaxLoopDepth != 3 {
		t.Errorf("depth = %d, want 3", small.MaxLoopDepth)
	}
	// Two flops per inner iteration: multiply and add (+=).
	if small.Flops != 2*10*10*10 {
		t.Errorf("Flops = %v, want 2000", small.Flops)
	}
}

func TestAnalyzeOffloadDirective(t *testing.T) {
	kc := analyze(t, `
void k(double *a, int n) {
    #pragma omp target teams distribute parallel for map(tofrom: a[0:n])
    for (int i = 0; i < n; i++) {
        a[i] = a[i] * 2.0;
    }
}`, Env{"n": 512})
	if !kc.IsOffload {
		t.Error("IsOffload = false")
	}
	// map(tofrom:) crosses the link twice: 2 × 8 bytes × 512 elements.
	if kc.TransferBytes != 2*8*512 {
		t.Errorf("TransferBytes = %v, want %v", kc.TransferBytes, 2*8*512)
	}
	if kc.MappedArrays != 1 {
		t.Errorf("MappedArrays = %v, want 1", kc.MappedArrays)
	}
	if kc.ParallelIters != 512 {
		t.Errorf("ParallelIters = %v, want 512", kc.ParallelIters)
	}
	if kc.CollapseDepth != 1 {
		t.Errorf("CollapseDepth = %v, want 1", kc.CollapseDepth)
	}
}

// TestSectionElems prices map clauses from the section lengths cparse
// parsed: a bare name, or a length that is unresolved, malformed or <= 0,
// is one element, and a name resolves as a loop bound does, through env or
// a local's constant initializer.
func TestSectionElems(t *testing.T) {
	env := Env{"n": 100, "m": 10}
	cases := []struct {
		arg  string
		want float64
	}{
		{"a[0:n]", 100},
		{"a[0:n*m]", 1000},
		{"a[0:(n+1)*m]", 1010},
		{"a[0:1024]", 1024},
		{"scalar", 1},
		{"a[0:unknown]", 1},
		{"a[n]", 100}, // single-extent section
		{"a[0:len]", 200},
		{"a[0:n +]", 1},
		{"a[0:m-n]", 1}, // a length <= 0
	}
	for _, c := range cases {
		kc := analyze(t, `
void k(double *a, double scalar, int n, int m) {
    int len = 2 * n;
    #pragma omp target teams distribute parallel for map(to: `+c.arg+`)
    for (int i = 0; i < n; i++) a[i] = a[i] + scalar;
}`, env)
		if kc.TransferBytes != 8*c.want || kc.MappedArrays != 1 {
			t.Errorf("map(to: %s): %v bytes in %d arrays, want %v in 1",
				c.arg, kc.TransferBytes, kc.MappedArrays, 8*c.want)
		}
	}
}

// TestStandaloneDirectiveMapsNothing: cparse attaches no clause payloads to
// a barrier, so a map clause written on one (not valid OpenMP, but it
// parses) prices no transfer rather than reading past its children.
func TestStandaloneDirectiveMapsNothing(t *testing.T) {
	kc := analyze(t, `
void k(double *a, int n) {
    #pragma omp barrier map(to: a[0:n])
    for (int i = 0; i < n; i++) a[i] = 1.0;
}`, Env{"n": 100})
	if kc.TransferBytes != 0 || kc.MappedArrays != 0 {
		t.Errorf("barrier map: %v bytes in %d arrays, want none", kc.TransferBytes, kc.MappedArrays)
	}
}

func TestAnalyzeCollapseParallelIters(t *testing.T) {
	kc := analyze(t, `
void k(double *a, int n, int m) {
    #pragma omp target teams distribute parallel for collapse(2)
    for (int i = 0; i < n; i++)
        for (int j = 0; j < m; j++)
            a[i * m + j] = 1.0;
}`, Env{"n": 100, "m": 50})
	if kc.ParallelIters != 5000 {
		t.Errorf("ParallelIters = %v, want 5000", kc.ParallelIters)
	}
	if kc.CollapseDepth != 2 {
		t.Errorf("CollapseDepth = %v, want 2", kc.CollapseDepth)
	}
}

func TestAnalyzeBranchHalving(t *testing.T) {
	kc := analyze(t, `
void k(double *a, int n) {
    for (int i = 0; i < n; i++) {
        if (a[i] > 0.0) {
            a[i] = a[i] * 2.0;
        } else {
            a[i] = 0.0;
        }
    }
}`, Env{"n": 100})
	if kc.Branches != 100 {
		t.Errorf("Branches = %v, want 100", kc.Branches)
	}
	// Then branch: 1 flop * 100/2 = 50 mults.
	if kc.Flops < 149 || kc.Flops > 151 {
		// comparison a[i] > 0.0 is also a flop: 100 + 50 = 150.
		t.Errorf("Flops = %v, want 150", kc.Flops)
	}
}

func TestAnalyzeMathCalls(t *testing.T) {
	kc := analyze(t, `
void k(double *a, int n) {
    for (int i = 0; i < n; i++) {
        a[i] = sqrt(a[i]) + exp(a[i]);
    }
}`, Env{"n": 10})
	if kc.Calls != 20 {
		t.Errorf("Calls = %v, want 20", kc.Calls)
	}
	if kc.MathCalls != 20 {
		t.Errorf("MathCalls = %v, want 20", kc.MathCalls)
	}
}

func TestAnalyzeReduction(t *testing.T) {
	kc := analyze(t, `
void k(double *a, int n, double s) {
    #pragma omp parallel for reduction(+: s)
    for (int i = 0; i < n; i++) {
        s += a[i];
    }
}`, Env{"n": 10})
	if kc.ReductionOps != 1 {
		t.Errorf("ReductionOps = %v, want 1", kc.ReductionOps)
	}
	if kc.IsOffload {
		t.Error("parallel for is not offload")
	}
}

func TestAnalyzeIntVsFloatOps(t *testing.T) {
	kc := analyze(t, `
void k(int *p, int n) {
    int acc = 0;
    for (int i = 0; i < n; i++) {
        acc = acc + i;
    }
}`, Env{"n": 10})
	if kc.Flops != 0 {
		t.Errorf("Flops = %v, want 0 for integer kernel", kc.Flops)
	}
	if kc.IntOps < 10 {
		t.Errorf("IntOps = %v, want >= 10", kc.IntOps)
	}
}

func TestAnalyzeWhileUsesDefaultTrip(t *testing.T) {
	fn, err := cparse.ParseFunction(`
void k(double *a, int n) {
    int i = 0;
    while (i < n) {
        a[i] = 0.0;
        i++;
    }
}`)
	if err != nil {
		t.Fatal(err)
	}
	kc := AnalyzeKernel(fn, nil, 42)
	if kc.Stores != 42 {
		t.Errorf("Stores = %v, want 42 (defaultTrip)", kc.Stores)
	}
	if kc.TotalIters != 42 {
		t.Errorf("TotalIters = %v, want 42", kc.TotalIters)
	}
}

func TestAnalyzeNilAndEmpty(t *testing.T) {
	kc := AnalyzeKernel(nil, nil, 10)
	if kc.Flops != 0 || kc.CollapseDepth != 1 {
		t.Errorf("nil kernel cost = %+v", kc)
	}
	fn, err := cparse.ParseFunction(`void empty(void) {}`)
	if err != nil {
		t.Fatal(err)
	}
	kc = AnalyzeKernel(fn, nil, 10)
	if kc.Flops != 0 || kc.Loads != 0 {
		t.Errorf("empty kernel cost = %+v", kc)
	}
}

func TestAnalyzeBareStatementTree(t *testing.T) {
	root, err := cparse.Parse(`void f(double *a) { a[0] = 1.0; }`)
	if err != nil {
		t.Fatal(err)
	}
	body := cast.FindFunction(root, "f").Body()
	kc := AnalyzeKernel(body, nil, 10)
	if kc.Stores != 1 {
		t.Errorf("Stores = %v, want 1", kc.Stores)
	}
}

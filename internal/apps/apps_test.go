package apps

import (
	"strings"
	"testing"

	"paragraph/internal/analysis"
	"paragraph/internal/cast"
	"paragraph/internal/cparse"
)

func TestSuiteShapeMatchesTableI(t *testing.T) {
	ks := Kernels()
	if len(ks) != 17 {
		t.Errorf("kernel count = %d, want 17 (Table I)", len(ks))
	}
	infos := Apps()
	if len(infos) != 9 {
		t.Errorf("application count = %d, want 9 (Table I)", len(infos))
	}
	wantKernels := map[string]int{
		"Correlation":                  1,
		"Covariance":                   2,
		"Gauss Seidel":                 1,
		"K-nearest neighbors":          1,
		"Laplace":                      2,
		"Matrix-Matrix Multiplication": 1,
		"Matrix-Vector Multiplication": 1,
		"Matrix Transpose":             1,
		"Particle Filter":              7,
	}
	for _, info := range infos {
		if want, ok := wantKernels[info.Name]; !ok {
			t.Errorf("unexpected application %q", info.Name)
		} else if info.NumKernels != want {
			t.Errorf("%s: %d kernels, want %d", info.Name, info.NumKernels, want)
		}
	}
}

func TestAllKernelsValidate(t *testing.T) {
	for _, k := range Kernels() {
		if err := k.Validate(); err != nil {
			t.Errorf("%s: %v", k.Name, err)
		}
	}
}

func TestAllKernelSourcesParse(t *testing.T) {
	for _, k := range Kernels() {
		src := serialSource(k)
		fn, err := cparse.ParseFunction(src)
		if err != nil {
			t.Errorf("%s: parse: %v", k.Name, err)
			continue
		}
		if fn.Name != k.FuncName {
			t.Errorf("%s: first function is %q, want %q", k.Name, fn.Name, k.FuncName)
		}
		if cast.LoopDepth(fn) < 1 {
			t.Errorf("%s: kernel has no loops", k.Name)
		}
	}
}

func TestKernelNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range Kernels() {
		if seen[k.Name] {
			t.Errorf("duplicate kernel name %q", k.Name)
		}
		seen[k.Name] = true
	}
}

func TestCollapsibleKernelsHaveNestedLoops(t *testing.T) {
	for _, k := range Kernels() {
		if !k.Collapsible {
			continue
		}
		fn, err := cparse.ParseFunction(serialSource(k))
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		if d := cast.LoopDepth(fn); d < 2 {
			t.Errorf("%s: collapsible but loop depth %d", k.Name, d)
		}
	}
}

func TestKernelParamsCoverArraySizes(t *testing.T) {
	// Every array size expression must evaluate under a binding of the
	// kernel's declared parameters.
	for _, k := range Kernels() {
		env := analysis.Env{}
		for _, p := range k.Params {
			env[p.Name] = float64(p.Values[0])
		}
		for _, a := range k.Arrays {
			fn, err := cparse.ParseFunction("void f(void) { double v; v = " + a.SizeExpr + "; }")
			if err != nil {
				t.Errorf("%s/%s: size expr %q does not parse: %v", k.Name, a.Name, a.SizeExpr, err)
				continue
			}
			body := fn.Body()
			asn := body.Children[len(body.Children)-1]
			if _, ok := analysis.Eval(asn.Children[1], env); !ok {
				t.Errorf("%s/%s: size expr %q not evaluable under params", k.Name, a.Name, a.SizeExpr)
			}
		}
	}
}

func TestAnalysisSeesWorkInEveryKernel(t *testing.T) {
	for _, k := range Kernels() {
		fn, err := cparse.ParseFunction(serialSource(k))
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		env := analysis.Env{}
		for _, p := range k.Params {
			env[p.Name] = float64(p.Values[0])
		}
		kc := analysis.AnalyzeKernel(fn, env, 100)
		if kc.Flops+kc.IntOps == 0 {
			t.Errorf("%s: analyzer sees no arithmetic", k.Name)
		}
		if kc.Loads+kc.Stores == 0 {
			t.Errorf("%s: analyzer sees no memory traffic", k.Name)
		}
	}
}

func TestByName(t *testing.T) {
	k, ok := ByName("matmul")
	if !ok || k.App != "Matrix-Matrix Multiplication" {
		t.Errorf("ByName(matmul) = %+v, %v", k.Name, ok)
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName(nope) should fail")
	}
}

// serialSource is k's source with the pragma marker line removed: the
// plain serial kernel.
func serialSource(k Kernel) string {
	return strings.Replace(k.Source, PragmaMarker+"\n", "", 1)
}

func TestValidateCatchesBadKernels(t *testing.T) {
	good := Kernels()[0]
	bad := good
	bad.Name = ""
	if err := bad.Validate(); err == nil {
		t.Error("missing name accepted")
	}
	bad = good
	bad.Source = "void f(void) {}"
	if err := bad.Validate(); err == nil {
		t.Error("missing marker accepted")
	}
	bad = good
	bad.Source = PragmaMarker + "\n" + PragmaMarker + "\n"
	if err := bad.Validate(); err == nil {
		t.Error("double marker accepted")
	}
	bad = good
	bad.Params = nil
	if err := bad.Validate(); err == nil {
		t.Error("no params accepted")
	}
	bad = good
	bad.Params = []Param{{Name: "n"}}
	if err := bad.Validate(); err == nil {
		t.Error("empty sweep accepted")
	}
}

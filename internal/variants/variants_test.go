package variants

import (
	"strings"
	"testing"

	"paragraph/internal/analysis"
	"paragraph/internal/apps"
	"paragraph/internal/cast"
	"paragraph/internal/cparse"
	"paragraph/internal/omp"
)

func kernel(t *testing.T, name string) apps.Kernel {
	t.Helper()
	k, ok := apps.ByName(name)
	if !ok {
		t.Fatalf("kernel %q not found", name)
	}
	return k
}

func TestKindProperties(t *testing.T) {
	cases := []struct {
		kind     Kind
		gpu      bool
		collapse bool
		transfer bool
		name     string
	}{
		{CPU, false, false, false, "cpu"},
		{CPUCollapse, false, true, false, "cpu_collapse"},
		{GPU, true, false, false, "gpu"},
		{GPUCollapse, true, true, false, "gpu_collapse"},
		{GPUMem, true, false, true, "gpu_mem"},
		{GPUCollapseMem, true, true, true, "gpu_collapse_mem"},
	}
	for _, c := range cases {
		if c.kind.IsGPU() != c.gpu {
			t.Errorf("%v IsGPU = %v", c.kind, c.kind.IsGPU())
		}
		if c.kind.IsCollapse() != c.collapse {
			t.Errorf("%v IsCollapse = %v", c.kind, c.kind.IsCollapse())
		}
		if c.kind.HasTransfer() != c.transfer {
			t.Errorf("%v HasTransfer = %v", c.kind, c.kind.HasTransfer())
		}
		if c.kind.String() != c.name {
			t.Errorf("%v String = %q, want %q", c.kind, c.kind.String(), c.name)
		}
		if k, err := ParseKind(c.name); err != nil || k != c.kind {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", c.name, k, err, c.kind)
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Error("out-of-range kind name")
	}
	for _, name := range []string{"", "Kind(99)", "GPU", "warp_simd"} {
		if _, err := ParseKind(name); err == nil {
			t.Errorf("ParseKind(%q) accepted", name)
		}
	}
	if len(Kinds()) != int(NumKinds) {
		t.Errorf("Kinds() = %d", len(Kinds()))
	}
}

func TestGenerateCPU(t *testing.T) {
	src, err := Generate(kernel(t, "matmul"), CPU, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "#pragma omp parallel for num_threads(8)") {
		t.Errorf("missing cpu pragma:\n%s", src)
	}
	if strings.Contains(src, "target") {
		t.Error("cpu variant mentions target")
	}
	if strings.Contains(src, apps.PragmaMarker) {
		t.Error("marker not replaced")
	}
}

func TestGenerateGPUVariants(t *testing.T) {
	k := kernel(t, "matmul")
	src, err := Generate(k, GPUCollapseMem, 128, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"target teams distribute parallel for",
		"collapse(2)",
		"num_teams(128)",
		"num_threads(64)",
		"map(tofrom: a[0:n*n])",
		"map(tofrom: b[0:n*n])",
		"map(tofrom: c[0:n*n])",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("missing %q:\n%s", want, src)
		}
	}
	// gpu (resident) variant has no map clauses.
	src2, err := Generate(k, GPU, 128, 64)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(src2, "map(") {
		t.Error("gpu (resident) variant should have no map clauses")
	}
}

func TestGeneratedSourcesParse(t *testing.T) {
	for _, k := range apps.Kernels() {
		for _, kind := range Kinds() {
			if kind.IsCollapse() && !k.Collapsible {
				continue
			}
			src, err := Generate(k, kind, 64, 128)
			if err != nil {
				t.Errorf("%s/%v: %v", k.Name, kind, err)
				continue
			}
			fn, err := cparse.ParseFunction(src)
			if err != nil {
				t.Errorf("%s/%v: parse: %v\n%s", k.Name, kind, err, src)
				continue
			}
			dirs := cast.Directives(fn)
			if len(dirs) != 1 {
				t.Errorf("%s/%v: %d directives, want 1", k.Name, kind, len(dirs))
				continue
			}
			d := dirs[0]
			if kind.IsGPU() != d.Dir.IsTarget() {
				t.Errorf("%s/%v: directive %v target mismatch", k.Name, kind, d.Dir)
			}
			if kind.IsCollapse() && analysis.CollapseDepth(d) != 2 {
				t.Errorf("%s/%v: collapse depth %d", k.Name, kind, analysis.CollapseDepth(d))
			}
			if kind.HasTransfer() != movesData(d) {
				t.Errorf("%s/%v: transfer mismatch", k.Name, kind)
			}
			if kind.IsGPU() {
				if d.Dir != omp.DirTargetTeamsDistributeParallelFor {
					t.Errorf("%s/%v: directive = %v", k.Name, kind, d.Dir)
				}
			}
		}
	}
}

func TestGenerateCollapseRejectedForNonCollapsible(t *testing.T) {
	k := kernel(t, "correlation_pearson")
	if _, err := Generate(k, CPUCollapse, 0, 4); err == nil {
		t.Error("collapse on non-collapsible kernel accepted")
	}
}

func TestGenerateRejectsBadInputs(t *testing.T) {
	if _, err := Generate(apps.Kernel{}, CPU, 0, 4); err == nil {
		t.Error("invalid kernel accepted")
	}
	if _, err := Generate(kernel(t, "matmul"), Kind(42), 0, 4); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestSweepCounts(t *testing.T) {
	k := kernel(t, "matmul") // collapsible, 1 param with 5 values
	cfg := SweepConfig{
		CPUThreads: []int{2, 4},
		GPUTeams:   []int{16},
		GPUThreads: []int{64, 128},
	}
	ins, err := Sweep(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// cpu kinds: 2 kinds × 5 sizes × 2 threads = 20.
	// gpu kinds: 4 kinds × 5 sizes × 2 (1 team × 2 threads) = 40.
	if len(ins) != 60 {
		t.Errorf("instances = %d, want 60", len(ins))
	}
	// Non-collapsible kernel drops the 2 collapse kinds.
	k2 := kernel(t, "pf_sum_weights") // 6 sizes
	ins2, err := Sweep(k2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// cpu: 1 × 6 × 2 = 12; gpu: 2 × 6 × 2 = 24.
	if len(ins2) != 36 {
		t.Errorf("instances = %d, want 36", len(ins2))
	}
}

func TestSweepMaxSizes(t *testing.T) {
	k := kernel(t, "matmul")
	cfg := SweepConfig{
		CPUThreads:        []int{4},
		GPUTeams:          []int{16},
		GPUThreads:        []int{64},
		MaxSizesPerKernel: 2,
	}
	ins, err := Sweep(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sizesSeen := map[float64]bool{}
	for _, in := range ins {
		sizesSeen[in.Bindings["n"]] = true
	}
	if len(sizesSeen) != 2 {
		t.Errorf("sizes seen = %v, want 2", sizesSeen)
	}
}

func TestSweepAllProducesDiverseInstances(t *testing.T) {
	cfg := SweepConfig{
		CPUThreads:        []int{4},
		GPUTeams:          []int{64},
		GPUThreads:        []int{128},
		MaxSizesPerKernel: 1,
	}
	ins, err := SweepAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	apps17 := map[string]bool{}
	kinds := map[Kind]bool{}
	for _, in := range ins {
		apps17[in.Kernel.Name] = true
		kinds[in.Kind] = true
	}
	if len(apps17) != 17 {
		t.Errorf("kernels covered = %d, want 17", len(apps17))
	}
	if len(kinds) != int(NumKinds) {
		t.Errorf("kinds covered = %d, want %d", len(kinds), NumKinds)
	}
}

func TestInstanceNameUniqueAndStable(t *testing.T) {
	cfg := SweepConfig{
		CPUThreads: []int{2, 4},
		GPUTeams:   []int{16, 32},
		GPUThreads: []int{64},
	}
	ins, err := Sweep(kernel(t, "transpose"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, in := range ins {
		name := in.Name()
		if seen[name] {
			t.Errorf("duplicate instance name %q", name)
		}
		seen[name] = true
	}
}

func TestDefaultSweepIsSubstantial(t *testing.T) {
	ins, err := SweepAll(DefaultSweep())
	if err != nil {
		t.Fatal(err)
	}
	// The paper collected ~26k points per pair of platforms; our default
	// sweep must generate thousands of instances to be comparable.
	if len(ins) < 2000 {
		t.Errorf("default sweep = %d instances, want >= 2000", len(ins))
	}
}

// movesData reports whether any of directive d's map clauses moves data to
// or from the device (alloc-only maps do not count).
func movesData(d *cast.Node) bool {
	for _, c := range d.Children {
		if c.Kind == cast.KindOMPClause && c.Clause == omp.ClauseMap && c.Op != omp.MapAlloc.String() {
			return true
		}
	}
	return false
}

package sim

import (
	"math"
	"testing"

	"paragraph/internal/apps"
	"paragraph/internal/hw"
	"paragraph/internal/variants"
)

func instance(t *testing.T, kernelName string, kind variants.Kind, teams, threads int, bindings map[string]float64) variants.Instance {
	t.Helper()
	k, ok := apps.ByName(kernelName)
	if !ok {
		t.Fatalf("kernel %q not found", kernelName)
	}
	src, err := variants.Generate(k, kind, teams, threads)
	if err != nil {
		t.Fatal(err)
	}
	env := map[string]float64{}
	for name, v := range bindings {
		env[name] = v
	}
	return variants.Instance{Kernel: k, Kind: kind, Teams: teams, Threads: threads, Bindings: env, Source: src}
}

func simulate(t *testing.T, in variants.Instance, m hw.Machine) Result {
	t.Helper()
	r, err := Simulate(in, m, Config{Seed: 1})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if r.MicroSec <= 0 || math.IsNaN(r.MicroSec) || math.IsInf(r.MicroSec, 0) {
		t.Fatalf("invalid runtime %v", r.MicroSec)
	}
	return r
}

func TestSimulateDeterministic(t *testing.T) {
	in := instance(t, "matmul", variants.GPU, 128, 128, map[string]float64{"n": 256})
	r1 := simulate(t, in, hw.V100())
	r2 := simulate(t, in, hw.V100())
	if r1.MicroSec != r2.MicroSec {
		t.Errorf("non-deterministic: %v vs %v", r1.MicroSec, r2.MicroSec)
	}
	// Different seed changes the noise.
	r3, err := Simulate(in, hw.V100(), Config{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if r3.MicroSec == r1.MicroSec {
		t.Error("seed has no effect")
	}
}

func TestSimulatePlatformMismatch(t *testing.T) {
	in := instance(t, "matmul", variants.GPU, 64, 64, map[string]float64{"n": 128})
	if _, err := Simulate(in, hw.Power9(), Config{}); err == nil {
		t.Error("gpu variant on CPU accepted")
	}
	in2 := instance(t, "matmul", variants.CPU, 0, 8, map[string]float64{"n": 128})
	if _, err := Simulate(in2, hw.V100(), Config{}); err == nil {
		t.Error("cpu variant on GPU accepted")
	}
}

func TestRuntimeGrowsWithProblemSize(t *testing.T) {
	for _, m := range machinesOf(false) {
		small := simulate(t, instance(t, "matmul", variants.CPU, 0, 8, map[string]float64{"n": 128}), m)
		big := simulate(t, instance(t, "matmul", variants.CPU, 0, 8, map[string]float64{"n": 512}), m)
		if big.MicroSec <= small.MicroSec {
			t.Errorf("%s: runtime did not grow with n: %v vs %v", m.Name, small.MicroSec, big.MicroSec)
		}
		// n scales cubically; runtime should grow by far more than 2x.
		if big.MicroSec < 8*small.MicroSec {
			t.Errorf("%s: weak scaling with size: %v -> %v", m.Name, small.MicroSec, big.MicroSec)
		}
	}
}

func TestMoreThreadsHelpOnCPU(t *testing.T) {
	for _, m := range machinesOf(false) {
		t1 := simulate(t, instance(t, "matmul", variants.CPU, 0, 1, map[string]float64{"n": 512}), m)
		t16 := simulate(t, instance(t, "matmul", variants.CPU, 0, 16, map[string]float64{"n": 512}), m)
		if t16.MicroSec >= t1.MicroSec {
			t.Errorf("%s: 16 threads not faster than 1: %v vs %v", m.Name, t16.MicroSec, t1.MicroSec)
		}
		speedup := t1.MicroSec / t16.MicroSec
		if speedup < 2 || speedup > 16 {
			t.Errorf("%s: implausible 16-thread speedup %v", m.Name, speedup)
		}
	}
}

func TestGPUWinsAtScaleLosesAtSmall(t *testing.T) {
	// Large matmul: V100 should beat 8-thread POWER9 clearly.
	big := map[string]float64{"n": 1024}
	gpuBig := simulate(t, instance(t, "matmul", variants.GPUCollapse, 256, 256, big), hw.V100())
	cpuBig := simulate(t, instance(t, "matmul", variants.CPU, 0, 8, big), hw.Power9())
	if gpuBig.MicroSec >= cpuBig.MicroSec {
		t.Errorf("V100 (%v us) should beat POWER9/8t (%v us) on n=1024 matmul",
			gpuBig.MicroSec, cpuBig.MicroSec)
	}
	// Tiny kernel with data transfer: CPU should win (launch+transfer tolls).
	small := map[string]float64{"n": 4096}
	gpuSmall := simulate(t, instance(t, "pf_motion", variants.GPUMem, 64, 64, small), hw.V100())
	cpuSmall := simulate(t, instance(t, "pf_motion", variants.CPU, 0, 8, small), hw.Power9())
	if cpuSmall.MicroSec >= gpuSmall.MicroSec {
		t.Errorf("POWER9 (%v us) should beat V100+transfer (%v us) on tiny kernel",
			cpuSmall.MicroSec, gpuSmall.MicroSec)
	}
}

func TestTransferTollOnMemVariants(t *testing.T) {
	bind := map[string]float64{"n": 512}
	resident := simulate(t, instance(t, "matmul", variants.GPU, 128, 128, bind), hw.V100())
	withMem := simulate(t, instance(t, "matmul", variants.GPUMem, 128, 128, bind), hw.V100())
	if withMem.MicroSec <= resident.MicroSec {
		t.Errorf("gpu_mem (%v) should cost more than gpu (%v)", withMem.MicroSec, resident.MicroSec)
	}
	if withMem.Breakdown.TransferUS <= 0 {
		t.Error("gpu_mem has zero transfer time")
	}
	if resident.Breakdown.TransferUS != 0 {
		t.Errorf("resident gpu has transfer time %v", resident.Breakdown.TransferUS)
	}
}

func TestCollapseHelpsThinOuterLoops(t *testing.T) {
	// cov_matrix: outer loops m×m with inner reduction over n. With m=64 the
	// uncollapsed outer loop (64 iterations) cannot fill a GPU; collapse(2)
	// exposes 4096.
	bind := map[string]float64{"n": 1024, "m": 64}
	plain := simulate(t, instance(t, "covariance_matrix", variants.GPU, 256, 64, bind), hw.V100())
	collapsed := simulate(t, instance(t, "covariance_matrix", variants.GPUCollapse, 256, 64, bind), hw.V100())
	if collapsed.MicroSec >= plain.MicroSec {
		t.Errorf("collapse (%v us) should beat plain (%v us) on thin outer loop",
			collapsed.MicroSec, plain.MicroSec)
	}
	if collapsed.Breakdown.EffParallelism <= plain.Breakdown.EffParallelism {
		t.Errorf("collapse parallelism %v should exceed plain %v",
			collapsed.Breakdown.EffParallelism, plain.Breakdown.EffParallelism)
	}
}

func TestNoiseIsBoundedAndDisablable(t *testing.T) {
	in := instance(t, "transpose", variants.CPU, 0, 4, map[string]float64{"n": 512, "m": 512})
	r, err := Simulate(in, hw.EPYC7401(), Config{Seed: 7, NoiseSigma: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if r.Breakdown.NoiseFactor < 0.7 || r.Breakdown.NoiseFactor > 1.4 {
		t.Errorf("noise factor %v outside plausible range", r.Breakdown.NoiseFactor)
	}
	rNo, err := Simulate(in, hw.EPYC7401(), Config{Seed: 7, NoiseSigma: -1})
	if err != nil {
		t.Fatal(err)
	}
	if rNo.Breakdown.NoiseFactor != 1 {
		t.Errorf("disabled noise factor = %v", rNo.Breakdown.NoiseFactor)
	}
}

func TestSimulateBadSource(t *testing.T) {
	in := variants.Instance{Source: "void broken( {", Kind: variants.CPU, Threads: 1}
	if _, err := Simulate(in, hw.Power9(), Config{}); err == nil {
		t.Error("bad source accepted")
	}
}

func TestBreakdownComponentsNonNegative(t *testing.T) {
	for _, k := range apps.Kernels() {
		bind := map[string]float64{}
		for _, p := range k.Params {
			bind[p.Name] = float64(p.Values[0])
		}
		for _, kind := range variants.Kinds() {
			if kind.IsCollapse() && !k.Collapsible {
				continue
			}
			var machines []hw.Machine
			if kind.IsGPU() {
				machines = machinesOf(true)
			} else {
				machines = machinesOf(false)
			}
			for _, m := range machines {
				in := instance(t, k.Name, kind, 64, 64, bind)
				r := simulate(t, in, m)
				b := r.Breakdown
				for name, v := range map[string]float64{
					"compute": b.ComputeUS, "memory": b.MemoryUS,
					"transfer": b.TransferUS, "overhead": b.OverheadUS,
					"reduction": b.ReductionUS,
				} {
					if v < 0 || math.IsNaN(v) {
						t.Errorf("%s/%v on %s: %s = %v", k.Name, kind, m.Name, name, v)
					}
				}
				if b.EffParallelism < 1 {
					t.Errorf("%s/%v on %s: parallelism %v < 1", k.Name, kind, m.Name, b.EffParallelism)
				}
			}
		}
	}
}

func TestMillisecondsConversion(t *testing.T) {
	r := Result{MicroSec: 2500}
	if r.Milliseconds() != 2.5 {
		t.Errorf("Milliseconds = %v", r.Milliseconds())
	}
}

func TestMachineModels(t *testing.T) {
	ms := hw.All()
	if len(ms) != 4 {
		t.Fatalf("machines = %d, want 4", len(ms))
	}
	for _, m := range ms {
		if m.PeakGFLOPS() <= 0 {
			t.Errorf("%s: no peak", m.Name)
		}
		if m.MaxParallelism() <= 0 {
			t.Errorf("%s: no parallelism", m.Name)
		}
	}
	// GPUs should have order-of-magnitude higher peak than CPUs.
	if hw.V100().PeakGFLOPS() < 5*hw.Power9().PeakGFLOPS() {
		t.Error("V100 peak implausibly low vs POWER9")
	}
	if _, err := hw.ByName("IBM POWER9 (CPU)"); err != nil {
		t.Errorf("ByName: %v", err)
	}
	if _, err := hw.ByName("nonsense"); err == nil {
		t.Error("ByName(nonsense) should fail")
	}
	if len(machinesOf(false)) != 2 || len(machinesOf(true)) != 2 {
		t.Error("CPU/GPU split wrong")
	}
}

// machinesOf returns hw.All()'s GPU platforms (gpu) or its CPU platforms.
func machinesOf(gpu bool) []hw.Machine {
	var out []hw.Machine
	for _, m := range hw.All() {
		if m.IsGPU == gpu {
			out = append(out, m)
		}
	}
	return out
}

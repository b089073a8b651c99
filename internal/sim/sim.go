// Package sim is the runtime-measurement substrate: an analytical
// performance simulator standing in for the paper's Summit and Corona runs
// (the "Runtime Measurement Module" of Figure 3).
//
// The model is a roofline with parallel-efficiency and overhead terms:
//
//	time = region/launch overhead
//	     + host<->device transfer (map clauses)
//	     + max(compute time, memory time) at the achieved parallelism
//	     + reduction tree cost
//
// multiplied by deterministic, seeded lognormal noise so repeated
// measurements of the same configuration scatter like real runs. Absolute
// numbers are not meant to match the paper's clusters; the qualitative
// structure (GPU wins at scale, transfer-heavy variants pay a fixed toll,
// collapse recovers occupancy on thin outer loops, wide dynamic range per
// platform) is what the cost model learns and is preserved.
package sim

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"paragraph/internal/analysis"
	"paragraph/internal/cparse"
	"paragraph/internal/fp"
	"paragraph/internal/hw"
	"paragraph/internal/variants"
)

// Config controls simulation.
type Config struct {
	// Seed feeds the deterministic noise; two simulations with the same
	// seed, instance and machine return identical results.
	Seed int64
	// NoiseSigma is the lognormal sigma of run-to-run variation. Zero
	// selects the default 0.04; negative disables noise.
	NoiseSigma float64
}

func (c Config) noiseSigma() float64 {
	if c.NoiseSigma == 0 {
		return 0.04
	}
	if c.NoiseSigma < 0 {
		return 0
	}
	return c.NoiseSigma
}

// cacheHit is the fraction of loads/stores served by caches and never
// reaching DRAM.
func cacheHit(isGPU bool) float64 {
	if isGPU {
		return 0.8
	}
	return 0.7
}

// Breakdown itemizes a simulated runtime (microseconds).
type Breakdown struct {
	ComputeUS   float64
	MemoryUS    float64
	TransferUS  float64
	OverheadUS  float64
	ReductionUS float64
	// EffParallelism is the achieved worker count after occupancy limits.
	EffParallelism float64
	// NoiseFactor is the multiplicative noise applied to the total.
	NoiseFactor float64
}

// Result is one simulated measurement.
type Result struct {
	MicroSec  float64
	Breakdown Breakdown
}

// Milliseconds returns the runtime in ms (the unit of the paper's tables).
func (r Result) Milliseconds() float64 { return r.MicroSec / 1000 }

// Simulate parses the instance's source, analyzes it, and models its
// runtime on machine m. CPU variants must be paired with CPU machines and
// GPU variants with GPU machines, mirroring the paper's data collection.
func Simulate(in variants.Instance, m hw.Machine, cfg Config) (Result, error) {
	fn, err := cparse.ParseFunction(in.Source)
	if err != nil {
		return Result{}, fmt.Errorf("sim: parsing instance %s: %w", in.Name(), err)
	}
	kc := analysis.AnalyzeKernel(fn, in.Bindings, analysis.DefaultTrip)
	return SimulateCost(kc, in, m, cfg)
}

// SimulateCost models the runtime of an already-analyzed kernel.
func SimulateCost(kc analysis.KernelCost, in variants.Instance, m hw.Machine, cfg Config) (Result, error) {
	if in.Kind.IsGPU() != m.IsGPU {
		return Result{}, fmt.Errorf("sim: variant %v cannot run on %s", in.Kind, m.Name)
	}
	var b Breakdown
	if m.IsGPU {
		b = gpuBreakdown(kc, in, m)
	} else {
		b = cpuBreakdown(kc, in, m)
	}
	// Roofline: compute and memory overlap; take the max rather than sum.
	total := math.Max(b.ComputeUS, b.MemoryUS)
	total += b.TransferUS + b.OverheadUS + b.ReductionUS
	b.NoiseFactor = noiseFactor(in, m, cfg)
	total *= b.NoiseFactor
	return Result{MicroSec: total, Breakdown: b}, nil
}

// cpuBreakdown models a parallel-for region on a multicore CPU.
func cpuBreakdown(kc analysis.KernelCost, in variants.Instance, m hw.Machine) Breakdown {
	var b Breakdown
	threads := float64(in.Threads)
	if threads < 1 {
		threads = 1
	}
	cores := float64(m.Cores)

	// Effective speedup: linear with a per-thread efficiency tax, capped at
	// the core count (oversubscription gains nothing, costs a little).
	p := math.Min(threads, cores)
	eff := p / (1 + float64(0.015*(p-1)))
	if threads > cores {
		eff *= 0.95
	}
	// The iteration space bounds usable parallelism: a 4-iteration loop on
	// 22 cores uses 4.
	if kc.ParallelIters > 0 && kc.ParallelIters < eff {
		eff = math.Max(kc.ParallelIters, 1)
	}
	b.EffParallelism = eff

	clockHz := float64(m.ClockGHz * 1e9)
	// Scalar pipelines: flops at FlopsPerCycle per core only with perfect
	// vectorization; benchmark kernels reach about a third of that.
	flopRate := clockHz * m.FlopsPerCycle * 0.35 // per core
	intRate := clockHz * 2                       // per core
	mathCycles := 40.0

	serialComputeSec := kc.Flops/flopRate + kc.IntOps/intRate +
		kc.MathCalls*mathCycles/clockHz + kc.Branches*3/clockHz
	b.ComputeUS = serialComputeSec / eff * 1e6

	missBytes := (kc.Loads + kc.Stores) * 8 * (1 - cacheHit(false))
	// Bandwidth saturates after a handful of cores.
	bwFrac := math.Min(1, m.SingleCoreBWFrac*math.Max(eff, 1))
	b.MemoryUS = missBytes / (m.MemBWGBs * 1e9 * bwFrac) * 1e6

	b.OverheadUS = m.RegionOverheadUS + float64(threads*m.PerWorkerUS)
	if kc.ReductionOps > 0 {
		b.ReductionUS = float64(kc.ReductionOps) * fp.Log2(math.Max(threads, 2)) * 0.5
	}
	return b
}

// gpuBreakdown models an offloaded target-teams region on a GPU.
func gpuBreakdown(kc analysis.KernelCost, in variants.Instance, m hw.Machine) Breakdown {
	var b Breakdown
	teams := float64(in.Teams)
	if teams < 1 {
		teams = 1
	}
	threads := float64(in.Threads)
	if threads < 1 {
		threads = 1
	}
	hwLanes := float64(m.MaxParallelism())

	// Achieved parallelism: configured teams×threads, bounded by the
	// distributed iteration space (collapse(2) multiplies it) and by the
	// hardware.
	pCfg := teams * threads
	pIter := kc.ParallelIters
	if pIter <= 0 {
		pIter = pCfg
	}
	pAvail := math.Min(pCfg, pIter)
	pEff := math.Min(pAvail, hwLanes)
	b.EffParallelism = pEff

	clockHz := float64(m.ClockGHz * 1e9)
	occupancy := math.Max(pEff/hwLanes, 1e-4)

	// Compute: the whole-device rate scaled by occupancy, but never faster
	// than the per-lane rate times available lanes (few-thread kernels run
	// at scalar speed).
	peak := m.PeakGFLOPS() * 1e9 * 0.5 // sustained fraction of DP peak
	deviceRate := peak * occupancy
	laneRate := clockHz * math.Max(pEff, 1)
	rate := math.Min(deviceRate, laneRate)
	if rate <= 0 {
		rate = clockHz
	}
	mathCycles := 25.0 // GPUs have fast special-function units
	computeSec := (kc.Flops+float64(kc.IntOps*0.5))/rate +
		kc.MathCalls*mathCycles/(clockHz*math.Max(pEff/32, 1)) +
		kc.Branches*8/(clockHz*math.Max(pEff/32, 1)) // divergence tax
	b.ComputeUS = computeSec * 1e6

	missBytes := (kc.Loads + kc.Stores) * 8 * (1 - cacheHit(true))
	// Memory bandwidth needs high occupancy to saturate (latency hiding).
	bwFrac := math.Min(1, math.Max(pEff/(hwLanes*0.25), 0.02))
	b.MemoryUS = missBytes / (m.MemBWGBs * 1e9 * bwFrac) * 1e6

	b.TransferUS = float64(kc.TransferBytes/(m.LinkBWGBs*1e9)*1e6) +
		float64(float64(kc.MappedArrays)*m.LinkLatencyUS)
	b.OverheadUS = m.RegionOverheadUS + float64(teams*m.PerWorkerUS)
	if kc.ReductionOps > 0 {
		b.ReductionUS = float64(kc.ReductionOps) * fp.Log2(math.Max(pEff, 2)) * 0.8
	}
	return b
}

// noiseFactor derives a deterministic lognormal factor from the instance and
// machine identity.
func noiseFactor(in variants.Instance, m hw.Machine, cfg Config) float64 {
	sigma := cfg.noiseSigma()
	if sigma == 0 {
		return 1
	}
	h := fnv.New64a()
	h.Write([]byte(in.Name()))
	h.Write([]byte{0})
	h.Write([]byte(m.Name))
	seed := int64(h.Sum64()) ^ cfg.Seed
	rng := rand.New(rand.NewSource(seed))
	return fp.Exp(sigma * rng.NormFloat64())
}

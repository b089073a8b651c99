// Package hw defines analytical machine models for the four accelerators the
// paper evaluates on: IBM POWER9 and NVIDIA V100 (ORNL Summit), and AMD EPYC
// 7401 and AMD MI50 (LLNL Corona). The models are calibrated from public
// datasheets; they stand in for the real clusters, which this reproduction
// cannot access (internal/sim consumes them as the measurement substrate).
package hw

import (
	"fmt"
	"strings"
)

// Machine is an analytical accelerator model consumed by the runtime
// simulator (package sim). Units: GHz, GB/s, microseconds.
type Machine struct {
	Name    string
	Cluster string // "Summit" or "Corona"
	IsGPU   bool

	// Compute.
	Cores         int     // CPU cores, or GPU SMs/CUs
	ClockGHz      float64 // sustained clock
	FlopsPerCycle float64 // double-precision flops per core (or per SM) per cycle

	// Memory.
	MemBWGBs float64 // sustained main-memory bandwidth

	// Parallel runtime overheads.
	RegionOverheadUS float64 // entering a parallel region / launching a kernel
	PerWorkerUS      float64 // additional cost per thread/team activated

	// GPU-only: host<->device link.
	LinkBWGBs     float64 // PCIe/NVLink sustained bandwidth
	LinkLatencyUS float64 // per-transfer latency

	// GPU-only: occupancy shape.
	ThreadsPerCore int // hardware threads per SM needed to saturate (GPU)

	// CPU-only: memory bandwidth saturation — fraction of peak a single
	// core can draw.
	SingleCoreBWFrac float64
}

// PeakGFLOPS returns the whole-machine double-precision peak in GFLOP/s.
func (m Machine) PeakGFLOPS() float64 {
	return float64(m.Cores) * m.ClockGHz * m.FlopsPerCycle
}

// MaxParallelism returns the hardware worker count that saturates compute.
func (m Machine) MaxParallelism() int {
	if m.IsGPU {
		return m.Cores * m.ThreadsPerCore
	}
	return m.Cores
}

// String returns the machine name.
func (m Machine) String() string { return m.Name }

// Slug renders a machine name as the file-system name its checkpoints
// (registry: <root>/<slug>/<version>) live under: lower-cased, each run of
// anything but [a-z0-9] one dash, none leading or trailing ("NVIDIA V100
// (GPU)" → "nvidia-v100-gpu"). Registries on disk are laid out by it; the
// manifest keeps the real name.
func Slug(name string) string {
	var b strings.Builder
	dash := false
	for _, r := range strings.ToLower(name) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
			dash = false
		default:
			if !dash && b.Len() > 0 {
				b.WriteByte('-')
				dash = true
			}
		}
	}
	return strings.TrimSuffix(b.String(), "-")
}

// Power9 models one socket of Summit's IBM POWER9 (22 cores used, as in the
// paper's Table III).
func Power9() Machine {
	return Machine{
		Name:             "IBM POWER9 (CPU)",
		Cluster:          "Summit",
		IsGPU:            false,
		Cores:            22,
		ClockGHz:         3.45,
		FlopsPerCycle:    8, // 2×128-bit VSX FMA
		MemBWGBs:         140,
		RegionOverheadUS: 4,
		PerWorkerUS:      0.6,
		SingleCoreBWFrac: 0.18,
	}
}

// V100 models Summit's NVIDIA Tesla V100 (SXM2).
func V100() Machine {
	return Machine{
		Name:             "NVIDIA V100 (GPU)",
		Cluster:          "Summit",
		IsGPU:            true,
		Cores:            80, // SMs
		ClockGHz:         1.53,
		FlopsPerCycle:    64, // 32 DP cores × FMA per SM
		MemBWGBs:         900,
		RegionOverheadUS: 8,
		PerWorkerUS:      0.002,
		LinkBWGBs:        45, // NVLink2 host link on Summit
		LinkLatencyUS:    10,
		ThreadsPerCore:   2048 / 32, // resident warps' lanes per DP pipe
	}
}

// EPYC7401 models Corona's AMD EPYC 7401 (24 cores).
func EPYC7401() Machine {
	return Machine{
		Name:             "AMD EPYC7401 (CPU)",
		Cluster:          "Corona",
		IsGPU:            false,
		Cores:            24,
		ClockGHz:         2.0,
		FlopsPerCycle:    8,
		MemBWGBs:         120,
		RegionOverheadUS: 5,
		PerWorkerUS:      0.8,
		SingleCoreBWFrac: 0.15,
	}
}

// MI50 models Corona's AMD Radeon Instinct MI50.
func MI50() Machine {
	return Machine{
		Name:             "AMD MI50 (GPU)",
		Cluster:          "Corona",
		IsGPU:            true,
		Cores:            60, // CUs
		ClockGHz:         1.725,
		FlopsPerCycle:    32, // 16 DP ops × FMA per CU
		MemBWGBs:         1024,
		RegionOverheadUS: 14, // ROCm launch overhead is higher than CUDA's
		PerWorkerUS:      0.004,
		LinkBWGBs:        14, // PCIe gen3 x16 sustained
		LinkLatencyUS:    16,
		ThreadsPerCore:   2560 / 16,
	}
}

// All returns the four paper platforms in Table II/III order.
func All() []Machine {
	return []Machine{Power9(), V100(), EPYC7401(), MI50()}
}

// ByName returns the machine with the given name.
func ByName(name string) (Machine, error) {
	for _, m := range All() {
		if m.Name == name {
			return m, nil
		}
	}
	return Machine{}, fmt.Errorf("hw: unknown machine %q", name)
}

// CPUs returns the CPU platforms.
func CPUs() []Machine { return []Machine{Power9(), EPYC7401()} }

// GPUs returns the GPU platforms.
func GPUs() []Machine { return []Machine{V100(), MI50()} }

// Package variants implements the code-transformation module of the paper's
// pipeline (the role OpenMP Advisor played): given a serial benchmark kernel
// it generates the six OpenMP variants evaluated in §IV-A.1 —
//
//	cpu               omp parallel for
//	cpu_collapse      omp parallel for collapse(2)
//	gpu               omp target teams distribute parallel for (data resident)
//	gpu_collapse      ... collapse(2) (data resident)
//	gpu_mem           gpu + map clauses (host<->device transfer)
//	gpu_collapse_mem  gpu_collapse + map clauses
//
// and sweeps parallelism levels (teams, threads) and problem sizes to build
// the dataset's kernel instances.
package variants

import (
	"fmt"
	"strings"

	"paragraph/internal/analysis"
	"paragraph/internal/apps"
)

// Kind enumerates the six transformations.
type Kind int

// Variant kinds, in the paper's order.
const (
	CPU Kind = iota
	CPUCollapse
	GPU
	GPUCollapse
	GPUMem
	GPUCollapseMem

	NumKinds // sentinel
)

var kindNames = [NumKinds]string{
	CPU:            "cpu",
	CPUCollapse:    "cpu_collapse",
	GPU:            "gpu",
	GPUCollapse:    "gpu_collapse",
	GPUMem:         "gpu_mem",
	GPUCollapseMem: "gpu_collapse_mem",
}

// String returns the paper's variant name.
func (k Kind) String() string {
	if k >= 0 && k < NumKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind is String's inverse: it maps the paper's variant name
// ("cpu", "gpu_collapse_mem", ...) back to its kind.
func ParseKind(name string) (Kind, error) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("unknown variant %q", name)
}

// IsGPU reports whether the variant offloads to a device.
func (k Kind) IsGPU() bool { return k >= GPU }

// IsCollapse reports whether the variant collapses the outer loop nest.
func (k Kind) IsCollapse() bool {
	return k == CPUCollapse || k == GPUCollapse || k == GPUCollapseMem
}

// HasTransfer reports whether the variant pays host<->device data movement.
func (k Kind) HasTransfer() bool { return k == GPUMem || k == GPUCollapseMem }

// Kinds returns all six variant kinds.
func Kinds() []Kind {
	ks := make([]Kind, NumKinds)
	for i := range ks {
		ks[i] = Kind(i)
	}
	return ks
}

// Instance is one concrete kernel variant: a transformation applied to a
// kernel template with bound sizes and parallelism. It is the unit the
// dataset is built from (one Instance × one platform = one data point).
type Instance struct {
	Kernel   apps.Kernel
	Kind     Kind
	Teams    int // OpenMP teams (GPU variants; 0 for CPU)
	Threads  int // threads per team (GPU) or total threads (CPU)
	Bindings analysis.Env
	Source   string // transformed C source
}

// Name returns a stable, human-readable instance identifier.
func (in Instance) Name() string {
	var parts []string
	parts = append(parts, in.Kernel.Name, in.Kind.String())
	for _, p := range in.Kernel.Params {
		parts = append(parts, fmt.Sprintf("%s%v", p.Name, in.Bindings[p.Name]))
	}
	parts = append(parts, fmt.Sprintf("g%d", in.Teams), fmt.Sprintf("t%d", in.Threads))
	return strings.Join(parts, "_")
}

// Generate applies the transformation to the kernel template, producing the
// transformed source. It fails when a collapse variant is requested for a
// non-collapsible kernel.
func Generate(k apps.Kernel, kind Kind, teams, threads int) (string, error) {
	if err := k.Validate(); err != nil {
		return "", err
	}
	if kind.IsCollapse() && !k.Collapsible {
		return "", fmt.Errorf("variants: kernel %q is not collapsible", k.Name)
	}
	if kind < 0 || kind >= NumKinds {
		return "", fmt.Errorf("variants: unknown variant kind %d", int(kind))
	}
	dir := directiveFor(k, kind, teams, threads)
	return strings.Replace(k.Source, apps.PragmaMarker, dir, 1), nil
}

// directiveFor builds the pragma text for the variant.
func directiveFor(k apps.Kernel, kind Kind, teams, threads int) string {
	var sb strings.Builder
	sb.WriteString("#pragma omp ")
	if kind.IsGPU() {
		sb.WriteString("target teams distribute parallel for")
	} else {
		sb.WriteString("parallel for")
	}
	if kind.IsCollapse() {
		sb.WriteString(" collapse(2)")
	}
	if kind.IsGPU() {
		if teams > 0 {
			fmt.Fprintf(&sb, " num_teams(%d)", teams)
		}
		if threads > 0 {
			fmt.Fprintf(&sb, " thread_limit(%d) num_threads(%d)", threads, threads)
		}
	} else if threads > 0 {
		fmt.Fprintf(&sb, " num_threads(%d)", threads)
	}
	if kind.HasTransfer() {
		for _, a := range k.Arrays {
			fmt.Fprintf(&sb, " map(tofrom: %s[0:%s])", a.Name, a.SizeExpr)
		}
	}
	return sb.String()
}

// SweepConfig controls instance generation.
type SweepConfig struct {
	// CPUThreads are the thread counts swept for cpu variants.
	CPUThreads []int
	// GPUTeams and GPUThreads are swept jointly for gpu variants.
	GPUTeams   []int
	GPUThreads []int
	// MaxSizesPerKernel truncates each parameter's sweep to bound dataset
	// size; zero keeps everything.
	MaxSizesPerKernel int
}

// DefaultSweep mirrors the paper's setup at reduced scale: it reaches a few
// thousand instances per application when fully enumerated.
func DefaultSweep() SweepConfig {
	return SweepConfig{
		CPUThreads: []int{1, 2, 4, 8, 16, 22, 24},
		GPUTeams:   []int{16, 64, 128, 256},
		GPUThreads: []int{64, 128, 256},
	}
}

// Sweep enumerates all instances of one kernel under the config: every
// variant kind × parameter combination × parallelism level.
func Sweep(k apps.Kernel, cfg SweepConfig) ([]Instance, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	bindingSets := enumerateBindings(k.Params, cfg.MaxSizesPerKernel)
	var out []Instance
	for _, kind := range Kinds() {
		if kind.IsCollapse() && !k.Collapsible {
			continue
		}
		type pt struct{ teams, threads int }
		var levels []pt
		if kind.IsGPU() {
			for _, g := range cfg.GPUTeams {
				for _, t := range cfg.GPUThreads {
					levels = append(levels, pt{g, t})
				}
			}
		} else {
			for _, t := range cfg.CPUThreads {
				levels = append(levels, pt{0, t})
			}
		}
		for _, b := range bindingSets {
			for _, lv := range levels {
				src, err := Generate(k, kind, lv.teams, lv.threads)
				if err != nil {
					return nil, err
				}
				out = append(out, Instance{
					Kernel:   k,
					Kind:     kind,
					Teams:    lv.teams,
					Threads:  lv.threads,
					Bindings: b,
					Source:   src,
				})
			}
		}
	}
	return out, nil
}

// SweepAll enumerates instances for every kernel in the suite.
func SweepAll(cfg SweepConfig) ([]Instance, error) {
	var out []Instance
	for _, k := range apps.Kernels() {
		ins, err := Sweep(k, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, ins...)
	}
	return out, nil
}

// enumerateBindings produces the cross product of parameter sweeps.
func enumerateBindings(params []apps.Param, maxPerParam int) []analysis.Env {
	sets := []analysis.Env{{}}
	for _, p := range params {
		values := p.Values
		if maxPerParam > 0 && len(values) > maxPerParam {
			values = values[:maxPerParam]
		}
		var next []analysis.Env
		for _, base := range sets {
			for _, v := range values {
				env := analysis.Env{}
				for k, x := range base {
					env[k] = x
				}
				env[p.Name] = float64(v)
				next = append(next, env)
			}
		}
		sets = next
	}
	return sets
}

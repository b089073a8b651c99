package hw

import (
	"math/rand"
	"strings"
	"testing"
)

func TestAllPlatformsPresent(t *testing.T) {
	ms := All()
	if len(ms) != 4 {
		t.Fatalf("machines = %d, want 4", len(ms))
	}
	wantClusters := map[string]string{
		"IBM POWER9 (CPU)":   "Summit",
		"NVIDIA V100 (GPU)":  "Summit",
		"AMD EPYC7401 (CPU)": "Corona",
		"AMD MI50 (GPU)":     "Corona",
	}
	for _, m := range ms {
		want, ok := wantClusters[m.Name]
		if !ok {
			t.Errorf("unexpected machine %q", m.Name)
			continue
		}
		if m.Cluster != want {
			t.Errorf("%s cluster = %q, want %q", m.Name, m.Cluster, want)
		}
	}
}

func TestCoreCountsMatchPaper(t *testing.T) {
	// Table III: POWER9 with 22 cores, EPYC 7401 with 24 cores.
	if Power9().Cores != 22 {
		t.Errorf("POWER9 cores = %d, want 22", Power9().Cores)
	}
	if EPYC7401().Cores != 24 {
		t.Errorf("EPYC cores = %d, want 24", EPYC7401().Cores)
	}
	// Public specs: V100 has 80 SMs, MI50 has 60 CUs.
	if V100().Cores != 80 {
		t.Errorf("V100 SMs = %d, want 80", V100().Cores)
	}
	if MI50().Cores != 60 {
		t.Errorf("MI50 CUs = %d, want 60", MI50().Cores)
	}
}

func TestPeaksAreOrderedSanely(t *testing.T) {
	// DP peak ordering: V100 ≳ MI50 ≫ POWER9 > EPYC.
	v, mi := V100().PeakGFLOPS(), MI50().PeakGFLOPS()
	p9, ep := Power9().PeakGFLOPS(), EPYC7401().PeakGFLOPS()
	if v < mi {
		t.Errorf("V100 peak %v < MI50 peak %v", v, mi)
	}
	if mi < 5*p9 {
		t.Errorf("MI50 peak %v should dwarf POWER9 %v", mi, p9)
	}
	if p9 < ep {
		t.Errorf("POWER9 peak %v < EPYC %v", p9, ep)
	}
	// V100 DP peak is ~7.8 TFLOPS; the model must land in that decade.
	if v < 3000 || v > 20000 {
		t.Errorf("V100 peak %v GFLOPS implausible", v)
	}
}

func TestGPUMemoryBandwidthExceedsCPUs(t *testing.T) {
	for _, g := range byKind(true) {
		for _, c := range byKind(false) {
			if g.MemBWGBs <= c.MemBWGBs {
				t.Errorf("%s BW %v should exceed %s BW %v", g.Name, g.MemBWGBs, c.Name, c.MemBWGBs)
			}
		}
	}
}

func TestGPULinkFields(t *testing.T) {
	if g := byKind(true); len(g) != 2 || g[0].Name != V100().Name || g[1].Name != MI50().Name {
		t.Errorf("GPUs = %v, want V100 and MI50", g)
	}
	for _, g := range byKind(true) {
		if g.LinkBWGBs <= 0 || g.LinkLatencyUS <= 0 {
			t.Errorf("%s: missing link model", g.Name)
		}
		if g.ThreadsPerCore <= 0 {
			t.Errorf("%s: missing occupancy shape", g.Name)
		}
	}
	for _, c := range byKind(false) {
		if c.SingleCoreBWFrac <= 0 || c.SingleCoreBWFrac > 1 {
			t.Errorf("%s: SingleCoreBWFrac = %v", c.Name, c.SingleCoreBWFrac)
		}
	}
}

func TestMaxParallelism(t *testing.T) {
	if got := Power9().MaxParallelism(); got != 22 {
		t.Errorf("POWER9 parallelism = %d", got)
	}
	if got := V100().MaxParallelism(); got != 80*V100().ThreadsPerCore {
		t.Errorf("V100 parallelism = %d", got)
	}
}

func TestByName(t *testing.T) {
	for _, m := range All() {
		got, err := ByName(m.Name)
		if err != nil {
			t.Errorf("ByName(%q): %v", m.Name, err)
		}
		if got.Name != m.Name {
			t.Errorf("ByName returned %q", got.Name)
		}
	}
	if _, err := ByName("Cray XT5"); err == nil {
		t.Error("unknown machine accepted")
	}
	if s := V100().String(); !strings.Contains(s, "V100") {
		t.Errorf("String = %q", s)
	}
}

func TestSummitFasterLinkThanCorona(t *testing.T) {
	// Summit's NVLink host connection outruns Corona's PCIe gen3 — the
	// asymmetry that makes gpu_mem variants relatively cheaper on Summit.
	if V100().LinkBWGBs <= MI50().LinkBWGBs {
		t.Error("V100 link should be faster than MI50's")
	}
}

// TestSlug pins the one platform → file name rule to what is on disk: the
// four machines map to the directory names existing registries and feedback
// logs were written under (internal/registry/testdata carries one), and a
// slug is its own slug.
func TestSlug(t *testing.T) {
	onDisk := map[string]string{
		"IBM POWER9 (CPU)":   "ibm-power9-cpu",
		"NVIDIA V100 (GPU)":  "nvidia-v100-gpu",
		"AMD EPYC7401 (CPU)": "amd-epyc7401-cpu",
		"AMD MI50 (GPU)":     "amd-mi50-gpu",
	}
	for _, m := range All() {
		want, ok := onDisk[m.Name]
		if !ok {
			t.Errorf("machine %q has no pinned directory name", m.Name)
			continue
		}
		if got := Slug(m.Name); got != want {
			t.Errorf("Slug(%q) = %q, on disk it is %q", m.Name, got, want)
		}
		if got := Slug(want); got != want {
			t.Errorf("Slug not idempotent on %q: %q", want, got)
		}
	}
	for in, want := range map[string]string{
		"AMD EPYC 7401 (CPU)": "amd-epyc-7401-cpu",
		"already-slugged":     "already-slugged",
		"  (lead) and trail ": "lead-and-trail",
		"---":                 "",
		"":                    "",
	} {
		if got := Slug(in); got != want {
			t.Errorf("Slug(%q) = %q, want %q", in, got, want)
		}
	}
}

// feedbackSlugPR22 and registrySlugPR22 are the two functions Slug replaced
// (feedback.Slug and registry.PlatformSlug at PR 22), verbatim. They trimmed
// differently — one suppressed a leading dash by builder length and cut one
// trailing dash, the other by a flag and cut them all — so that they named
// the same files, and Slug names them still, is shown rather than assumed.
func feedbackSlugPR22(platform string) string {
	var b strings.Builder
	dash := false
	for _, r := range strings.ToLower(platform) {
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

func registrySlugPR22(name string) string {
	var b strings.Builder
	lastDash := true // suppress leading dash
	for _, r := range strings.ToLower(name) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
			lastDash = false
		default:
			if !lastDash {
				b.WriteByte('-')
				lastDash = true
			}
		}
	}
	return strings.TrimRight(b.String(), "-")
}

func TestSlugMatchesBothPredecessors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	alphabet := []rune("abzAZ059 -_()./\\\tÉßKK\x00")
	for i := 0; i < 20000; i++ {
		name := make([]rune, rng.Intn(12))
		for j := range name {
			name[j] = alphabet[rng.Intn(len(alphabet))]
		}
		in := string(name)
		if f, r, got := feedbackSlugPR22(in), registrySlugPR22(in), Slug(in); f != r || got != r {
			t.Fatalf("%q: feedback.Slug %q, registry.PlatformSlug %q, hw.Slug %q", in, f, r, got)
		}
	}
}

// byKind returns All()'s GPU platforms (gpu) or its CPU platforms.
func byKind(gpu bool) []Machine {
	var out []Machine
	for _, m := range All() {
		if m.IsGPU == gpu {
			out = append(out, m)
		}
	}
	return out
}

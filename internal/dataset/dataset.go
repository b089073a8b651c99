// Package dataset assembles the training data of Figure 3: kernel variants
// (package variants) are "executed" on the modeled accelerators through the
// cluster substrate (packages sim and cluster), runtimes are recorded per
// platform (Table II), ParaGraphs are built and encoded, and finally
// targets, edge weights and the (teams, threads) features are normalized
// with a MinMax scaler and split 9:1 into train/validation — matching
// §IV-B. Those three steps are written here once — Scaler, Prepared.Sample,
// Split — for training and serving alike.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"paragraph/internal/cluster"
	"paragraph/internal/fp"
	"paragraph/internal/gnn"
	"paragraph/internal/hw"
	"paragraph/internal/metrics"
	"paragraph/internal/paragraph"
	"paragraph/internal/sim"
	"paragraph/internal/variants"
)

// Point is one measured data point: a kernel instance with its runtime on
// one platform.
type Point struct {
	Instance  variants.Instance
	Machine   string
	RuntimeUS float64
}

// Platform is the per-accelerator dataset slice (one row of Table II).
type Platform struct {
	Machine hw.Machine
	Points  []Point
	Failed  int // measurements lost to simulated node failures
}

// Stats summarizes a platform slice as Table II reports it.
type Stats struct {
	NumPoints    int
	MinRuntimeMS float64
	MaxRuntimeMS float64
	StdDevMS     float64
}

// Stats computes the Table II row for the platform.
func (p *Platform) Stats() Stats {
	ms := make([]float64, len(p.Points))
	for i, pt := range p.Points {
		ms[i] = pt.RuntimeUS / 1000
	}
	s := Stats{NumPoints: len(ms)}
	if len(ms) == 0 {
		return s
	}
	s.MinRuntimeMS = ms[0]
	s.MaxRuntimeMS = ms[0]
	for _, v := range ms {
		if v < s.MinRuntimeMS {
			s.MinRuntimeMS = v
		}
		if v > s.MaxRuntimeMS {
			s.MaxRuntimeMS = v
		}
	}
	s.StdDevMS = metrics.StdDev(ms)
	return s
}

// Config controls collection.
type Config struct {
	Sweep   variants.SweepConfig
	Sim     sim.Config
	Cluster cluster.Config
	// MaxPerPlatform subsamples the instance list per platform (0 = all);
	// used to keep test/bench runs fast.
	MaxPerPlatform int
	Seed           int64
}

// DefaultConfig mirrors the paper's collection at reduced scale.
func DefaultConfig() Config {
	return Config{
		Sweep:   variants.DefaultSweep(),
		Sim:     sim.Config{Seed: 1},
		Cluster: cluster.Config{FailureRate: 0.01, Seed: 1},
		Seed:    1,
	}
}

// Collect generates the dataset slice for one platform: CPU machines
// measure the cpu/cpu_collapse variants, GPU machines the four gpu
// variants, as in the paper's Summit/Corona runs. Measurements go through
// the cluster substrate, so a small fraction is lost to simulated node
// failures (and excluded, like the paper's corrupted Laplace data on MI50).
func Collect(m hw.Machine, cfg Config) (*Platform, error) {
	all, err := variants.SweepAll(cfg.Sweep)
	if err != nil {
		return nil, err
	}
	var mine []variants.Instance
	for _, in := range all {
		if in.Kind.IsGPU() == m.IsGPU {
			mine = append(mine, in)
		}
	}
	if cfg.MaxPerPlatform > 0 && len(mine) > cfg.MaxPerPlatform {
		rng := rand.New(rand.NewSource(cfg.Seed ^ int64(len(m.Name))))
		rng.Shuffle(len(mine), func(i, j int) { mine[i], mine[j] = mine[j], mine[i] })
		mine = mine[:cfg.MaxPerPlatform]
		sort.Slice(mine, func(i, j int) bool { return mine[i].Name() < mine[j].Name() })
	}

	jobs := make([]cluster.Job, len(mine))
	for i, in := range mine {
		in := in
		jobs[i] = cluster.Job{
			ID: in.Name(),
			Run: func() (float64, error) {
				r, err := sim.Simulate(in, m, cfg.Sim)
				if err != nil {
					return 0, err
				}
				return r.MicroSec, nil
			},
		}
	}
	cl := cluster.New(cfg.Cluster)
	results, stats := cl.Submit(jobs)

	p := &Platform{Machine: m, Failed: stats.Failed}
	for i, r := range results {
		if r.Err != nil {
			continue
		}
		p.Points = append(p.Points, Point{
			Instance:  mine[i],
			Machine:   m.Name,
			RuntimeUS: r.Value,
		})
	}
	if len(p.Points) == 0 {
		return nil, fmt.Errorf("dataset: no successful measurements on %s", m.Name)
	}
	return p, nil
}

// Scaler is the MinMax scaler of §IV-B, mapping [min,max] to [0,1].
type Scaler struct {
	Min, Max float64
}

// FitScaler learns the bounds of xs.
func FitScaler(xs []float64) Scaler {
	if len(xs) == 0 {
		return Scaler{0, 1}
	}
	s := Scaler{Min: xs[0], Max: xs[0]}
	for _, v := range xs[1:] {
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	return s
}

// Scale maps v into [0,1] (clamping outside the fitted range).
func (s Scaler) Scale(v float64) float64 {
	if s.Max <= s.Min {
		return 0
	}
	x := (v - s.Min) / (s.Max - s.Min)
	return math.Max(0, math.Min(1, x))
}

// Unscale inverts Scale (without clamping).
func (s Scaler) Unscale(x float64) float64 { return s.Min + float64(x*(s.Max-s.Min)) }

// Prepared is a platform dataset ready for training.
type Prepared struct {
	Train []*gnn.Sample
	Val   []*gnn.Sample
	// TargetScaler maps log(runtime µs) to [0,1]; DescaleUS inverts a
	// scaled prediction back to microseconds.
	TargetScaler Scaler
	TeamScaler   Scaler
	ThreadScaler Scaler
	WScale       float64
}

// DescaleUS converts a scaled model output back to microseconds.
func (p *Prepared) DescaleUS(scaled float64) float64 {
	return fp.Exp(p.TargetScaler.Unscale(scaled))
}

// logUS is the target transform: runtimes span orders of magnitude (Table
// II's ranges), so the model regresses their logarithm, floored at a
// nanosecond so a zero measurement stays finite.
func logUS(us float64) float64 { return fp.Log(math.Max(us, 1e-3)) }

// Sample is the one constructor of a model-ready sample: it scales an
// encoded graph at grid point (teams, threads), measured at measuredUS
// microseconds, with p's scalers, and sets the graph's WScale. Training
// (Prepare) and serving (advisor) both come through here, so a point is the
// same sample wherever it is built. An
// unmeasured point passes 0 and gets the scaler's floor as its Target, which
// nothing reads.
func (p *Prepared) Sample(g *gnn.Graph, teams, threads int, measuredUS float64) *gnn.Sample {
	g.WScale = p.WScale
	return &gnn.Sample{
		G:      g,
		Feats:  [2]float64{p.TeamScaler.Scale(float64(teams)), p.ThreadScaler.Scale(float64(threads))},
		Target: p.TargetScaler.Scale(logUS(measuredUS)),
		RawUS:  measuredUS,
	}
}

// valFraction is the paper's 9:1 split (§IV-B).
const valFraction = 0.1

// Split is the one seeded train/validation split: of the n samples xs, a
// seed-drawn max(1, ⌊n·valFraction⌋) go to validation and the rest to
// training, each in the drawn order. Neither side is empty for n >= 2; below
// that there is nothing to split and train is empty.
func Split[T any](xs []T, seed int64) (train, val []T) {
	order := rand.New(rand.NewSource(seed)).Perm(len(xs))
	nVal := max(int(float64(len(xs))*valFraction), 1)
	for i, idx := range order {
		if i < nVal {
			val = append(val, xs[idx])
		} else {
			train = append(train, xs[idx])
		}
	}
	return train, val
}

// PrepConfig controls sample preparation.
type PrepConfig struct {
	Level paragraph.Level
	Seed  int64 // of the train/validation split
}

// Prepare builds graph samples for every point at the requested
// representation level, on GOMAXPROCS workers fanned over topology
// families, fits the scalers on the whole slice, and splits
// train/validation.
func Prepare(points []Point, cfg PrepConfig) (*Prepared, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("dataset: no points to prepare")
	}

	graphs := make([]*gnn.Graph, len(points))
	errs := make([]error, len(points))
	families := groupByTopology(points)
	var wg sync.WaitGroup
	work := make(chan family)
	workers := min(runtime.GOMAXPROCS(0), len(families))
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for f := range work {
				f.encode(points, cfg.Level, graphs, errs)
			}
		}()
	}
	for _, f := range families {
		work <- f
	}
	close(work)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("dataset: point %d (%s): %w", i, points[i].Instance.Name(), err)
		}
	}

	// Fit scalers over the full slice.
	logT := make([]float64, len(points))
	teams := make([]float64, len(points))
	threads := make([]float64, len(points))
	var wmax float64
	for i, pt := range points {
		logT[i] = logUS(pt.RuntimeUS)
		teams[i] = float64(pt.Instance.Teams)
		threads[i] = float64(pt.Instance.Threads)
		if w := graphs[i].MaxLogWeight(); w > wmax {
			wmax = w
		}
	}
	prep := &Prepared{
		TargetScaler: FitScaler(logT),
		TeamScaler:   FitScaler(teams),
		ThreadScaler: FitScaler(threads),
		WScale:       math.Max(wmax, 1),
	}
	samples := make([]*gnn.Sample, len(points))
	for i, pt := range points {
		in := pt.Instance
		samples[i] = prep.Sample(graphs[i], in.Teams, in.Threads, pt.RuntimeUS)
		samples[i].App, samples[i].Name = in.Kernel.App, in.Name()
	}
	prep.Train, prep.Val = Split(samples, cfg.Seed)
	return prep, nil
}

// family is the points of one slice that share a topology: one kernel
// template's sources at one variant kind spelling the same clauses, which
// differ only in the literals Grid.Graph rewrites. directive is the offset
// NewEncoder takes. A point whose source is not what variants.Generate yields
// for its fields is a family of one, encoded as itself (directive -1).
type family struct {
	directive int
	points    []int // indices into the slice, increasing
}

// groupByTopology partitions points into families, in order of first
// appearance. Membership is observed, not assumed: a point joins a family
// only if its Source is exactly what variants.Generate writes from the
// kernel of the family's first point at the point's own (teams, threads).
func groupByTopology(points []Point) []family {
	type key struct {
		template       string
		kind           variants.Kind
		teams, threads bool // which clauses the directive spells
	}
	index := map[key]int{}
	var families []family
	for i, pt := range points {
		in := pt.Instance
		k := key{in.Kernel.Source, in.Kind, in.Teams > 0, in.Threads > 0}
		f, seen := index[k]
		from := in.Kernel
		if seen {
			from = points[families[f].points[0]].Instance.Kernel
		}
		if src, err := variants.Generate(from, in.Kind, in.Teams, in.Threads); err != nil || src != in.Source {
			families = append(families, family{directive: -1, points: []int{i}})
			continue
		}
		if !seen {
			f = len(families)
			index[k] = f
			families = append(families, family{directive: in.Kernel.PragmaOffset()})
		}
		families[f].points = append(families[f].points, i)
	}
	return families
}

// encode builds the family's graphs: one Encoder, one Grid per distinct
// bindings, one weight column per distinct (threads, bindings). A source
// that does not parse fails every member — they differ only in literals.
func (f family) encode(points []Point, level paragraph.Level, graphs []*gnn.Graph, errs []error) {
	enc, err := NewEncoder(points[f.points[0]].Instance.Source, level, f.directive)
	if err != nil {
		for _, i := range f.points {
			errs[i] = err
		}
		return
	}
	grids := map[string]*Grid{}
	for _, i := range f.points {
		in := points[i].Instance
		bk := in.Bindings.Key()
		grid := grids[bk]
		if grid == nil {
			grid = enc.Bind(in.Bindings)
			grids[bk] = grid
		}
		graphs[i], errs[i] = grid.Graph(in.Teams, in.Threads)
	}
}

// Package experiments regenerates every table and figure of the paper's
// evaluation (§IV–V). A Runner caches the expensive shared artifacts —
// collected platform datasets, prepared samples, trained models — so the
// table/figure functions compose without repeating work. Each exported
// table/figure function names the paper artifact it reproduces.
package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"paragraph/internal/cluster"
	"paragraph/internal/compoff"
	"paragraph/internal/dataset"
	"paragraph/internal/gnn"
	"paragraph/internal/hw"
	"paragraph/internal/nn"
	"paragraph/internal/paragraph"
	"paragraph/internal/sim"
	"paragraph/internal/variants"
)

// Scale sizes an experiment run. The paper's full protocol (~26k points per
// platform pair, 100+ epochs) is reachable with Full(); Small() keeps the
// whole suite in CI/laptop territory while preserving every qualitative
// conclusion; Tiny() is for benchmarks and smoke tests.
type Scale struct {
	Name           string
	MaxPerPlatform int // dataset points per platform (0 = everything)
	Epochs         int // GNN training epochs
	CompoffEpochs  int
	Hidden         int // GNN width
	Layers         int // RGAT layers (paper: 3)
	BatchSize      int
	LR             float64
	Seed           int64
}

// Tiny is the smoke-test scale.
func Tiny() Scale {
	return Scale{Name: "tiny", MaxPerPlatform: 120, Epochs: 8, CompoffEpochs: 15,
		Hidden: 12, Layers: 2, BatchSize: 16, LR: 5e-3, Seed: 1}
}

// Small is the default scale: minutes on a laptop, same conclusions.
func Small() Scale {
	return Scale{Name: "small", MaxPerPlatform: 640, Epochs: 36, CompoffEpochs: 60,
		Hidden: 24, Layers: 3, BatchSize: 32, LR: 3e-3, Seed: 1}
}

// Full approximates the paper's protocol. Hours of CPU time.
func Full() Scale {
	return Scale{Name: "full", MaxPerPlatform: 0, Epochs: 100, CompoffEpochs: 100,
		Hidden: 32, Layers: 3, BatchSize: 64, LR: 3e-3, Seed: 1}
}

// ParseScale reads a -scale flag value: tiny, small or full, ignoring case.
func ParseScale(name string) (Scale, error) {
	switch strings.ToLower(name) {
	case "tiny":
		return Tiny(), nil
	case "small":
		return Small(), nil
	case "full":
		return Full(), nil
	}
	return Scale{}, fmt.Errorf("unknown scale %q (want tiny, small or full)", name)
}

// Trained bundles a trained cost model with its data and training history.
type Trained struct {
	Model *gnn.Model
	Prep  *dataset.Prepared
	Hist  gnn.History
	Level paragraph.Level
}

// ValActualPredMS returns (actual, predicted) runtimes in milliseconds over
// the validation split.
func (t *Trained) ValActualPredMS() (actual, pred []float64) {
	return valActualPredMS(t.Prep, t.Model.PredictAll(t.Prep.Val, runtime.GOMAXPROCS(0)))
}

// valActualPredMS pairs prep's validation runtimes with a model's scaled
// predictions for them, both in milliseconds.
func valActualPredMS(prep *dataset.Prepared, scaled []float64) (actual, pred []float64) {
	actual = make([]float64, len(prep.Val))
	pred = make([]float64, len(prep.Val))
	for i, s := range prep.Val {
		actual[i] = s.RawUS / 1000
		pred[i] = prep.DescaleUS(scaled[i]) / 1000
	}
	return actual, pred
}

// ValApps returns the application name of each validation sample.
func (t *Trained) ValApps() []string {
	apps := make([]string, len(t.Prep.Val))
	for i, s := range t.Prep.Val {
		apps[i] = s.App
	}
	return apps
}

// Runner caches datasets and models across experiments.
type Runner struct {
	Scale Scale

	mu    sync.Mutex
	memos map[string]*memo
}

// memo is one cached artifact, built once.
type memo struct {
	once sync.Once
	val  any
	err  error
}

type trainedCompoff struct {
	model   *compoff.Model
	samples []*compoff.Sample // validation split, aligned with prep.Val
	prep    *dataset.Prepared
}

// NewRunner returns a Runner at the given scale.
func NewRunner(scale Scale) *Runner {
	return &Runner{Scale: scale, memos: map[string]*memo{}}
}

// cached returns r's artifact under key, running build on the first call.
// Concurrent callers of one key wait for that one build and share its
// result, an error included; callers of other keys do not wait on it.
func cached[T any](r *Runner, key string, build func() (T, error)) (T, error) {
	r.mu.Lock()
	m, ok := r.memos[key]
	if !ok {
		m = &memo{}
		r.memos[key] = m
	}
	r.mu.Unlock()
	m.once.Do(func() { m.val, m.err = build() })
	v, _ := m.val.(T)
	return v, m.err
}

// datasetConfig derives the collection configuration from the scale.
func (r *Runner) datasetConfig() dataset.Config {
	return dataset.Config{
		Sweep:          variants.DefaultSweep(),
		Sim:            sim.Config{Seed: r.Scale.Seed},
		Cluster:        cluster.Config{Nodes: runtime.GOMAXPROCS(0), FailureRate: 0.01, MaxRetries: 3, Seed: r.Scale.Seed},
		MaxPerPlatform: r.Scale.MaxPerPlatform,
		Seed:           r.Scale.Seed,
	}
}

// Platform returns (collecting on first use) the dataset slice for machine m.
func (r *Runner) Platform(m hw.Machine) (*dataset.Platform, error) {
	return cached(r, "platform/"+m.Name, func() (*dataset.Platform, error) {
		return dataset.Collect(m, r.datasetConfig())
	})
}

// Prepared returns (building on first use) the prepared samples for machine
// m at a representation level.
func (r *Runner) Prepared(m hw.Machine, level paragraph.Level) (*dataset.Prepared, error) {
	return cached(r, fmt.Sprintf("prepared/%s/%d", m.Name, level), func() (*dataset.Prepared, error) {
		p, err := r.Platform(m)
		if err != nil {
			return nil, err
		}
		return dataset.Prepare(p.Points, dataset.PrepConfig{Level: level, Seed: r.Scale.Seed})
	})
}

// Trained returns (training on first use) the GNN model for machine m at a
// representation level.
func (r *Runner) Trained(m hw.Machine, level paragraph.Level) (*Trained, error) {
	return cached(r, fmt.Sprintf("trained/%s/%d", m.Name, level), func() (*Trained, error) {
		prep, err := r.Prepared(m, level)
		if err != nil {
			return nil, err
		}
		model := gnn.NewModel(gnn.Config{
			Hidden:    r.Scale.Hidden,
			Layers:    r.Scale.Layers,
			Relations: int(paragraph.NumEdgeTypes),
			Seed:      r.Scale.Seed,
		})
		hist, err := model.Train(prep.Train, prep.Val, gnn.TrainConfig{
			Epochs:    r.Scale.Epochs,
			BatchSize: r.Scale.BatchSize,
			LR:        r.Scale.LR,
			Seed:      r.Scale.Seed,
		})
		if err != nil {
			return nil, err
		}
		return &Trained{Model: model, Prep: prep, Hist: hist, Level: level}, nil
	})
}

// Compoff returns (training on first use) the COMPOFF baseline for a GPU
// machine. Its samples share the GNN's target scaling and 9:1 split so the
// two models are compared on identical validation points (Figures 8–9).
func (r *Runner) Compoff(m hw.Machine) (*trainedCompoff, error) {
	if !m.IsGPU {
		return nil, fmt.Errorf("experiments: COMPOFF supports GPU platforms only (got %s)", m.Name)
	}
	return cached(r, "compoff/"+m.Name, func() (*trainedCompoff, error) {
		p, err := r.Platform(m)
		if err != nil {
			return nil, err
		}
		prep, err := r.Prepared(m, paragraph.LevelParaGraph)
		if err != nil {
			return nil, err
		}
		// Index points by instance name to align COMPOFF samples with the
		// GNN's split.
		byName := map[string]dataset.Point{}
		for _, pt := range p.Points {
			byName[pt.Instance.Name()] = pt
		}
		build := func(gs []*gnn.Sample) ([]*compoff.Sample, error) {
			out := make([]*compoff.Sample, len(gs))
			for i, s := range gs {
				pt, ok := byName[s.Name]
				if !ok {
					return nil, fmt.Errorf("experiments: point %s missing", s.Name)
				}
				feats, err := compoff.Extract(pt.Instance, 0)
				if err != nil {
					return nil, err
				}
				out[i] = &compoff.Sample{Feats: feats, Target: s.Target, RawUS: s.RawUS, Name: s.Name}
			}
			return out, nil
		}
		trainS, err := build(prep.Train)
		if err != nil {
			return nil, err
		}
		valS, err := build(prep.Val)
		if err != nil {
			return nil, err
		}
		model := compoff.NewModel(compoff.Config{Hidden: 32, Seed: r.Scale.Seed})
		if _, err := model.Train(trainS, valS, nn.TrainConfig{
			Epochs: r.Scale.CompoffEpochs,
			Seed:   r.Scale.Seed,
		}); err != nil {
			return nil, err
		}
		return &trainedCompoff{model: model, samples: valS, prep: prep}, nil
	})
}

// valActualPredMS is Trained.ValActualPredMS for the baseline.
func (tc *trainedCompoff) valActualPredMS() (actual, pred []float64) {
	return valActualPredMS(tc.prep, tc.model.PredictAll(tc.samples))
}

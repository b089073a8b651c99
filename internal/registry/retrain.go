package registry

import (
	"fmt"
	"time"

	"paragraph/internal/dataset"
	"paragraph/internal/feedback"
	"paragraph/internal/gnn"
)

// The retrain path turns the feedback log back into model weights, offline
// (`train -from-feedback`): measured (source, grid point, runtime) records
// become ParaGraph samples scaled with the *stable checkpoint's* manifest
// scalers (never refit — the serving stack around the weights must keep
// meaning the same thing), the stable model is fine-tuned incrementally
// from its current weights, and the result is saved as a plain new version.
// Nothing points traffic at it: the next serve boot makes whichever version
// pickDefault names the platform's default.

// RetrainOptions tunes RetrainFromFeedback. Batch size, learning rate and
// workers are gnn.FitIncremental's, the validation share is dataset.Split's,
// and the feedback floor is the constant below: no caller ever set another.
type RetrainOptions struct {
	// Name names the new checkpoint; "" derives a unique
	// "fb-<UTC timestamp>" name.
	Name string
	// Epochs of gnn.FitIncremental (its incremental default when zero).
	Epochs int
	// Seed of the train/validation split and the trainer's shuffles.
	Seed int64
}

// minRetrainRecords gates retraining until enough usable feedback exists to
// train on and validate against.
const minRetrainRecords = 20

// RetrainResult reports what a retrain produced.
type RetrainResult struct {
	Version      Checkpoint // the saved version
	Stable       string     // the version the retrain started from
	Default      string     // the platform's default alias with Version on disk
	TrainSamples int
	ValSamples   int
	Skipped      int // feedback records that could not be rebuilt into samples
	FinalValRMSE float64
}

// RetrainFromFeedback fine-tunes platform's stable checkpoint — its default
// alias under root — on measured feedback records and saves the result as a
// new version under root. The usable records are split by dataset.Split —
// max(1, ⌊n/10⌋) of them validate, the rest train — so the new manifest
// always reports a real validation.
func RetrainFromFeedback(root, platform string, recs []feedback.Record, opts RetrainOptions) (RetrainResult, error) {
	var res RetrainResult

	// Resolve the stable checkpoint to fine-tune from.
	cps, err := Discover(root)
	if err != nil {
		return res, err
	}
	var plat []Checkpoint
	taken := map[string]bool{}
	for _, cp := range cps {
		if cp.Manifest.Platform == platform {
			plat = append(plat, cp)
			taken[cp.Manifest.Name] = true
		}
	}
	if len(plat) == 0 {
		return res, fmt.Errorf("registry: retrain: no checkpoints for platform %q under %s", platform, root)
	}
	stable := pickDefault(plat)
	res.Stable = stable.Manifest.Name

	// A private copy of the stable, loaded like any other: fine-tuning
	// mutates its weights, and whoever serves the stable keeps their own.
	e, err := load(stable)
	if err != nil {
		return res, err
	}

	// Rebuild samples from the feedback records with the manifest's scalers.
	samples, skipped := e.feedbackSamples(recs)
	res.Skipped = skipped
	if len(samples) < minRetrainRecords {
		return res, fmt.Errorf("registry: retrain: only %d usable feedback records for %s (need %d)",
			len(samples), platform, minRetrainRecords)
	}
	train, val := dataset.Split(samples, opts.Seed)
	res.TrainSamples, res.ValSamples = len(train), len(val)

	hist, err := e.model.FitIncremental(train, val, gnn.TrainConfig{Epochs: opts.Epochs, Seed: opts.Seed})
	if err != nil {
		return res, fmt.Errorf("registry: retrain: %w", err)
	}
	res.FinalValRMSE = hist.FinalValRMSE()

	name := opts.Name
	if name == "" {
		name = fmt.Sprintf("fb-%s", time.Now().UTC().Format("20060102-150405"))
		for i := 2; ; i++ {
			if !taken[name] {
				break
			}
			name = fmt.Sprintf("fb-%s.%d", time.Now().UTC().Format("20060102-150405"), i)
		}
	}
	if err := validName(name); err != nil {
		return res, err
	}
	if name == res.Stable {
		return res, fmt.Errorf("registry: retrain: new version name %q equals the stable version", name)
	}

	res.Version, err = save(root, e.Machine, name, e.Level, e.model, e.Prep, TrainInfo{
		Scale:        "feedback",
		Epochs:       len(hist.TrainLoss),
		TrainSamples: len(train),
		ValSamples:   len(val),
		FinalValRMSE: res.FinalValRMSE,
	})
	if err != nil {
		return res, err
	}
	res.Default = pickDefault(append(plat, res.Version)).Manifest.Name
	return res, nil
}

// feedbackSamples rebuilds training samples from the feedback records of
// e's platform with e's scalers and level, through the constructor training
// and serving use (dataset.Prepared.Sample). Records whose source no longer
// parses, or that belong to a different platform, are counted in skipped
// rather than failing the batch.
func (e *Entry) feedbackSamples(recs []feedback.Record) (samples []*gnn.Sample, skipped int) {
	for _, rec := range recs {
		if rec.Platform != e.Manifest.Platform || rec.Validate() != nil {
			skipped++
			continue
		}
		eg, err := dataset.EncodeSource(rec.Source, e.Level, rec.Threads, rec.Bindings)
		if err != nil {
			skipped++
			continue
		}
		s := e.Prep.Sample(eg, rec.Teams, rec.Threads, rec.MeasuredUS)
		s.App, s.Name = rec.Kernel, rec.Kernel+"/"+rec.Variant
		samples = append(samples, s)
	}
	return samples, skipped
}

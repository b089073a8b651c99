package registry

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"paragraph/internal/dataset"
	"paragraph/internal/feedback"
	"paragraph/internal/gnn"
	"paragraph/internal/paragraph"
)

// The retrain path turns the feedback log back into model weights: measured
// (source, grid point, runtime) records become ParaGraph samples scaled with
// the *stable checkpoint's* manifest scalers (never refit — the serving
// stack around the weights must keep meaning the same thing), the stable
// model is fine-tuned incrementally from its current weights, and the result
// is saved as a new candidate version with the platform's rollout state
// pointed at it.

// RetrainOptions tunes RetrainFromFeedback. Zero values take the noted
// defaults.
type RetrainOptions struct {
	// CandidateName names the new checkpoint; "" derives a unique
	// "fb-<UTC timestamp>" name.
	CandidateName string
	// SplitPct is the canary traffic percentage recorded in the rollout
	// state for the new candidate. Default 10.
	SplitPct float64
	// Epochs / BatchSize / LR / Workers feed gnn.FitIncremental (its
	// incremental defaults apply when zero).
	Epochs    int
	BatchSize int
	LR        float64
	Workers   int
	Seed      int64
	// ValFraction of the feedback samples is held out for validation.
	// Default 0.1.
	ValFraction float64
	// MinRecords gates retraining until enough usable feedback exists.
	// Default 20.
	MinRecords int
}

// RetrainResult reports what a retrain produced.
type RetrainResult struct {
	Candidate    Checkpoint
	Stable       string // the version the retrain started from
	TrainSamples int
	ValSamples   int
	Skipped      int // feedback records that could not be rebuilt into samples
	FinalValRMSE float64
}

// RetrainFromFeedback fine-tunes platform's stable checkpoint on measured
// feedback records and saves the result as a candidate version under root,
// updating the platform's rollout state to point at it. The stable version
// is the rollout state's stable when set (and still on disk), else the
// platform's default alias.
func RetrainFromFeedback(root, platform string, recs []feedback.Record, opts RetrainOptions) (RetrainResult, error) {
	var res RetrainResult
	if opts.SplitPct <= 0 {
		opts.SplitPct = 10
	}
	if opts.SplitPct > 100 {
		opts.SplitPct = 100
	}
	if opts.ValFraction <= 0 {
		opts.ValFraction = 0.1
	}
	if opts.MinRecords <= 0 {
		opts.MinRecords = 20
	}

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
	st, err := LoadRollout(root, platform)
	if err != nil {
		return res, err
	}
	stable := pickDefault(plat)
	if st != nil && st.Stable != "" {
		for _, cp := range plat {
			if cp.Manifest.Name == st.Stable {
				stable = cp
			}
		}
	}
	res.Stable = stable.Manifest.Name

	// A private copy of the stable, loaded like any other: fine-tuning
	// mutates its weights, and whoever serves the stable keeps their own.
	// Its per-epoch validation runs in float64, as training from scratch
	// validates, so the two kinds of manifest report comparable RMSEs.
	e, err := load(stable)
	if err != nil {
		return res, err
	}
	e.model.SetFloat32Inference(false)

	// Rebuild samples from the feedback records with the manifest's scalers.
	samples, skipped := FeedbackSamples(recs, platform, e.Manifest, e.Level)
	res.Skipped = skipped
	if len(samples) < opts.MinRecords {
		return res, fmt.Errorf("registry: retrain: only %d usable feedback records for %s (need %d)",
			len(samples), platform, opts.MinRecords)
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	rng.Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
	nVal := int(float64(len(samples)) * opts.ValFraction)
	if nVal >= len(samples) {
		nVal = len(samples) - 1
	}
	val, train := samples[:nVal], samples[nVal:]
	res.TrainSamples, res.ValSamples = len(train), len(val)

	hist, err := e.model.FitIncremental(train, val, gnn.TrainConfig{
		Epochs:    opts.Epochs,
		BatchSize: opts.BatchSize,
		LR:        opts.LR,
		Workers:   opts.Workers,
		Seed:      opts.Seed,
	})
	if err != nil {
		return res, fmt.Errorf("registry: retrain: %w", err)
	}
	if rmse := hist.FinalValRMSE(); !math.IsInf(rmse, 1) {
		res.FinalValRMSE = rmse
	}

	name := opts.CandidateName
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
		return res, fmt.Errorf("registry: retrain: candidate name %q equals the stable version", name)
	}

	res.Candidate, err = save(root, e.Machine, name, e.Level, e.model, e.Prep, TrainInfo{
		Scale:        "feedback",
		Epochs:       len(hist.TrainLoss),
		TrainSamples: len(train),
		ValSamples:   len(val),
		FinalValRMSE: res.FinalValRMSE,
	})
	if err != nil {
		return res, err
	}

	// Point the rollout state at the new candidate.
	if st == nil {
		st = &RolloutState{Platform: platform}
	}
	st.Stable = res.Stable
	st.Candidate = name
	st.SplitPct = opts.SplitPct
	st.Better, st.Worse = 0, 0
	st.Note(RolloutEvent{Event: "candidate", Stable: st.Stable, Candidate: name})
	if err := SaveRollout(root, st); err != nil {
		return res, err
	}
	return res, nil
}

// FeedbackSamples rebuilds gnn training samples from feedback records using
// a checkpoint manifest's scalers (targets are log-runtimes scaled by the
// manifest's target scaler; grid features by its team/thread scalers).
// Records whose source no longer parses, or that belong to a different
// platform, are counted in skipped rather than failing the batch.
func FeedbackSamples(recs []feedback.Record, platform string, man Manifest, level paragraph.Level) ([]*gnn.Sample, int) {
	var out []*gnn.Sample
	skipped := 0
	for _, rec := range recs {
		if rec.Platform != platform || rec.Validate() != nil {
			skipped++
			continue
		}
		eg, err := dataset.EncodeSource(rec.Source, level, rec.Threads, rec.Bindings)
		if err != nil {
			skipped++
			continue
		}
		eg.WScale = man.Scalers.WScale
		s := &gnn.Sample{
			G:      eg,
			RawUS:  rec.MeasuredUS,
			Target: man.Scalers.Target.Scale(math.Log(math.Max(rec.MeasuredUS, 1e-3))),
			App:    rec.Kernel,
			Name:   rec.Kernel + "/" + rec.Variant,
		}
		s.Feats[0] = man.Scalers.Team.Scale(float64(rec.Teams))
		s.Feats[1] = man.Scalers.Thread.Scale(float64(rec.Threads))
		out = append(out, s)
	}
	return out, skipped
}

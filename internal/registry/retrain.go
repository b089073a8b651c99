package registry

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"paragraph/internal/dataset"
	"paragraph/internal/feedback"
	"paragraph/internal/gnn"
	"paragraph/internal/hw"
	"paragraph/internal/paragraph"
)

// The retrain path turns the feedback log back into model weights: measured
// (source, grid point, runtime) records become ParaGraph samples scaled with
// the *stable checkpoint's* manifest scalers (never refit — the serving
// stack around the weights must keep meaning the same thing), the stable
// model is fine-tuned incrementally from its current weights, and the result
// is saved as a new candidate version with the platform's rollout state
// pointed at it.

// LoadCheckpoint reads one checkpoint directory into a resident model,
// verifying config, weights, and checksum — the standalone counterpart of a
// Registry entry load, for callers (retrain, candidate adoption) that want
// the model itself rather than a lazily-loaded serving entry. When f32 is
// true the model also precomputes the float32 inference weights used by the
// serving default.
func LoadCheckpoint(dir string, f32 bool) (*gnn.Model, Checkpoint, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, Checkpoint{}, fmt.Errorf("registry: %w", err)
	}
	var man Manifest
	if err := jsonUnmarshalStrictVersion(raw, &man); err != nil {
		return nil, Checkpoint{}, fmt.Errorf("registry: %s: %w", dir, err)
	}
	cp := Checkpoint{Dir: dir, Manifest: man}
	f, err := os.Open(filepath.Join(dir, weightsFile))
	if err != nil {
		return nil, Checkpoint{}, fmt.Errorf("registry: %s: %w", dir, err)
	}
	defer f.Close()
	m := gnn.NewModel(man.Config)
	if err := m.Load(f); err != nil {
		return nil, Checkpoint{}, fmt.Errorf("registry: %s: config/weights mismatch: %w", dir, err)
	}
	if man.Checksum != "" && m.Checksum() != man.Checksum {
		return nil, Checkpoint{}, fmt.Errorf("registry: %s: weights checksum mismatch", dir)
	}
	if f32 {
		m.SetFloat32Inference(true)
		m.PrecomputeInference()
	}
	return m, cp, nil
}

func jsonUnmarshalStrictVersion(raw []byte, man *Manifest) error {
	if err := json.Unmarshal(raw, man); err != nil {
		return fmt.Errorf("bad manifest: %w", err)
	}
	if man.FormatVersion != FormatVersion {
		return fmt.Errorf("unsupported manifest format %d", man.FormatVersion)
	}
	return nil
}

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

	machine, err := hw.ByName(platform)
	if err != nil {
		return res, fmt.Errorf("registry: retrain: %w", err)
	}

	// Resolve the stable checkpoint to fine-tune from.
	cps, err := Discover(root)
	if err != nil {
		return res, err
	}
	byName := map[string]Checkpoint{}
	for _, cp := range cps {
		if cp.Manifest.Platform == platform {
			byName[cp.Manifest.Name] = cp
		}
	}
	if len(byName) == 0 {
		return res, fmt.Errorf("registry: retrain: no checkpoints for platform %q under %s", platform, root)
	}
	st, err := LoadRollout(root, platform)
	if err != nil {
		return res, err
	}
	var stable Checkpoint
	if st != nil && st.Stable != "" {
		if cp, ok := byName[st.Stable]; ok {
			stable = cp
		}
	}
	if stable.Dir == "" {
		// Default alias: a version literally named "default" wins, else the
		// newest CreatedAt (name as tiebreak), matching pickDefault.
		names := make([]string, 0, len(byName))
		for n := range byName {
			names = append(names, n)
		}
		sort.Strings(names)
		stable = byName[names[0]]
		for _, n := range names[1:] {
			cp := byName[n]
			if stable.Manifest.Name == "default" {
				break
			}
			if cp.Manifest.Name == "default" || cp.Manifest.CreatedAt.After(stable.Manifest.CreatedAt) {
				stable = cp
			}
		}
	}
	res.Stable = stable.Manifest.Name

	model, cp, err := LoadCheckpoint(stable.Dir, false)
	if err != nil {
		return res, err
	}
	man := cp.Manifest
	level, err := ParseLevel(man.Level)
	if err != nil {
		return res, fmt.Errorf("registry: retrain: %w", err)
	}

	// Rebuild samples from the feedback records with the manifest's scalers.
	samples, skipped := FeedbackSamples(recs, platform, man, level)
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

	hist, err := model.FitIncremental(train, val, gnn.TrainConfig{
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
			if _, taken := byName[name]; !taken {
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

	prep := &dataset.Prepared{
		TargetScaler: man.Scalers.Target,
		TeamScaler:   man.Scalers.Team,
		ThreadScaler: man.Scalers.Thread,
		WScale:       man.Scalers.WScale,
	}
	dir, err := Save(root, machine, name, level, model, prep, TrainInfo{
		Scale:        "feedback",
		Epochs:       len(hist.TrainLoss),
		TrainSamples: len(train),
		ValSamples:   len(val),
		FinalValRMSE: res.FinalValRMSE,
	})
	if err != nil {
		return res, err
	}
	cman := man
	cman.Name = name
	res.Candidate = Checkpoint{Dir: dir}
	if _, cp, err := LoadCheckpoint(dir, false); err == nil {
		res.Candidate = cp
	} else {
		res.Candidate.Manifest = cman
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

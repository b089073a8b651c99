// Command train trains the ParaGraph GNN cost model (and optionally the
// COMPOFF baseline) for one platform and reports validation metrics. With
// -save-dir it also writes the trained model as a registry checkpoint
// (internal/registry: weights + manifest) — what cmd/serve -model-dir boots
// from, and the only thing it boots from. Training is a function of its
// seed and data: the same invocation writes the same weights_checksum
// whatever the machine's core count.
//
// With -from-feedback it retrains incrementally instead: measured runtimes
// collected by `serve -feedback-dir` (POST /v1/feedback) are read from the
// given log directory, the platform's stable checkpoint under -save-dir is
// fine-tuned on them, and the result is saved as a *candidate* version with
// the platform's rollout state pointing at it — the same path a serving
// process takes on its own when started with both -feedback-dir and
// -model-dir, available offline for operators who retrain out of band.
//
// Usage:
//
//	train [-scale tiny|small|full] [-platform "NVIDIA V100 (GPU)"]
//	      [-level raw|aug|para] [-compoff] [-epochs N] [-points N]
//	      [-save-dir DIR] [-save-name NAME]
//	train -from-feedback DIR -save-dir DIR [-platform NAME]
//	      [-epochs N] [-save-name NAME]
//
// A feedback retrain needs at least 20 usable records, and its candidate
// takes 10% of unpinned traffic.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"paragraph/internal/experiments"
	"paragraph/internal/feedback"
	"paragraph/internal/hw"
	"paragraph/internal/metrics"
	"paragraph/internal/paragraph"
	"paragraph/internal/registry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "train:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("train", flag.ContinueOnError)
	fs.SetOutput(w)
	scaleName := fs.String("scale", "small", "scale: tiny, small, or full")
	platform := fs.String("platform", "NVIDIA V100 (GPU)", "platform name")
	levelName := fs.String("level", "para", "representation: raw, aug, or para")
	withCompoff := fs.Bool("compoff", false, "also train the COMPOFF baseline (GPU platforms)")
	epochs := fs.Int("epochs", 0, "override training epochs (0 = scale default)")
	points := fs.Int("points", 0, "override dataset points per platform (0 = scale default)")
	saveDir := fs.String("save-dir", "", "write the trained model as a registry checkpoint under this directory")
	saveName := fs.String("save-name", "default", "checkpoint version name within -save-dir")
	fromFeedback := fs.String("from-feedback", "", "incremental retrain: fine-tune the stable checkpoint under -save-dir on measured feedback from this log directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *epochs < 0 {
		return fmt.Errorf("-epochs %d: must not be negative (0 = scale default)", *epochs)
	}
	if *points < 0 {
		return fmt.Errorf("-points %d: must not be negative (0 = scale default)", *points)
	}
	if *saveDir != "" {
		// Reject a bad version name now, not after the training run.
		if err := registry.CheckName(*saveName); err != nil {
			return err
		}
	}
	if *fromFeedback != "" {
		// The candidate name is derived ("fb-<timestamp>") unless the
		// operator explicitly chose one.
		candName := ""
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "save-name" {
				candName = *saveName
			}
		})
		return retrainFromFeedback(w, *fromFeedback, *saveDir, candName, *platform, *epochs)
	}

	scale, err := experiments.ParseScale(*scaleName)
	if err != nil {
		return err
	}
	if *epochs > 0 {
		scale.Epochs = *epochs
	}
	if *points > 0 {
		scale.MaxPerPlatform = *points
	}
	level, err := paragraph.ParseLevel(*levelName)
	if err != nil {
		return err
	}
	m, err := hw.ByName(*platform)
	if err != nil {
		return err
	}

	runner := experiments.NewRunner(scale)
	fmt.Fprintf(w, "training %s model on %s at scale %q\n", level, m.Name, scale.Name)
	tr, err := runner.Trained(m, level)
	if err != nil {
		return err
	}
	for epoch, v := range tr.Hist.ValRMSE {
		sec := tr.Hist.EpochSeconds[epoch]
		fmt.Fprintf(w, "epoch %3d: train loss %.5f, val RMSE (scaled) %.5f, %.1f ms, %.0f samples/s\n",
			epoch+1, tr.Hist.TrainLoss[epoch], v, 1e3*sec, float64(len(tr.Prep.Train))/sec)
	}
	actual, pred := tr.ValActualPredMS()
	fmt.Fprintf(w, "\nvalidation (n=%d): RMSE %.4g ms, Norm-RMSE %.3e, Pearson(log) %.4f\n",
		len(actual), metrics.RMSE(pred, actual), metrics.NormRMSE(pred, actual),
		metrics.LogPearson(pred, actual))

	if *saveDir != "" {
		dir, err := registry.Save(*saveDir, m, *saveName, level, tr.Model, tr.Prep, registry.TrainInfo{
			Scale:        scale.Name,
			Epochs:       scale.Epochs,
			TrainSamples: len(tr.Prep.Train),
			ValSamples:   len(tr.Prep.Val),
			FinalValRMSE: tr.Hist.FinalValRMSE(),
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "checkpoint %s/%s saved to %s\n", m.Name, *saveName, dir)
	}

	if *withCompoff {
		res, err := runner.Figure8()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "COMPOFF comparison: mean rel err ParaGraph %.4f vs COMPOFF %.4f (ParaGraph wins %.1f%%)\n",
			res.ParaGraphMeanErr, res.CompoffMeanErr, 100*res.WinFraction)
	}
	return nil
}

// retrainFromFeedback is the -from-feedback mode: read the measured-runtime
// log, fine-tune the platform's stable checkpoint, save the candidate and
// report the rollout state the serving tier will pick up.
func retrainFromFeedback(w io.Writer, logDir, root, candName, platform string, epochs int) error {
	if root == "" {
		return fmt.Errorf("-from-feedback requires -save-dir (the registry root holding the stable checkpoint)")
	}
	m, err := hw.ByName(platform)
	if err != nil {
		return err
	}
	lg, err := feedback.Open(logDir)
	if err != nil {
		return err
	}
	recs, skipped, err := lg.Read(m.Name)
	if err != nil {
		return err
	}
	if skipped > 0 {
		fmt.Fprintf(w, "warning: skipped %d torn or malformed feedback lines\n", skipped)
	}
	fmt.Fprintf(w, "retraining %s incrementally on %d measured records from %s\n",
		m.Name, len(recs), logDir)
	res, err := registry.RetrainFromFeedback(root, m.Name, recs, registry.RetrainOptions{
		CandidateName: candName,
		Epochs:        epochs,
		Seed:          time.Now().UnixNano(),
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "candidate %s/%s saved to %s (fine-tuned from stable %q)\n",
		m.Name, res.Candidate.Manifest.Name, res.Candidate.Dir, res.Stable)
	fmt.Fprintf(w, "train %d, val %d, unusable %d, final val RMSE (scaled) %.5f\n",
		res.TrainSamples, res.ValSamples, res.Skipped, res.FinalValRMSE)
	fmt.Fprintf(w, "rollout: stable %s, candidate %s at %.0f%% of unpinned traffic\n",
		res.Rollout.Stable, res.Rollout.Candidate, res.Rollout.SplitPct)
	return nil
}

// Command train trains the ParaGraph GNN cost model for one platform and
// reports validation metrics; the COMPOFF comparison is experiments
// -figure 8. With -save-dir it also writes the trained model as a registry
// checkpoint (internal/registry: weights + manifest) — what cmd/serve
// -model-dir boots from, and the only thing it boots from. Training is a
// function of its seed and data: the same invocation writes the same
// weights_checksum whatever the machine's core count.
//
// Usage:
//
//	train [-scale tiny|small|full] [-platform "NVIDIA V100 (GPU)"]
//	      [-level raw|aug|para] [-epochs N] [-points N]
//	      [-save-dir DIR] [-save-name NAME]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"paragraph/internal/experiments"
	"paragraph/internal/hw"
	"paragraph/internal/metrics"
	"paragraph/internal/paragraph"
	"paragraph/internal/registry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "train:", err)
		os.Exit(1)
	}
}

// run writes the training report to w and flag errors and usage to
// stderr.
func run(args []string, w, stderr io.Writer) error {
	fs := flag.NewFlagSet("train", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scaleName := fs.String("scale", "small", "scale: tiny, small, or full")
	platform := fs.String("platform", "NVIDIA V100 (GPU)", "platform name")
	levelName := fs.String("level", "para", "representation: raw, aug, or para")
	epochs := fs.Int("epochs", 0, "override training epochs (0 = scale default)")
	points := fs.Int("points", 0, "override dataset points per platform (0 = scale default)")
	saveDir := fs.String("save-dir", "", "write the trained model as a registry checkpoint under this directory")
	saveName := fs.String("save-name", "default", "checkpoint version name within -save-dir")
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
	return nil
}

package main

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"paragraph/internal/registry"
)

func TestRunFlagErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string // in the error, when set
	}{
		{args: []string{"-scale", "huge"}},
		{args: []string{"-platform", "Cray-1"}},
		{args: []string{"-level", "mega"}},
		{args: []string{"-badflag"}},
		// The removed feedback retrain's split and record floor, and the
		// retrain itself: unknown flags.
		{args: []string{"-rollout-split", "50"}},
		{args: []string{"-min-records", "5"}},
		{args: []string{"-from-feedback", "no-such-log", "-epochs", "-1"}, want: "-from-feedback"},
		// A negative override is refused before any work, not read as the
		// scale default.
		{args: []string{"-epochs", "-1"}, want: "-epochs"},
		{args: []string{"-points", "-4"}, want: "-points"},
	}
	for _, c := range cases {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			err := run(c.args, io.Discard)
			if err == nil {
				t.Fatalf("run(%v) accepted", c.args)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("run(%v) = %v, want an error naming %s", c.args, err, c.want)
			}
		})
	}
}

// TestRunTinyEndToEnd trains a micro model end to end through the CLI path
// and checks the reported metrics are present and sane.
func TestRunTinyEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	var out strings.Builder
	err := run([]string{
		"-scale", "tiny",
		"-epochs", "1",
		"-points", "24",
		"-platform", "IBM POWER9 (CPU)",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"training", "epoch   1", "validation (n="} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	// Each epoch line ends in its wall time and training throughput.
	var loss, rmse, ms, rate float64
	line := got[strings.Index(got, "epoch   1"):]
	line = line[:strings.IndexByte(line, '\n')]
	if _, err := fmt.Sscanf(line, "epoch   1: train loss %f, val RMSE (scaled) %f, %f ms, %f samples/s", &loss, &rmse, &ms, &rate); err != nil || ms <= 0 || rate <= 0 {
		t.Errorf("epoch line %q: want ms per epoch and samples/s (%v)", line, err)
	}
}

// TestSaveDirWritesLoadableCheckpoint trains a micro model with -save-dir
// and verifies the checkpoint opens through the registry with the trained
// platform, name and level.
func TestSaveDirWritesLoadableCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	dir := t.TempDir()
	var out strings.Builder
	err := run([]string{
		"-scale", "tiny",
		"-epochs", "1",
		"-points", "24",
		"-platform", "IBM POWER9 (CPU)",
		"-save-dir", dir,
		"-save-name", "smoke",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "checkpoint IBM POWER9 (CPU)/smoke saved to") {
		t.Errorf("output missing checkpoint line:\n%s", out.String())
	}
	reg, err := registry.Open(dir, registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := reg.Lookup("IBM POWER9 (CPU)", "smoke")
	if err != nil {
		t.Fatal(err)
	}
	if e.Manifest.Level != "ParaGraph" || e.Manifest.Train.Epochs != 1 {
		t.Errorf("manifest = %+v", e.Manifest)
	}
	if e.Manifest.Train.TrainSamples == 0 || e.Manifest.Train.ValSamples == 0 {
		t.Errorf("train info lacks sample counts: %+v", e.Manifest.Train)
	}
}

func TestSaveDirRejectsBadNameEarly(t *testing.T) {
	// The name is validated before training starts, so this is fast.
	err := run([]string{
		"-platform", "IBM POWER9 (CPU)",
		"-save-dir", t.TempDir(), "-save-name", "bad name",
	}, io.Discard)
	if err == nil {
		t.Error("invalid -save-name accepted")
	}
}

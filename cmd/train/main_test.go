package main

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"paragraph/internal/feedback"
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
		// The feedback retrain's split and record floor are constants now.
		{args: []string{"-rollout-split", "50"}},
		{args: []string{"-min-records", "5"}},
		// A negative override is refused before any work, not read as the
		// scale default — in the feedback retrain too.
		{args: []string{"-epochs", "-1"}, want: "-epochs"},
		{args: []string{"-points", "-4"}, want: "-points"},
		{args: []string{"-from-feedback", "no-such-log", "-epochs", "-1"}, want: "-epochs"},
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

// TestFromFeedbackSavesCandidate is the offline retrain: measured records
// in a feedback log fine-tune the stable checkpoint under -save-dir into a
// candidate, which the rollout state then points at.
func TestFromFeedbackSavesCandidate(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	const platform = "IBM POWER9 (CPU)"
	logDir := t.TempDir()
	lg, err := feedback.Open(logDir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := lg.Append(feedback.Record{
			Key: fmt.Sprintf("%064x", i), Platform: platform, Model: "default",
			Kernel: "scale", Variant: "cpu", Threads: 1 + i,
			Bindings:   map[string]float64{"n": float64(100 * (i + 1))},
			Source:     "void scale(double *a, int n) {\n#pragma omp parallel for\nfor (int i = 0; i < n; i++) a[i] = 2.0 * a[i];\n}\n",
			MeasuredUS: float64(50 + 10*i),
		}); err != nil {
			t.Fatal(err)
		}
	}

	// The retrain saves a plain fb-* version beside the stable, writes no
	// rollout state, and prints the version the next serve boot defaults
	// to — which a fresh registry.Open agrees with: the stable while it is
	// literally named "default", else the new, newest version.
	for _, stable := range []string{"default", "v1"} {
		ckpt := t.TempDir()
		if err := run([]string{"-scale", "tiny", "-epochs", "1", "-points", "24",
			"-platform", platform, "-save-dir", ckpt, "-save-name", stable}, io.Discard); err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		if err := run([]string{"-from-feedback", logDir, "-save-dir", ckpt, "-platform", platform,
			"-epochs", "1"}, &out); err != nil {
			t.Fatalf("%v\n%s", err, out.String())
		}
		if !strings.Contains(out.String(), "checkpoint "+platform+"/fb-") {
			t.Errorf("stable %s: output names no fb-* version:\n%s", stable, out.String())
		}
		if strings.Contains(out.String(), "rollout") || strings.Contains(out.String(), "traffic") {
			t.Errorf("stable %s: output still reports a traffic split:\n%s", stable, out.String())
		}
		reg, err := registry.Open(ckpt, registry.Options{})
		if err != nil {
			t.Fatal(err)
		}
		def, err := reg.Lookup(platform, "")
		if err != nil {
			t.Fatal(err)
		}
		name := def.Manifest.Name
		if (stable == "default") != (name == "default") || (stable == "v1") != strings.HasPrefix(name, "fb-") {
			t.Errorf("stable %s: Open defaults to %q", stable, name)
		}
		if want := "default on the next serve boot: " + platform + "/" + name + "\n"; !strings.Contains(out.String(), want) {
			t.Errorf("stable %s: output lacks %q:\n%s", stable, want, out.String())
		}
		if len(reg.Entries()) != 2 {
			t.Errorf("stable %s: %d versions on disk, want the stable and the new one", stable, len(reg.Entries()))
		}
		matches, _ := filepath.Glob(filepath.Join(ckpt, "*", "rollout.json"))
		if len(matches) != 0 {
			t.Errorf("stable %s: the retrain wrote %v", stable, matches)
		}
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

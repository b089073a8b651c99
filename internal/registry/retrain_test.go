package registry

import (
	"fmt"
	"strings"
	"testing"

	"paragraph/internal/feedback"
	"paragraph/internal/hw"
)

const retrainSrc = `
void k(double *a, int n) {
    #pragma omp parallel for
    for (int i = 0; i < n; i++) {
        a[i] = a[i] * 2.0;
    }
}`

func feedbackRecords(n int) []feedback.Record {
	recs := make([]feedback.Record, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, feedback.Record{
			Key:         fmt.Sprintf("%064x", i),
			Platform:    hw.V100().Name,
			Model:       "v1",
			Kernel:      "k",
			Variant:     "cpu",
			Threads:     1 + i%8,
			Bindings:    map[string]float64{"n": float64(100 + 10*i)},
			Source:      retrainSrc,
			PredictedUS: float64(100 + i),
			MeasuredUS:  float64(120 + 2*i),
			UnixNano:    int64(i),
		})
	}
	return recs
}

func TestLoad(t *testing.T) {
	root := t.TempDir()
	orig := saveTest(t, root, hw.V100(), "v1", 7)
	dir := ckptDir(root, hw.V100(), "v1")

	e, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if e.Manifest.Name != "v1" || e.Manifest.Platform != hw.V100().Name || e.Machine.Name != hw.V100().Name {
		t.Fatalf("entry = %+v", e.Manifest)
	}
	if e.model.Checksum() != orig.Checksum() {
		t.Fatal("loaded weights differ from saved")
	}

	// Checksum drift must fail the load.
	rewriteManifest(t, dir, func(man *Manifest) { man.Checksum = strings.Repeat("0", 64) })
	if _, err := Load(dir); err == nil {
		t.Fatal("checksum drift not detected")
	}
	// So must a directory that is not a checkpoint.
	if _, err := Load(t.TempDir()); err == nil {
		t.Fatal("Load of an empty directory succeeded")
	}
}

func TestRetrainFromFeedback(t *testing.T) {
	root := t.TempDir()
	stable := saveTest(t, root, hw.V100(), "v1", 7)
	plat := hw.V100().Name

	res, err := RetrainFromFeedback(root, plat, feedbackRecords(40), RetrainOptions{
		Epochs: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stable != "v1" {
		t.Fatalf("retrain started from %q, want v1", res.Stable)
	}
	if res.TrainSamples+res.ValSamples != 40 || res.Skipped != 0 {
		t.Fatalf("samples = %d train, %d val, %d skipped", res.TrainSamples, res.ValSamples, res.Skipped)
	}
	cand := res.Candidate.Manifest
	if !strings.HasPrefix(cand.Name, "fb-") || cand.Train.Scale != "feedback" {
		t.Fatalf("candidate manifest = %+v", cand)
	}
	// The candidate reuses the stable's scalers verbatim (never refit).
	se, err := Load(ckptDir(root, hw.V100(), "v1"))
	if err != nil {
		t.Fatal(err)
	}
	if cand.Scalers != se.Manifest.Scalers {
		t.Fatalf("candidate scalers %+v != stable scalers %+v", cand.Scalers, se.Manifest.Scalers)
	}
	// Retraining fine-tuned its own copy: the stable on disk is untouched.
	if se.model.Checksum() != stable.Checksum() {
		t.Fatal("retraining changed the stable checkpoint")
	}

	// Fine-tuning moved the weights; the saved candidate is loadable, is
	// what the result says it is, and differs from the stable.
	ce, err := Load(res.Candidate.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if ce.Manifest != cand {
		t.Fatalf("candidate on disk %+v, result reports %+v", ce.Manifest, cand)
	}
	if ce.model.Checksum() == stable.Checksum() {
		t.Fatal("candidate weights identical to stable — no training happened")
	}

	// The rollout state now points at the candidate.
	st, err := LoadRollout(root, plat)
	if err != nil {
		t.Fatal(err)
	}
	if st == nil || st.Stable != "v1" || st.Candidate != cand.Name || st.SplitPct != 10 {
		t.Fatalf("rollout state = %+v", st)
	}
	if len(st.History) == 0 || st.History[len(st.History)-1].Event != "candidate" {
		t.Fatalf("rollout history = %+v", st.History)
	}

	// Both versions open and serve side by side.
	reg, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Lookup(plat, cand.Name); err != nil {
		t.Fatal(err)
	}
}

func TestRetrainGuards(t *testing.T) {
	root := t.TempDir()
	plat := hw.V100().Name

	// No checkpoints yet.
	if _, err := RetrainFromFeedback(root, plat, feedbackRecords(40), RetrainOptions{Epochs: 1}); err == nil {
		t.Fatal("retrain without checkpoints succeeded")
	}

	saveTest(t, root, hw.V100(), "v1", 7)
	// Too little feedback.
	if _, err := RetrainFromFeedback(root, plat, feedbackRecords(3), RetrainOptions{Epochs: 1}); err == nil {
		t.Fatal("retrain below MinRecords succeeded")
	}
	// Records for another platform (or unparseable sources) are skipped.
	recs := feedbackRecords(40)
	for i := range recs[:10] {
		recs[i].Platform = hw.Power9().Name
	}
	recs[10].Source = "not C at all %%%"
	res, err := RetrainFromFeedback(root, plat, recs, RetrainOptions{Epochs: 1, MinRecords: 25, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped != 11 || res.TrainSamples+res.ValSamples != 29 {
		t.Fatalf("skip accounting: %+v", res)
	}
}

package registry

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"paragraph/internal/advisor"
	"paragraph/internal/analysis"
	"paragraph/internal/apps"
	"paragraph/internal/dataset"
	"paragraph/internal/feedback"
	"paragraph/internal/gnn"
	"paragraph/internal/hw"
	"paragraph/internal/paragraph"
	"paragraph/internal/variants"
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
	cand := res.Version.Manifest
	if !strings.HasPrefix(cand.Name, "fb-") || cand.Train.Scale != "feedback" {
		t.Fatalf("new version's manifest = %+v", cand)
	}
	// The new version reuses the stable's scalers verbatim (never refit).
	se, err := Load(ckptDir(root, hw.V100(), "v1"))
	if err != nil {
		t.Fatal(err)
	}
	if cand.Scalers != se.Manifest.Scalers {
		t.Fatalf("new scalers %+v != stable scalers %+v", cand.Scalers, se.Manifest.Scalers)
	}
	// Retraining fine-tuned its own copy: the stable on disk is untouched.
	if se.model.Checksum() != stable.Checksum() {
		t.Fatal("retraining changed the stable checkpoint")
	}

	// Fine-tuning moved the weights; the saved version is loadable, is
	// what the result says it is, and differs from the stable.
	ce, err := Load(res.Version.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if ce.Manifest != cand {
		t.Fatalf("new version on disk %+v, result reports %+v", ce.Manifest, cand)
	}
	if ce.model.Checksum() == stable.Checksum() {
		t.Fatal("new weights identical to stable — no training happened")
	}

	// Both versions open and serve side by side, and the newest — the one
	// just saved — is what the result names the default alias.
	reg, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Lookup(plat, cand.Name); err != nil {
		t.Fatal(err)
	}
	if def, _ := reg.Lookup(plat, ""); res.Default != cand.Name || def.Manifest.Name != res.Default {
		t.Fatalf("result's default = %q, Open's = %q, want the new %q", res.Default, def.Manifest.Name, cand.Name)
	}
}

// TestRetrainAlwaysValidates holds the smallest retrains to the shared split:
// max(1, ⌊n/10⌋) usable records validate, so a retrain's manifest reports a
// real evaluation. (With its own split and a settable floor, six records
// trained on six, validated on none and recorded final_val_rmse 0.) Below
// the fixed floor of twenty usable records a retrain is refused.
func TestRetrainAlwaysValidates(t *testing.T) {
	root := t.TempDir()
	saveTest(t, root, hw.V100(), "v1", 7)
	plat := hw.V100().Name

	res, err := RetrainFromFeedback(root, plat, feedbackRecords(minRetrainRecords+1), RetrainOptions{Epochs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.TrainSamples != 19 || res.ValSamples != 2 {
		t.Fatalf("21 records split %d train / %d val, want 19 / 2", res.TrainSamples, res.ValSamples)
	}
	ce, err := Load(res.Version.Dir)
	if err != nil {
		t.Fatal(err)
	}
	info := ce.Manifest.Train
	if info.TrainSamples != 19 || info.ValSamples != 2 {
		t.Errorf("manifest records %d train / %d val", info.TrainSamples, info.ValSamples)
	}
	if !(info.FinalValRMSE > 0) || info.FinalValRMSE != res.FinalValRMSE {
		t.Errorf("manifest final_val_rmse %v, result %v: not a real evaluation", info.FinalValRMSE, res.FinalValRMSE)
	}

	_, err = RetrainFromFeedback(root, plat, feedbackRecords(minRetrainRecords-1), RetrainOptions{Epochs: 1})
	if err == nil || !strings.Contains(err.Error(), "only 19 usable feedback records") {
		t.Fatalf("retrain on 19 records: %v", err)
	}
}

// TestSampleIsTheSameWhereverItIsBuilt is the three-way parity check behind
// "one sample constructor": for every suite kernel × variant kind of a CPU
// and a GPU machine, the sample dataset.Prepare trains on, the one
// advisor.EncodeInstance serves for that instance from the saved
// checkpoint's scalers, and the one the retrain rebuilds from a feedback
// record of it (measured at the training runtime) agree bit for bit — graph,
// WScale, scaled (teams, threads), and the target where both carry one.
func TestSampleIsTheSameWhereverItIsBuilt(t *testing.T) {
	for _, m := range []hw.Machine{hw.Power9(), hw.V100()} {
		var points []dataset.Point
		var recs []feedback.Record
		for _, k := range apps.Kernels() {
			bindings := analysis.Env{}
			for _, p := range k.Params {
				bindings[p.Name] = float64(p.Values[0])
			}
			for _, kind := range variants.Kinds() {
				if kind.IsGPU() != m.IsGPU || (kind.IsCollapse() && !k.Collapsible) {
					continue
				}
				teams, threads := 0, 8
				if kind.IsGPU() {
					teams, threads = 64, 128
				}
				src, err := variants.Generate(k, kind, teams, threads)
				if err != nil {
					t.Fatal(err)
				}
				in := variants.Instance{Kernel: k, Kind: kind, Teams: teams, Threads: threads, Bindings: bindings, Source: src}
				us := float64(100 + 7*len(points))
				points = append(points, dataset.Point{Instance: in, Machine: m.Name, RuntimeUS: us})
				recs = append(recs, feedback.Record{
					Key: fmt.Sprintf("%064x", len(recs)), Platform: m.Name, Model: "v1",
					Kernel: k.Name, Variant: kind.String(), Teams: teams, Threads: threads,
					Bindings: bindings, Source: src, PredictedUS: us, MeasuredUS: us,
				})
			}
		}
		prep, err := dataset.Prepare(points, dataset.PrepConfig{Level: paragraph.LevelParaGraph, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		trained := map[string]*gnn.Sample{}
		for _, s := range append(append([]*gnn.Sample{}, prep.Train...), prep.Val...) {
			trained[s.Name] = s
		}
		model := newTestModel(1)
		dir, err := Save(t.TempDir(), m, "v1", paragraph.LevelParaGraph, model, prep, TrainInfo{})
		if err != nil {
			t.Fatal(err)
		}
		e, err := Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		rebuilt, skipped := e.feedbackSamples(recs)
		if skipped != 0 || len(rebuilt) != len(points) {
			t.Fatalf("%s: rebuilt %d of %d records, skipped %d", m.Name, len(rebuilt), len(points), skipped)
		}
		a := advisor.New(model, e.Prep, m)
		for i, pt := range points {
			name := pt.Instance.Name()
			want := trained[name]
			served, err := a.EncodeInstance(pt.Instance)
			if err != nil {
				t.Fatal(err)
			}
			for from, got := range map[string]*gnn.Sample{"served": served, "rebuilt from feedback": rebuilt[i]} {
				if !reflect.DeepEqual(got.G, want.G) {
					t.Errorf("%s: the %s graph (WScale %v) is not the training graph (WScale %v)", name, from, got.G.WScale, want.G.WScale)
				}
				if got.Feats != want.Feats {
					t.Errorf("%s: %s feats %v, trained on %v", name, from, got.Feats, want.Feats)
				}
			}
			if got := rebuilt[i]; got.Target != want.Target || got.RawUS != want.RawUS {
				t.Errorf("%s: rebuilt target %v (%v µs), trained on %v (%v µs)", name, got.Target, got.RawUS, want.Target, want.RawUS)
			}
		}
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
		t.Fatal("retrain below the record floor succeeded")
	}
	// Records for another platform (or unparseable sources) are skipped.
	recs := feedbackRecords(40)
	for i := range recs[:10] {
		recs[i].Platform = hw.Power9().Name
	}
	recs[10].Source = "not C at all %%%"
	res, err := RetrainFromFeedback(root, plat, recs, RetrainOptions{Epochs: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped != 11 || res.TrainSamples+res.ValSamples != 29 {
		t.Fatalf("skip accounting: %+v", res)
	}
}

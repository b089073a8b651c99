package registry

import (
	"reflect"
	"strings"
	"testing"

	"paragraph/internal/advisor"
	"paragraph/internal/analysis"
	"paragraph/internal/apps"
	"paragraph/internal/dataset"
	"paragraph/internal/gnn"
	"paragraph/internal/hw"
	"paragraph/internal/paragraph"
	"paragraph/internal/variants"
)

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

// TestSampleIsTheSameWhereverItIsBuilt is the parity check behind "one
// sample constructor": for every suite kernel × variant kind of a CPU and a
// GPU machine, the sample dataset.Prepare trains on and the one
// advisor.EncodeInstance serves for that instance from the saved
// checkpoint's scalers agree bit for bit — graph, WScale and scaled
// (teams, threads).
func TestSampleIsTheSameWhereverItIsBuilt(t *testing.T) {
	for _, m := range []hw.Machine{hw.Power9(), hw.V100()} {
		var points []dataset.Point
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
		a := advisor.New(model, e.Prep, m)
		for _, pt := range points {
			name := pt.Instance.Name()
			want := trained[name]
			served, err := a.EncodeInstance(pt.Instance)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(served.G, want.G) {
				t.Errorf("%s: the served graph (WScale %v) is not the training graph (WScale %v)", name, served.G.WScale, want.G.WScale)
			}
			if served.Feats != want.Feats {
				t.Errorf("%s: served feats %v, trained on %v", name, served.Feats, want.Feats)
			}
		}
	}
}

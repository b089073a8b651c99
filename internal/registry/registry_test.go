package registry

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"paragraph/internal/dataset"
	"paragraph/internal/gnn"
	"paragraph/internal/hw"
	"paragraph/internal/nn"
	"paragraph/internal/paragraph"
)

func testPrep() *dataset.Prepared {
	return &dataset.Prepared{
		TargetScaler: dataset.Scaler{Min: math.Log(10), Max: math.Log(1e6)},
		TeamScaler:   dataset.Scaler{Min: 0, Max: 256},
		ThreadScaler: dataset.Scaler{Min: 1, Max: 256},
		WScale:       10,
	}
}

func newTestModel(seed int64) *gnn.Model {
	return gnn.NewModel(gnn.Config{
		Hidden: 8, FeatHidden: 8, Layers: 1,
		Relations: int(paragraph.NumEdgeTypes), Seed: seed,
	})
}

// testSample builds one model-ready sample so predictions can be compared
// between an original model and its registry round-trip.
func testSample(t *testing.T) *gnn.Sample {
	t.Helper()
	src := `
void k(double *a, int n) {
    #pragma omp parallel for
    for (int i = 0; i < 1000; i++) {
        a[i] = a[i] * 2.0;
    }
}`
	g, err := paragraph.BuildKernel(src, paragraph.Options{
		Level:   paragraph.LevelParaGraph,
		Threads: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	eg, err := gnn.Encode(g, int(paragraph.NumEdgeTypes))
	if err != nil {
		t.Fatal(err)
	}
	eg.WScale = 10
	return &gnn.Sample{G: eg, Feats: [2]float64{0.25, 0.5}}
}

// saveTest writes one checkpoint of an untrained model and returns the model.
func saveTest(t *testing.T, root string, m hw.Machine, name string, seed int64) *gnn.Model {
	t.Helper()
	return saveModel(t, root, m, name, newTestModel(seed))
}

// saveModel writes model as one checkpoint and returns it.
func saveModel(t *testing.T, root string, m hw.Machine, name string, model *gnn.Model) *gnn.Model {
	t.Helper()
	if _, err := Save(root, m, name, paragraph.LevelParaGraph, model, testPrep(), TrainInfo{
		Scale: "tiny", Epochs: 3, TrainSamples: 90, ValSamples: 10, FinalValRMSE: 0.12,
	}); err != nil {
		t.Fatal(err)
	}
	return model
}

func TestSaveOpenRoundTrip(t *testing.T) {
	root := t.TempDir()
	// Trained, so its weights are not the ones the manifest's seed draws:
	// the entry predicts what was saved only if the engine runs on the
	// loaded parameters.
	model := newTestModel(7)
	trainOn := testSample(t)
	trainOn.Target = 0.5
	if _, err := model.Train([]*gnn.Sample{trainOn}, nil, gnn.TrainConfig{Epochs: 3, BatchSize: 1, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	saveModel(t, root, hw.V100(), "default", model)

	reg, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := reg.Lookup(hw.V100().Name, "") // default alias
	if err != nil {
		t.Fatal(err)
	}
	man := e.Manifest
	if man.Platform != hw.V100().Name || man.Name != "default" || man.Level != "ParaGraph" {
		t.Errorf("manifest identity = %+v", man)
	}
	if man.Params != model.NumParams() || man.Checksum != model.Checksum() {
		t.Errorf("manifest params/checksum = %d/%q, want %d/%q",
			man.Params, man.Checksum, model.NumParams(), model.Checksum())
	}
	if man.Train.Epochs != 3 || man.Train.FinalValRMSE != 0.12 {
		t.Errorf("train info = %+v", man.Train)
	}
	if e.Prep.WScale != 10 || e.Prep.TargetScaler != testPrep().TargetScaler {
		t.Errorf("restored scalers = %+v", e.Prep)
	}

	// The served number is the evaluated number: the entry's predictions are,
	// bit for bit, the saved model's.
	s := testSample(t)
	want := model.PredictBatch([]*gnn.Sample{s})[0]
	got := e.PredictBatch([]*gnn.Sample{s})[0]
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("round-trip prediction %v != original %v", got, want)
	}
}

// rewriteManifest loads, mutates and rewrites one checkpoint's manifest.
func rewriteManifest(t *testing.T, dir string, mutate func(*Manifest)) {
	t.Helper()
	path := filepath.Join(dir, "manifest.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var man Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	mutate(&man)
	out, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

func ckptDir(root string, m hw.Machine, name string) string {
	return filepath.Join(root, hw.Slug(m.Name), name)
}

func TestOpenRejectsConfigMismatch(t *testing.T) {
	root := t.TempDir()
	saveTest(t, root, hw.V100(), "default", 7)
	rewriteManifest(t, ckptDir(root, hw.V100(), "default"), func(man *Manifest) {
		man.Config.Hidden += 8 // architecture no longer matches the weights
	})
	if _, err := Open(root, Options{}); err == nil {
		t.Fatal("Open accepted a manifest whose config mismatches the weights")
	} else if !strings.Contains(err.Error(), "config/weights mismatch") {
		t.Errorf("error = %v, want config/weights mismatch", err)
	}
}

func TestOpenRejectsChecksumDrift(t *testing.T) {
	root := t.TempDir()
	saveTest(t, root, hw.V100(), "default", 7)
	// Overwrite the weights with a same-architecture model trained (seeded)
	// differently: shapes match, content does not.
	f, err := os.Create(filepath.Join(ckptDir(root, hw.V100(), "default"), "weights.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := newTestModel(99).Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := Open(root, Options{}); err == nil {
		t.Fatal("Open accepted swapped weights")
	} else if !strings.Contains(err.Error(), "checksum mismatch") {
		t.Errorf("error = %v, want checksum mismatch", err)
	}
}

// TestOpenCheckpointRecordsBeyondTheModel pins the rule for weights the
// model lacks: a checkpoint may hold the attention vectors off Ref and the
// edge-weight coefficients off Child that older models held (gnn.Model.Load
// skips exactly those names), and nothing else — a record under any other
// name is refused, even when the manifest's checksum matches the file.
func TestOpenCheckpointRecordsBeyondTheModel(t *testing.T) {
	for extra, ok := range map[string]bool{
		"conv0.asrc0":  true,  // relation 0's attention vector
		"conv0.wcoef5": true,  // relation 5's coefficient
		"conv0.asrc8":  false, // no relation 8
		"conv1.wcoef1": false, // no second layer
		"conv0.gate0":  false,
	} {
		root := t.TempDir()
		model := saveTest(t, root, hw.V100(), "default", 7)
		params := append(model.Params(), nn.NewParameter(extra, 4, 1))
		dir := ckptDir(root, hw.V100(), "default")
		f, err := os.Create(filepath.Join(dir, "weights.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := nn.SaveParams(f, params); err != nil {
			t.Fatal(err)
		}
		f.Close()
		rewriteManifest(t, dir, func(man *Manifest) { man.Checksum = nn.ChecksumParams(params) })
		reg, err := Open(root, Options{})
		switch {
		case ok && err != nil:
			t.Errorf("%s: a dropped record refused: %v", extra, err)
		case ok:
			e, _ := reg.Lookup(hw.V100().Name, "")
			s := []*gnn.Sample{testSample(t)}
			if got, want := e.PredictBatch(s)[0], model.PredictBatch(s)[0]; got != want {
				t.Errorf("%s: loaded entry predicts %v, the saved model %v", extra, got, want)
			}
		case err == nil:
			t.Errorf("%s: a checkpoint with a record outside the dropped set loaded", extra)
		}
	}

	// The checksum covers the skipped records: the PR 20 checkpoint with
	// one value of relation 0's attention vector changed is refused.
	dir := filepath.Join(t.TempDir(), "nvidia-v100-gpu", "parent-pr20")
	src := filepath.Join("testdata", "registry-pr20", "nvidia-v100-gpu", "parent-pr20")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, file := range []string{"manifest.json", "weights.json"} {
		raw, err := os.ReadFile(filepath.Join(src, file))
		if err != nil {
			t.Fatal(err)
		}
		if file == "weights.json" {
			var cp struct {
				Version int               `json:"version"`
				Params  []json.RawMessage `json:"params"`
			}
			if err := json.Unmarshal(raw, &cp); err != nil {
				t.Fatal(err)
			}
			for i, rec := range cp.Params {
				if strings.Contains(string(rec), `"conv0.asrc0"`) {
					cp.Params[i] = json.RawMessage(`{"name":"conv0.asrc0","rows":4,"cols":1,"data":[1,2,3,4]}`)
				}
			}
			if raw, err = json.Marshal(cp); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, file), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Load(dir); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Errorf("a checkpoint whose skipped record changed: err = %v, want a checksum mismatch", err)
	}
}

func TestOpenRejectsBadManifests(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Manifest)
	}{
		{"unknown platform", func(m *Manifest) { m.Platform = "Cray-1" }},
		{"unknown level", func(m *Manifest) { m.Level = "MegaGraph" }},
		{"bad version name", func(m *Manifest) { m.Name = "../escape" }},
		{"bad wscale", func(m *Manifest) { m.Scalers.WScale = 0 }},
		{"future format", func(m *Manifest) { m.FormatVersion = 99 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			saveTest(t, root, hw.V100(), "default", 7)
			rewriteManifest(t, ckptDir(root, hw.V100(), "default"), tc.mutate)
			if _, err := Open(root, Options{}); err == nil {
				t.Error("Open accepted a broken manifest")
			}
		})
	}
}

func TestDefaultAlias(t *testing.T) {
	// An entry literally named "default" wins the alias.
	root := t.TempDir()
	saveTest(t, root, hw.V100(), "aaa", 1)
	saveTest(t, root, hw.V100(), "default", 2)
	saveTest(t, root, hw.V100(), "zzz", 3)
	reg, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := reg.Lookup(hw.V100().Name, "default")
	if err != nil {
		t.Fatal(err)
	}
	if e.Manifest.Name != "default" || !reg.Default(e) {
		t.Errorf("default alias = %q", e.Manifest.Name)
	}

	// Without one, the newest checkpoint wins.
	root2 := t.TempDir()
	saveTest(t, root2, hw.V100(), "v1", 1)
	saveTest(t, root2, hw.V100(), "v2", 2) // saved later → newer CreatedAt
	reg2, err := Open(root2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := reg2.Lookup(hw.V100().Name, "")
	if err != nil {
		t.Fatal(err)
	}
	if e2.Manifest.Name != "v2" {
		t.Errorf("newest-wins default = %q, want v2", e2.Manifest.Name)
	}
}

func TestLookupErrors(t *testing.T) {
	root := t.TempDir()
	saveTest(t, root, hw.V100(), "default", 7)
	reg, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Lookup("IBM POWER9 (CPU)", ""); err == nil {
		t.Error("lookup of platform without checkpoints succeeded")
	}
	if _, err := reg.Lookup(hw.V100().Name, "nope"); err == nil {
		t.Error("lookup of unknown version succeeded")
	}
	if _, err := Open(t.TempDir(), Options{}); err == nil {
		t.Error("Open of empty root succeeded")
	}
}

// TestEntrySurvivesCheckpointRemoval pins residency: an entry holds its
// model, so deleting the whole registry directory under a live Registry
// changes no prediction — there is no reload to fail.
func TestEntrySurvivesCheckpointRemoval(t *testing.T) {
	root := t.TempDir()
	saveTest(t, root, hw.V100(), "a", 1)
	saveTest(t, root, hw.V100(), "b", 2)
	reg, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := testSample(t)
	before := map[string]float64{}
	for _, e := range reg.Entries() {
		before[e.Manifest.Name] = e.PredictBatch([]*gnn.Sample{s})[0]
	}
	if len(before) != 2 || before["a"] == before["b"] {
		t.Fatalf("predictions before removal = %v, want two distinct models", before)
	}
	if err := os.RemoveAll(root); err != nil {
		t.Fatal(err)
	}
	for _, e := range reg.Entries() {
		for i := 0; i < 3; i++ {
			if got := e.PredictBatch([]*gnn.Sample{s})[0]; got != before[e.Manifest.Name] {
				t.Errorf("%s predicted %v after its checkpoint was removed, %v before",
					e.Manifest.Name, got, before[e.Manifest.Name])
			}
		}
	}
}

// TestOpensParentRegistry loads a registry written by the commit before the
// single loader (PR 20's registry.Save; testdata/registry-pr20) and holds
// its default entry to the prediction that commit's Open→Lookup→PredictBatch
// gave for testSample: what is on operators' disks boots and serves
// unchanged.
func TestOpensParentRegistry(t *testing.T) {
	reg, err := Open(filepath.Join("testdata", "registry-pr20"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := reg.Lookup(hw.V100().Name, "")
	if err != nil {
		t.Fatal(err)
	}
	if e.Manifest.Name != "parent-pr20" || e.Manifest.Params != 701 || e.Level != paragraph.LevelParaGraph ||
		e.Prep.WScale != 10 || e.Prep.ThreadScaler != testPrep().ThreadScaler {
		t.Errorf("entry = %+v (prep %+v)", e.Manifest, e.Prep)
	}
	const parent = -0.073868051171302795
	if got := e.PredictBatch([]*gnn.Sample{testSample(t)})[0]; math.Abs(got-parent) > 1e-6 {
		t.Errorf("prediction %v, the parent commit served %v", got, parent)
	}
}

func TestDiscoverSkipsPartialDirs(t *testing.T) {
	root := t.TempDir()
	saveTest(t, root, hw.V100(), "default", 7)
	// A version directory without a manifest (mid-write) is skipped.
	if err := os.MkdirAll(filepath.Join(root, hw.Slug(hw.V100().Name), "partial"), 0o755); err != nil {
		t.Fatal(err)
	}
	cps, err := Discover(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 1 {
		t.Errorf("discovered %d checkpoints, want 1", len(cps))
	}
}

func TestSaveRejectsBadNames(t *testing.T) {
	for _, name := range []string{"", ".", "..", "a/b", "sp ace", "semi;colon"} {
		if _, err := Save(t.TempDir(), hw.V100(), name, paragraph.LevelParaGraph,
			newTestModel(1), testPrep(), TrainInfo{}); err == nil {
			t.Errorf("Save accepted name %q", name)
		}
	}
}

// TestPlatformSlug holds the layout to a directory on disk: a registry
// written before the slug moved to internal/hw (testdata/registry-pr20, by
// an older Save) keeps its V100 checkpoint where hw.Slug — what Save and
// Discover ask — says it is. The four names are pinned in internal/hw.
func TestPlatformSlug(t *testing.T) {
	root := filepath.Join("testdata", "registry-pr20")
	e, err := Load(ckptDir(root, hw.V100(), "parent-pr20"))
	if err != nil {
		t.Fatalf("the PR 20 checkpoint is not where hw.Slug looks for it: %v", err)
	}
	if e.Manifest.Platform != hw.V100().Name {
		t.Errorf("loaded %q from the V100 directory", e.Manifest.Platform)
	}
}

func TestParseLevelRoundTrip(t *testing.T) {
	for _, l := range []paragraph.Level{
		paragraph.LevelRawAST, paragraph.LevelAugmentedAST, paragraph.LevelParaGraph,
	} {
		got, err := paragraph.ParseLevel(l.String())
		if err != nil || got != l {
			t.Errorf("ParseLevel(%q) = %v, %v", l.String(), got, err)
		}
	}
	if _, err := paragraph.ParseLevel("nope"); err == nil {
		t.Error("ParseLevel accepted garbage")
	}
}

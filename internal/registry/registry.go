// Package registry persists trained cost models as versioned checkpoints
// and serves them back without retraining. A checkpoint is a directory
// holding the model weights (gnn.Model.Save) next to a JSON manifest that
// records everything needed to reconstruct the serving stack around them:
// the gnn.Config architecture, the platform, the representation level, the
// training-time feature/target scalers, a weights checksum, and training
// stats. The layout under a registry root (the slug is hw.Slug of the
// machine name; the manifest keeps the real name) is
//
//	<root>/<platform-slug>/<version>/manifest.json
//	<root>/<platform-slug>/<version>/weights.json
//
// so one platform can carry several named versions (training scales,
// representation levels) side by side; each platform gets a default alias
// (a version literally named "default", else the newest).
//
// There is one way from a checkpoint directory to a model: Load, which
// reads and verifies the manifest and weights (a config/weights mismatch or
// checksum drift fails there, not in a later request; an older model's
// checkpoint, with an attention pair and a weight coefficient for every
// relation, loads with the extras skipped, gnn.Model.Load) and returns an Entry
// holding the model resident with its engine weights built. Open loads
// every checkpoint under a root through it and indexes them. A model is at
// most 33 508 parameters (262 kB in float64), so nothing is loaded lazily or
// evicted: an Entry, once built, never touches its files again. Entry
// implements the serving layer's BatchPredictor, which is how cmd/serve
// plugs checkpoints straight into its batcher without knowing about files.
package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"paragraph/internal/dataset"
	"paragraph/internal/gnn"
	"paragraph/internal/hw"
	"paragraph/internal/paragraph"
)

const (
	// FormatVersion is the manifest schema version this package writes.
	FormatVersion = 1

	manifestFile = "manifest.json"
	weightsFile  = "weights.json"
)

// Scalers carries the training-time normalization a served model cannot
// predict without (dataset.Prepared's scaler set).
type Scalers struct {
	Target dataset.Scaler `json:"target"` // log(runtime µs) → [0,1]
	Team   dataset.Scaler `json:"team"`
	Thread dataset.Scaler `json:"thread"`
	WScale float64        `json:"w_scale"`
}

// Prepared returns the scalers in the shape the advisor and Save take them
// (Train/Val are empty; serving never touches them).
func (sc Scalers) Prepared() *dataset.Prepared {
	return &dataset.Prepared{
		TargetScaler: sc.Target,
		TeamScaler:   sc.Team,
		ThreadScaler: sc.Thread,
		WScale:       sc.WScale,
	}
}

// TrainInfo records how a checkpoint was produced, for /v1/models and ops.
type TrainInfo struct {
	Scale        string  `json:"scale,omitempty"`
	Epochs       int     `json:"epochs"`
	TrainSamples int     `json:"train_samples"`
	ValSamples   int     `json:"val_samples"`
	FinalValRMSE float64 `json:"final_val_rmse"`
}

// Manifest is the JSON sidecar of one checkpoint.
type Manifest struct {
	FormatVersion int        `json:"format_version"`
	Platform      string     `json:"platform"`
	Name          string     `json:"name"`  // version name within the platform
	Level         string     `json:"level"` // paragraph.Level.String()
	CreatedAt     time.Time  `json:"created_at"`
	Config        gnn.Config `json:"config"`
	Params        int        `json:"params"` // scalar parameter count
	Checksum      string     `json:"weights_checksum"`
	Scalers       Scalers    `json:"scalers"`
	Train         TrainInfo  `json:"train"`
}

// CheckName validates a checkpoint version name without touching disk, so
// CLIs can reject a bad -save-name before spending a training run on it.
func CheckName(name string) error { return validName(name) }

// validName guards version names (and platform slugs) so the registry
// layout stays one directory per checkpoint and names survive a filesystem
// round-trip.
func validName(name string) error {
	if name == "" || name == "." || name == ".." {
		return fmt.Errorf("registry: invalid checkpoint name %q", name)
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return fmt.Errorf("registry: checkpoint name %q: only [a-zA-Z0-9._-] allowed", name)
		}
	}
	return nil
}

// Save writes one checkpoint under root and returns its directory. The
// weights land first (via a temp file + rename so a crash never leaves a
// manifest pointing at half-written weights), then the manifest makes the
// checkpoint visible to Discover.
func Save(root string, m hw.Machine, name string, level paragraph.Level,
	model *gnn.Model, prep *dataset.Prepared, info TrainInfo) (string, error) {
	if err := validName(name); err != nil {
		return "", err
	}
	if model == nil || prep == nil {
		return "", fmt.Errorf("registry: model and prepared dataset required")
	}
	dir := filepath.Join(root, hw.Slug(m.Name), name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("registry: %w", err)
	}
	if err := writeFileAtomic(filepath.Join(dir, weightsFile), func(f *os.File) error {
		return model.Save(f)
	}); err != nil {
		return "", fmt.Errorf("registry: writing weights: %w", err)
	}
	man := Manifest{
		FormatVersion: FormatVersion,
		Platform:      m.Name,
		Name:          name,
		Level:         level.String(),
		CreatedAt:     time.Now().UTC(),
		Config:        model.Config(),
		Params:        model.NumParams(),
		Checksum:      model.Checksum(),
		Scalers: Scalers{
			Target: prep.TargetScaler,
			Team:   prep.TeamScaler,
			Thread: prep.ThreadScaler,
			WScale: prep.WScale,
		},
		Train: info,
	}
	err := writeFileAtomic(filepath.Join(dir, manifestFile), func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", " ")
		return enc.Encode(man)
	})
	if err != nil {
		return "", fmt.Errorf("registry: writing manifest: %w", err)
	}
	return dir, nil
}

// writeFileAtomic writes via a temp file in the target directory and
// renames it into place.
func writeFileAtomic(path string, write func(*os.File) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

// Checkpoint is one checkpoint on disk: its directory and parsed manifest,
// the model not loaded.
type Checkpoint struct {
	Dir      string
	Manifest Manifest
}

// readManifest reads and parses one checkpoint directory's manifest and
// checks its schema version. A missing manifest is an os.ErrNotExist
// (wrapped), which Discover skips.
func readManifest(dir string) (Manifest, error) {
	var man Manifest
	raw, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return man, fmt.Errorf("registry: %w", err)
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		return man, fmt.Errorf("registry: %s: bad manifest: %w", dir, err)
	}
	if man.FormatVersion != FormatVersion {
		return man, fmt.Errorf("registry: %s: unsupported manifest format %d", dir, man.FormatVersion)
	}
	return man, nil
}

// Discover scans root for checkpoints (any <root>/*/*/manifest.json). A
// directory without a manifest is skipped silently — it may be a checkpoint
// mid-write — but a manifest that fails to parse is an error.
func Discover(root string) ([]Checkpoint, error) {
	platDirs, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	var cps []Checkpoint
	for _, pd := range platDirs {
		if !pd.IsDir() {
			continue
		}
		verDirs, err := os.ReadDir(filepath.Join(root, pd.Name()))
		if err != nil {
			return nil, fmt.Errorf("registry: %w", err)
		}
		for _, vd := range verDirs {
			if !vd.IsDir() {
				continue
			}
			dir := filepath.Join(root, pd.Name(), vd.Name())
			man, err := readManifest(dir)
			if errors.Is(err, os.ErrNotExist) {
				continue
			}
			if err != nil {
				return nil, err
			}
			cps = append(cps, Checkpoint{Dir: dir, Manifest: man})
		}
	}
	sort.Slice(cps, func(i, j int) bool {
		if cps[i].Manifest.Platform != cps[j].Manifest.Platform {
			return cps[i].Manifest.Platform < cps[j].Manifest.Platform
		}
		return cps[i].Manifest.Name < cps[j].Manifest.Name
	})
	return cps, nil
}

// Options is empty: the registry has nothing left to tune. The type stays
// only because Open's signature is compiled against by the frozen bench/
// module (ROADMAP item 4(d)).
type Options struct{}

// Registry indexes the checkpoints under one root directory, every one of
// them loaded. It is immutable once Open returns.
type Registry struct {
	sorted   []*Entry          // by (platform, name), Discover's order
	entries  map[string]*Entry // platform + "\x00" + name
	defaults map[string]*Entry // platform → its default alias
}

// Entry is one loaded checkpoint: manifest, the serving stack's view of it
// (machine profile, representation level, scalers) and the model itself.
// It implements the serving layer's BatchPredictor and is self-contained —
// nothing it does reads the checkpoint directory again.
type Entry struct {
	Manifest Manifest
	Machine  hw.Machine
	Level    paragraph.Level
	// Prep carries the manifest's scalers in the shape the advisor wants.
	Prep *dataset.Prepared

	model *gnn.Model
}

// load is the one loader: it validates the manifest, reads the weights
// (the engine runs on them once gnn.Model.Load returns) and verifies
// them against the manifest's config and checksum. An entry serves in
// float64, the width the model trained and was evaluated in: its
// PredictBatch is, bit for bit, the saved model's.
func load(cp Checkpoint) (*Entry, error) {
	man := cp.Manifest
	machine, err := hw.ByName(man.Platform)
	if err != nil {
		return nil, fmt.Errorf("registry: %s: %w", cp.Dir, err)
	}
	level, err := paragraph.ParseLevel(man.Level)
	if err != nil {
		return nil, fmt.Errorf("registry: %s: %w", cp.Dir, err)
	}
	if err := validName(man.Name); err != nil {
		return nil, fmt.Errorf("registry: %s: %w", cp.Dir, err)
	}
	if man.Scalers.WScale <= 0 {
		return nil, fmt.Errorf("registry: %s: manifest w_scale %g must be positive", cp.Dir, man.Scalers.WScale)
	}
	f, err := os.Open(filepath.Join(cp.Dir, weightsFile))
	if err != nil {
		return nil, fmt.Errorf("registry: %s: %w", cp.Dir, err)
	}
	defer f.Close()
	m := gnn.NewModel(man.Config)
	sum, err := m.Load(f)
	if err != nil {
		return nil, fmt.Errorf("registry: %s: config/weights mismatch: %w", cp.Dir, err)
	}
	// The file's checksum, over its records as written: an older
	// checkpoint holds parameters the model drops (gnn.Model.Load), so the
	// loaded model's own Checksum no longer covers the whole file.
	if man.Checksum != "" && sum != man.Checksum {
		return nil, fmt.Errorf("registry: %s: weights checksum mismatch (manifest %.12s…, file %.12s…)",
			cp.Dir, man.Checksum, sum)
	}
	return &Entry{
		Manifest: man,
		Machine:  machine,
		Level:    level,
		Prep:     man.Scalers.Prepared(),
		model:    m,
	}, nil
}

// Open discovers, loads and indexes every checkpoint under root; a broken
// one fails here, not mid-request.
func Open(root string, _ Options) (*Registry, error) {
	cps, err := Discover(root)
	if err != nil {
		return nil, err
	}
	if len(cps) == 0 {
		return nil, fmt.Errorf("registry: no checkpoints under %s", root)
	}
	r := &Registry{entries: map[string]*Entry{}, defaults: map[string]*Entry{}}
	byPlat := map[string][]Checkpoint{}
	for _, cp := range cps {
		e, err := load(cp)
		if err != nil {
			return nil, err
		}
		plat := cp.Manifest.Platform
		key := entryKey(plat, cp.Manifest.Name)
		if _, dup := r.entries[key]; dup {
			return nil, fmt.Errorf("registry: duplicate checkpoint %s/%s", plat, cp.Manifest.Name)
		}
		r.sorted = append(r.sorted, e)
		r.entries[key] = e
		byPlat[plat] = append(byPlat[plat], cp)
	}
	for plat, cps := range byPlat {
		r.defaults[plat] = r.entries[entryKey(plat, pickDefault(cps).Manifest.Name)]
	}
	return r, nil
}

func entryKey(platform, name string) string { return platform + "\x00" + name }

// pickDefault resolves the default alias among one platform's checkpoints:
// a version literally named "default" wins, else the newest CreatedAt (name
// as tiebreak). This is the rule for a registry's checkpoints: cmd/serve and
// examples/serveclient pass its choice to serve.NewServer as
// Backend.Default, so the server's own fallback for backends that declare
// no default (a model named "default", else the lexicographically first
// name) never applies to them.
func pickDefault(cps []Checkpoint) Checkpoint {
	best := cps[0]
	for _, cp := range cps[1:] {
		if best.Manifest.Name == "default" {
			break
		}
		switch {
		case cp.Manifest.Name == "default":
			best = cp
		case cp.Manifest.CreatedAt.After(best.Manifest.CreatedAt):
			best = cp
		case cp.Manifest.CreatedAt.Equal(best.Manifest.CreatedAt) && cp.Manifest.Name < best.Manifest.Name:
			best = cp
		}
	}
	return best
}

// Lookup resolves a (platform, version) pair; an empty or "default" name
// follows the platform's default alias.
func (r *Registry) Lookup(platform, name string) (*Entry, error) {
	if name == "" || name == "default" {
		if e, ok := r.defaults[platform]; ok {
			return e, nil
		}
		return nil, fmt.Errorf("registry: no checkpoints for platform %q", platform)
	}
	if e, ok := r.entries[entryKey(platform, name)]; ok {
		return e, nil
	}
	return nil, fmt.Errorf("registry: no checkpoint %s/%s", platform, name)
}

// Default reports whether e is its platform's default alias.
func (r *Registry) Default(e *Entry) bool { return r.defaults[e.Manifest.Platform] == e }

// Entries lists every checkpoint, sorted by (platform, name).
func (r *Registry) Entries() []*Entry { return append([]*Entry(nil), r.sorted...) }

// PredictBatch implements the serving layer's BatchPredictor.
func (e *Entry) PredictBatch(samples []*gnn.Sample) []float64 {
	return e.model.PredictBatch(samples)
}

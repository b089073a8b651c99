package registry

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"paragraph/internal/hw"
)

// Checkpoint GC: without retention, every retrain leaves another version
// directory behind and -save-dir grows forever. GC prunes a platform's
// superseded versions while never touching the versions that matter: the
// rollout's stable and candidate, anything the caller pins, the "default"
// alias, and the newest keepLast survivors beyond those.
//
// Deletion order is chosen for crash safety: the manifest goes first, so a
// checkpoint interrupted mid-delete is exactly a "directory without a
// manifest", which Discover already skips silently and Open never sees. A
// crash can strand a weights file, never break the registry.

// removeFileHook is swapped by tests to inject removal failures and observe
// crash-mid-GC behavior. Production value: os.Remove.
var removeFileHook = os.Remove

// keepLast is how many non-protected versions (newest first by CreatedAt)
// survive a GC pass beyond the protected set.
const keepLast = 2

// GCResult reports what one GC pass did.
type GCResult struct {
	Removed []string // version names deleted
	Kept    []string // version names retained (protected or within keepLast)
}

// GC prunes platform's checkpoint versions under root. protected names are
// never removed (pass the rollout's stable and candidate); the "default"
// alias — a version literally named "default", else the platform's newest —
// is always protected as well. Remaining versions are kept newest-first up
// to keepLast, and the rest are deleted manifest-first.
//
// On a deletion error GC stops and returns the partial result with the
// error; everything already removed stays removed, everything else is
// untouched and still loadable.
func GC(root, platform string, protected []string) (GCResult, error) {
	var res GCResult
	platDir := filepath.Join(root, hw.Slug(platform))
	ents, err := os.ReadDir(platDir)
	if os.IsNotExist(err) {
		return res, nil
	}
	if err != nil {
		return res, fmt.Errorf("registry: gc: %w", err)
	}

	keep := map[string]bool{"default": true}
	for _, name := range protected {
		if name != "" {
			keep[name] = true
		}
	}

	// Collect the platform's real checkpoints (directories with a parseable
	// manifest); anything else in the platform dir is not GC's business.
	var cps []Checkpoint
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(platDir, e.Name())
		raw, err := os.ReadFile(filepath.Join(dir, manifestFile))
		if err != nil {
			continue
		}
		var man Manifest
		if json.Unmarshal(raw, &man) != nil {
			continue
		}
		cps = append(cps, Checkpoint{Dir: dir, Manifest: man})
	}
	if len(cps) == 0 {
		return res, nil
	}

	// The alias target is protected even when nothing is named "default":
	// deleting the version the default alias currently resolves to would
	// change what unpinned clients get.
	keep[pickDefault(cps).Manifest.Name] = true

	// Sort newest first; retain keepLast beyond the protected set.
	sort.Slice(cps, func(i, j int) bool {
		if !cps[i].Manifest.CreatedAt.Equal(cps[j].Manifest.CreatedAt) {
			return cps[i].Manifest.CreatedAt.After(cps[j].Manifest.CreatedAt)
		}
		return cps[i].Manifest.Name > cps[j].Manifest.Name
	})
	spared := 0
	var victims []Checkpoint
	for _, cp := range cps {
		if keep[cp.Manifest.Name] {
			res.Kept = append(res.Kept, cp.Manifest.Name)
			continue
		}
		if spared < keepLast {
			spared++
			res.Kept = append(res.Kept, cp.Manifest.Name)
			continue
		}
		victims = append(victims, cp)
	}

	for _, cp := range victims {
		// Manifest first: a crash (or injected failure) after this point
		// leaves a manifest-less directory that Discover skips.
		if err := removeFileHook(filepath.Join(cp.Dir, manifestFile)); err != nil {
			return res, fmt.Errorf("registry: gc %s: %w", cp.Dir, err)
		}
		if err := removeFileHook(filepath.Join(cp.Dir, weightsFile)); err != nil {
			return res, fmt.Errorf("registry: gc %s: %w", cp.Dir, err)
		}
		// Best-effort directory removal: stray temp files keep the empty
		// shell around, which is harmless to Discover.
		os.Remove(cp.Dir)
		res.Removed = append(res.Removed, cp.Manifest.Name)
	}
	return res, nil
}

package registry

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"paragraph/internal/hw"
)

// saveTestAt writes a checkpoint and rewrites its CreatedAt so retention
// ordering is deterministic regardless of clock resolution.
func saveTestAt(t *testing.T, root string, name string, at time.Time) {
	t.Helper()
	saveTest(t, root, hw.V100(), name, 1)
	rewriteManifest(t, ckptDir(root, hw.V100(), name), func(m *Manifest) {
		m.CreatedAt = at
	})
}

func gcNames(t *testing.T, root string) []string {
	t.Helper()
	cps, err := Discover(root)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, cp := range cps {
		names = append(names, cp.Manifest.Name)
	}
	sort.Strings(names)
	return names
}

func TestGCRetention(t *testing.T) {
	root := t.TempDir()
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 1; i <= 7; i++ {
		saveTestAt(t, root, fmt.Sprintf("v%d", i), base.Add(time.Duration(i)*time.Hour))
	}

	// Protect stable v2 and candidate v3. The newest (v7) is the
	// default-alias target, so it survives too; then the two keepLast slots
	// go to the next-newest unprotected (v6, v5).
	res, err := GC(root, hw.V100().Name, []string{"v2", "v3"})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(res.Removed)
	if strings.Join(res.Removed, ",") != "v1,v4" {
		t.Fatalf("Removed = %v", res.Removed)
	}
	if got := gcNames(t, root); strings.Join(got, ",") != "v2,v3,v5,v6,v7" {
		t.Fatalf("survivors = %v", got)
	}

	// The registry still opens over the pruned root.
	if _, err := Open(root, Options{}); err != nil {
		t.Fatal(err)
	}

	// Idempotent: a second pass has nothing to remove.
	res, err = GC(root, hw.V100().Name, []string{"v2", "v3"})
	if err != nil || len(res.Removed) != 0 {
		t.Fatalf("second pass removed %v, err %v", res.Removed, err)
	}
}

func TestGCProtectsAlias(t *testing.T) {
	root := t.TempDir()
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	// A version literally named "default" is the alias target even though it
	// is the OLDEST — GC must never delete it.
	saveTestAt(t, root, "default", base)
	for i := 2; i <= 5; i++ {
		saveTestAt(t, root, fmt.Sprintf("v%d", i), base.Add(time.Duration(i)*time.Hour))
	}

	res, err := GC(root, hw.V100().Name, []string{"v5"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(res.Removed, ",") != "v2" {
		t.Fatalf("Removed = %v", res.Removed)
	}
	if got := gcNames(t, root); strings.Join(got, ",") != "default,v3,v4,v5" {
		t.Fatalf("survivors = %v", got)
	}

	// Without a literal "default", the newest version carries the alias and
	// is protected with no explicit protection, beyond the keepLast slots.
	root2 := t.TempDir()
	for i, name := range []string{"a", "b", "c", "d"} {
		saveTestAt(t, root2, name, base.Add(time.Duration(i)*time.Hour))
	}
	res, err = GC(root2, hw.V100().Name, nil)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(res.Removed, ",") != "a" || strings.Join(gcNames(t, root2), ",") != "b,c,d" {
		t.Fatalf("alias-by-recency: removed %v, left %v", res.Removed, gcNames(t, root2))
	}
}

func TestGCMissingPlatform(t *testing.T) {
	res, err := GC(t.TempDir(), hw.V100().Name, nil)
	if err != nil || len(res.Removed) != 0 {
		t.Fatalf("GC on empty root = %+v, %v", res, err)
	}
}

// TestGCCrashMidPass injects removal failures at each stage and asserts the
// registry stays loadable: deletion is manifest-first, so an interrupted
// delete leaves either an intact checkpoint or a manifest-less directory
// Discover already skips.
func TestGCCrashMidPass(t *testing.T) {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	setup := func(t *testing.T) string {
		root := t.TempDir()
		for i := 1; i <= 4; i++ {
			saveTestAt(t, root, fmt.Sprintf("v%d", i), base.Add(time.Duration(i)*time.Hour))
		}
		return root
	}
	defer func() { removeFileHook = os.Remove }()

	t.Run("manifest removal fails", func(t *testing.T) {
		root := setup(t)
		removeFileHook = func(path string) error {
			if filepath.Base(path) == manifestFile {
				return fmt.Errorf("injected crash")
			}
			return os.Remove(path)
		}
		res, err := GC(root, hw.V100().Name, []string{"v4"})
		if err == nil {
			t.Fatal("injected failure not surfaced")
		}
		if len(res.Removed) != 0 {
			t.Fatalf("Removed = %v", res.Removed)
		}
		// Nothing was deleted: every checkpoint still loads.
		if got := gcNames(t, root); strings.Join(got, ",") != "v1,v2,v3,v4" {
			t.Fatalf("survivors = %v", got)
		}
		if _, err := Open(root, Options{}); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("weights removal fails after manifest", func(t *testing.T) {
		root := setup(t)
		removeFileHook = func(path string) error {
			if filepath.Base(path) == weightsFile {
				return fmt.Errorf("injected crash")
			}
			return os.Remove(path)
		}
		res, err := GC(root, hw.V100().Name, []string{"v4"})
		if err == nil {
			t.Fatal("injected failure not surfaced")
		}
		if len(res.Removed) != 0 {
			t.Fatalf("Removed = %v", res.Removed)
		}
		// v1's manifest is gone, its weights stranded — Discover must skip
		// the torn directory and Open must serve the survivors.
		if got := gcNames(t, root); strings.Join(got, ",") != "v2,v3,v4" {
			t.Fatalf("survivors = %v", got)
		}
		if _, err := Open(root, Options{}); err != nil {
			t.Fatal(err)
		}
		// A rerun after the "crash" (hook healed) succeeds; the torn
		// directory is invisible to Discover (it could equally be a Save
		// mid-write, so GC leaves it alone) and the survivors are stable.
		removeFileHook = os.Remove
		if _, err := GC(root, hw.V100().Name, []string{"v4"}); err != nil {
			t.Fatal(err)
		}
		if got := gcNames(t, root); strings.Join(got, ",") != "v2,v3,v4" {
			t.Fatalf("survivors after rerun = %v", got)
		}
	})
}

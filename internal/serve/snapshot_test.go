package serve

import (
	"bytes"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
)

// warmAndSnapshot runs a grid advise and a one-point advise through a fresh
// server and returns the snapshot plus the responses that produced it.
func warmAndSnapshot(t *testing.T) (snap []byte, advise, point AdviseResponse) {
	t.Helper()
	s := newTestServer(t)
	if rec := do(t, s, http.MethodPost, "/v1/advise", adviseReq("NVIDIA V100 (GPU)"), &advise); rec.Code != http.StatusOK {
		t.Fatalf("advise: %d %s", rec.Code, rec.Body.String())
	}
	if rec := do(t, s, http.MethodPost, "/v1/advise", pointReq(), &point); rec.Code != http.StatusOK {
		t.Fatalf("one-point advise: %d %s", rec.Code, rec.Body.String())
	}
	var buf bytes.Buffer
	if err := s.SnapshotCache(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), advise, point
}

func TestCacheSnapshotRestoreRoundTrip(t *testing.T) {
	snap, advise, point := warmAndSnapshot(t)

	// A second process: same backends, fresh caches, restored snapshot.
	s2 := newTestServer(t)
	n, err := s2.RestoreCache(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("restored %d entries, want 2", n)
	}

	for _, c := range []struct {
		req  AdviseRequest
		want AdviseResponse
	}{{adviseReq("NVIDIA V100 (GPU)"), advise}, {pointReq(), point}} {
		var warm AdviseResponse
		do(t, s2, http.MethodPost, "/v1/advise", c.req, &warm)
		if !warm.Cached {
			t.Errorf("restored entry for %v missed", c.req.Space)
		}
		if len(warm.Recommendations) != len(c.want.Recommendations) {
			t.Fatalf("restored ranking has %d recs, want %d", len(warm.Recommendations), len(c.want.Recommendations))
		}
		for i := range c.want.Recommendations {
			if warm.Recommendations[i] != c.want.Recommendations[i] {
				t.Errorf("restored rec %d = %+v, want %+v", i, warm.Recommendations[i], c.want.Recommendations[i])
			}
		}
	}
}

func TestCacheSnapshotFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	s := newTestServer(t)
	var advise AdviseResponse
	do(t, s, http.MethodPost, "/v1/advise", adviseReq("IBM POWER9 (CPU)"), &advise)
	if err := s.SaveCacheFile(path); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t)
	n, err := s2.LoadCacheFile(path)
	if err != nil || n != 1 {
		t.Fatalf("LoadCacheFile = %d, %v, want 1 entry", n, err)
	}
	var warm AdviseResponse
	do(t, s2, http.MethodPost, "/v1/advise", adviseReq("IBM POWER9 (CPU)"), &warm)
	if !warm.Cached {
		t.Error("file-restored advise entry missed")
	}
}

func TestLoadCacheFileMissingIsFine(t *testing.T) {
	s := newTestServer(t)
	n, err := s.LoadCacheFile(filepath.Join(t.TempDir(), "absent.json"))
	if n != 0 || err != nil {
		t.Errorf("missing file: n=%d err=%v, want 0, nil", n, err)
	}
}

func TestRestoreCacheRejectsGarbage(t *testing.T) {
	s := newTestServer(t)
	if _, err := s.RestoreCache(strings.NewReader("not json")); err == nil {
		t.Error("garbage snapshot accepted")
	}
	if _, err := s.RestoreCache(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Error("future snapshot version accepted")
	}
}

func TestRestoreCacheDropsUnknownVariants(t *testing.T) {
	s := newTestServer(t)
	snap := `{"version":1,"advise":[{"key":"k1","recs":[{"kind":"warp_simd","threads":8,"predicted_us":1}]},` +
		`{"key":"k2","recs":[{"kind":"cpu","threads":8,"predicted_us":5}]}]}`
	n, err := s.RestoreCache(strings.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 { // the cpu ranking survives; the alien one is dropped
		t.Errorf("restored %d entries, want 1", n)
	}
}

// TestSnapshotItemsOrder sanity-checks the Items walk the snapshot is
// built from: every live entry appears, before and after recency updates.
func TestSnapshotItemsOrder(t *testing.T) {
	c := NewCache(64)
	c.Add(Key("a"), 1)
	c.Add(Key("b"), 2)
	items := c.Items()
	if len(items) != 2 {
		t.Fatalf("items = %d", len(items))
	}
	// Touch "a" so it becomes most recent in its shard; a fresh Items walk
	// must reflect that when both landed in the same shard, and in any case
	// must still list both.
	c.Get(Key("a"))
	items = c.Items()
	seen := map[string]bool{}
	for _, it := range items {
		seen[it.Key] = true
	}
	if !seen[Key("a")] || !seen[Key("b")] {
		t.Errorf("items missing keys: %+v", items)
	}
}

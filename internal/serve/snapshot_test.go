package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"paragraph/internal/advisor"
	"paragraph/internal/variants"
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

// TestSnapshotItemsOrder checks the Items walk the snapshot is built
// from: every live entry, most recently used first, across the whole cache.
func TestSnapshotItemsOrder(t *testing.T) {
	c := NewCache(64)
	keys := []string{Key("a"), Key("b"), Key("c")}
	for i, k := range keys {
		c.Add(k, i)
	}
	c.Get(keys[0])
	want := []string{keys[0], keys[2], keys[1]}
	items := c.Items()
	if len(items) != len(want) {
		t.Fatalf("items = %d, want %d", len(items), len(want))
	}
	for i, it := range items {
		if it.Key != want[i] {
			t.Errorf("items[%d] = %.8s, want %.8s", i, it.Key, want[i])
		}
	}
}

// TestRestoreFullSnapshotKeepsRecency: a snapshot of a full cache restored
// into a fresh server's cache fills it without evicting, lists in the same
// order, and the next new key evicts the snapshot's least recent entry.
func TestRestoreFullSnapshotKeepsRecency(t *testing.T) {
	recs := []advisor.Recommendation{{Kind: variants.CPU, Threads: 8, PredictedUS: 1}}
	src := NewCache(adviseCacheSize)
	for i := 0; i < adviseCacheSize; i++ {
		src.Add(Key("full", fmt.Sprint(i)), recs)
	}
	src.Get(Key("full", "0")) // the oldest becomes the most recent
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(snapshotOf(src.Items()...)); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t)
	if n, err := s.RestoreCache(&buf); err != nil || n != adviseCacheSize {
		t.Fatalf("RestoreCache = %d, %v, want %d", n, err, adviseCacheSize)
	}
	want, got := src.Items(), s.adviseCache.Items()
	if len(got) != len(want) {
		t.Fatalf("restored %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key {
			t.Fatalf("restored order differs at %d", i)
		}
	}
	if ev := s.adviseCache.Stats().Evictions; ev != 0 {
		t.Fatalf("restore evicted %d entries", ev)
	}
	s.adviseCache.Add(Key("full", "new"), recs)
	lru := want[len(want)-1].Key
	if _, held := s.adviseCache.Peek(lru); held {
		t.Error("snapshot's least recent entry survived the next add")
	}
	if st := s.adviseCache.Stats(); st.Evictions != 1 || st.Entries != adviseCacheSize {
		t.Errorf("after one add: %+v", st)
	}
}

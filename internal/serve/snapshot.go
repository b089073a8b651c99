package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Cache persistence: the advise-response cache (ranked grids) is the
// service's hottest artifact — every entry stands for a full
// parse→encode→predict sweep — so SnapshotCache serializes it and
// RestoreCache refills it, letting a restarted process answer repeat
// traffic as cache hits immediately instead of re-earning its cache. Keys
// are the content-addressed request hashes, which are stable across
// processes by construction. entry.go holds the schema.

// SnapshotCache writes the advise-response cache to w. Concurrent requests
// keep running; the snapshot is a point-in-time copy taken under the
// cache's lock.
func (s *Server) SnapshotCache(w io.Writer) error {
	return json.NewEncoder(w).Encode(snapshotOf(s.adviseCache.Items()...))
}

// RestoreCache refills the advise-response cache from a SnapshotCache
// stream, returning how many entries were restored. Entries are re-added
// oldest-first so the snapshot's recency order survives the LRU. Restoring
// on top of a warm cache is safe: keys are content hashes, so collisions
// are identical answers.
func (s *Server) RestoreCache(r io.Reader) (int, error) {
	var snap cacheSnapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return 0, fmt.Errorf("serve: decoding cache snapshot: %w", err)
	}
	items, err := snap.entries()
	if err != nil {
		return 0, fmt.Errorf("serve: cache snapshot: %w", err)
	}
	for _, it := range items {
		s.adviseCache.Add(it.Key, it.Val)
	}
	return len(items), nil
}

// SaveCacheFile snapshots the cache to path atomically (temp file in the
// same directory, then rename), so a crash mid-snapshot never truncates the
// previous good snapshot.
func (s *Server) SaveCacheFile(path string) error {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	if err := s.SnapshotCache(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

// LoadCacheFile restores the cache from a SaveCacheFile snapshot. A missing
// file is not an error (first boot): it returns (0, nil).
func (s *Server) LoadCacheFile(path string) (int, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return s.RestoreCache(f)
}

// Package serve turns the one-shot advisor pipeline into a long-running
// service: an HTTP/JSON API (POST /v1/advise, GET /v1/healthz, /v1/stats,
// /v1/models, /v1/ring) answered from shared cost models — registry
// checkpoints (internal/registry) loaded resident, several named versions
// per platform behind a "default" alias. One variant's runtime is a
// one-point advise: a search space of one team and thread count.
//
// The scaling layers, in request order: a content-addressed LRU cache
// memoizes whole advise rankings; identical concurrent misses
// collapse into one evaluation (singleflight); and per-client fair
// admission caps evaluations in flight — one path, Server.serveKeyed.
// Each evaluation encodes its whole variant grid across goroutines
// (internal/advisor), then predicts it in one gnn.Model.PredictBatch call
// through the model's metered Batcher — a cold advise is one batch, and
// nothing waits to be coalesced with another request's samples. The
// advise-response cache can be snapshotted and restored across restarts
// (snapshot.go; entry.go holds the one wire schema an entry travels in),
// and EnableCluster shards the whole tier across processes with a
// consistent-hash ring over the cache keys — each key owned by its first
// rf ring successors, with asynchronous write-through to replicas and
// failover in successor order (cluster.go, internal/shard).
//
// Every layer is instrumented through internal/obs: the same counters and
// histograms that assemble /v1/stats render as Prometheus exposition at
// GET /metrics (metrics.go), and traced requests record per-stage spans
// into a bounded ring served at GET /v1/trace, with trace ids propagated
// across cluster hops (trace.go). docs/API.md documents the wire format;
// docs/ARCHITECTURE.md the design.
package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"strconv"
	"strings"
	"sync"
)

// Cache is a content-addressed LRU cache holding at most its capacity in
// entries. Keys are content hashes (see Key), so a hit is a proof the
// expensive computation it memoizes was already done for identical inputs.
// Values are treated as immutable by convention. All methods are safe for
// concurrent use.
type Cache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[string]*list.Element

	hits, misses, evictions uint64
}

type cacheEntry struct {
	key string
	val any
}

// NewCache returns a cache holding at most capacity entries.
func NewCache(capacity int) *Cache {
	return &Cache{capacity: capacity, ll: list.New(), items: map[string]*list.Element{}}
}

// Get returns the cached value for key, marking it most recently used.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// Peek returns the cached value for key without touching recency or the
// hit/miss counters. Cluster-internal reads (outbox handoffs) go through
// Peek so peer traffic neither skews the cache statistics nor keeps
// entries warm that no client is asking for.
func (c *Cache) Peek(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*cacheEntry).val, true
}

// Add stores val under key, evicting the least recently used entry when
// the cache is full. Re-adding an existing key replaces its value and
// refreshes its recency.
func (c *Cache) Add(key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
	if c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// CacheItem is one entry of an Items snapshot.
type CacheItem struct {
	Key string
	Val any
}

// Items snapshots every entry, most recently used first. The snapshot
// layer feeds persisted caches back through Add in reverse, so a restore
// rebuilds the recency order exactly.
func (c *Cache) Items() []CacheItem {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]CacheItem, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		out = append(out, CacheItem{Key: e.key, Val: e.val})
	}
	return out
}

// CacheStats is a point-in-time copy of the cache's counters.
type CacheStats struct {
	Entries   int    `json:"entries"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// Stats returns the cache's counters, read under one lock.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Entries: c.ll.Len(), Hits: c.hits, Misses: c.misses, Evictions: c.evictions}
}

// Key builds a content-addressed cache key: the hex SHA-256 over the parts,
// NUL-separated so part boundaries cannot collide. The parts are streamed
// into the hash through a pooled chunk, never joined, so a key costs one
// allocation (its hex string) whatever the parts' lengths.
func Key(parts ...string) string {
	kh := keyHashers.Get().(*keyHasher)
	kh.h.Reset()
	for i, p := range parts {
		if i > 0 {
			kh.chunk[0] = 0
			kh.h.Write(kh.chunk[:1])
		}
		for len(p) > 0 {
			n := copy(kh.chunk[:], p)
			kh.h.Write(kh.chunk[:n])
			p = p[n:]
		}
	}
	var hexSum [2 * sha256.Size]byte
	hex.Encode(hexSum[:], kh.h.Sum(kh.chunk[:0]))
	keyHashers.Put(kh)
	return string(hexSum[:])
}

// keyHasher is one SHA-256 state and the chunk Key copies string parts
// through on their way into it.
type keyHasher struct {
	h     hash.Hash
	chunk [512]byte
}

var keyHashers = sync.Pool{New: func() any { return &keyHasher{h: sha256.New()} }}

// fmtInts renders an int slice into a key part: each value followed by a
// comma.
func fmtInts(vs []int) string {
	var b strings.Builder
	b.Grow(8 * len(vs))
	var num [20]byte
	for _, v := range vs {
		b.Write(strconv.AppendInt(num[:0], int64(v), 10))
		b.WriteByte(',')
	}
	return b.String()
}

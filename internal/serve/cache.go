// Package serve turns the one-shot advisor pipeline into a long-running
// service: an HTTP/JSON API (POST /v1/advise, GET /v1/healthz, /v1/stats,
// /v1/models, /v1/ring) answered from shared cost models — registry
// checkpoints (internal/registry) loaded resident, several named versions
// per platform behind a "default" alias. One variant's runtime is a
// one-point advise: a search space of one team and thread count.
//
// The scaling layers, in request order: a content-addressed sharded LRU
// cache memoizes whole advise rankings; identical concurrent misses
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

// cacheShards is the shard count of every Cache: small enough that a cache
// of a few hundred entries still gets useful per-shard capacity, large
// enough that concurrent request goroutines rarely contend on one mutex.
const cacheShards = 16

// Cache is a content-addressed, sharded LRU cache. Keys are content hashes
// (see Key), so a hit is a proof the expensive computation it memoizes was
// already done for identical inputs. Values are treated as immutable by
// convention. All methods are safe for concurrent use.
type Cache struct {
	shards [cacheShards]cacheShard
}

type cacheShard struct {
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

// NewCache returns a cache holding at most capacity entries in total,
// split evenly across shards (each shard holds at least one entry).
// capacity <= 0 defaults to 1024.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = 1024
	}
	perShard := capacity / cacheShards
	if perShard < 1 {
		perShard = 1
	}
	c := &Cache{}
	for i := range c.shards {
		c.shards[i].capacity = perShard
		c.shards[i].ll = list.New()
		c.shards[i].items = map[string]*list.Element{}
	}
	return c
}

// shardFor picks a shard by FNV-1a over the key. Keys are usually hex
// digests, whose byte values cover only 16 of 256 codes — a naive
// first-byte mod would leave shards empty — so rehashing spreads them
// evenly regardless of alphabet.
func (c *Cache) shardFor(key string) *cacheShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &c.shards[h%cacheShards]
}

// Get returns the cached value for key, marking it most recently used.
func (c *Cache) Get(key string) (any, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		s.misses++
		return nil, false
	}
	s.hits++
	s.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// Peek returns the cached value for key without touching recency or the
// hit/miss counters. Cluster-internal reads (outbox handoffs) go through
// Peek so peer traffic neither skews the cache statistics nor keeps
// entries warm that no client is asking for.
func (c *Cache) Peek(key string) (any, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*cacheEntry).val, true
}

// Add stores val under key, evicting the least recently used entry of the
// key's shard when the shard is full. Re-adding an existing key replaces
// its value and refreshes its recency.
func (c *Cache) Add(key string, val any) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		el.Value.(*cacheEntry).val = val
		s.ll.MoveToFront(el)
		return
	}
	s.items[key] = s.ll.PushFront(&cacheEntry{key: key, val: val})
	if s.ll.Len() > s.capacity {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.items, oldest.Value.(*cacheEntry).key)
		s.evictions++
	}
}

// CacheItem is one entry of an Items snapshot.
type CacheItem struct {
	Key string
	Val any
}

// Items snapshots every entry, most-recently-used first within each shard
// (shards are concatenated in index order). The snapshot layer feeds
// persisted caches back through Add in reverse, so restore approximately
// preserves recency.
func (c *Cache) Items() []CacheItem {
	var out []CacheItem
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for el := s.ll.Front(); el != nil; el = el.Next() {
			e := el.Value.(*cacheEntry)
			out = append(out, CacheItem{Key: e.key, Val: e.val})
		}
		s.mu.Unlock()
	}
	return out
}

// Len returns the total entry count across shards.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// CacheStats aggregates the per-shard counters.
type CacheStats struct {
	Entries   int    `json:"entries"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// Stats returns a consistent-enough snapshot of the cache counters (each
// shard is read atomically; shards are read in sequence).
func (c *Cache) Stats() CacheStats {
	var st CacheStats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += s.ll.Len()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Evictions += s.evictions
		s.mu.Unlock()
	}
	return st
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

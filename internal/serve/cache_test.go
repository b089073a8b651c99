package serve

import (
	"fmt"
	"sync"
	"testing"
)

func TestCacheHitMissEvict(t *testing.T) {
	const capacity = 16
	c := NewCache(capacity)
	if _, ok := c.Get(Key("absent")); ok {
		t.Fatal("hit on empty cache")
	}
	c.Add(Key("a"), 1)
	v, ok := c.Get(Key("a"))
	if !ok || v.(int) != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}

	// Overflow the cache: inserting many keys must evict and never grow
	// beyond capacity.
	for i := 0; i < 10*capacity; i++ {
		c.Add(Key(fmt.Sprint("k", i)), i)
	}
	st = c.Stats()
	if st.Entries != capacity {
		t.Errorf("entries = %d, capacity %d", st.Entries, capacity)
	}
	if want := uint64(10*capacity + 1 - capacity); st.Evictions != want {
		t.Errorf("evictions = %d, want %d", st.Evictions, want)
	}
}

func TestCacheLRUOrder(t *testing.T) {
	// Capacity two, three keys: a Get must refresh recency so the
	// untouched middle key is the one evicted.
	c := NewCache(2)
	keys := []string{Key("lru", "0"), Key("lru", "1"), Key("lru", "2")}
	c.Add(keys[0], 0)
	c.Add(keys[1], 1)
	if _, ok := c.Get(keys[0]); !ok { // refresh keys[0]
		t.Fatal("key 0 missing")
	}
	c.Add(keys[2], 2) // evicts keys[1], the least recently used
	if _, ok := c.Get(keys[1]); ok {
		t.Error("LRU entry survived eviction")
	}
	if _, ok := c.Get(keys[0]); !ok {
		t.Error("recently used entry evicted")
	}
}

// TestCacheHoldsExactlyCapacity: n distinct keys fit in NewCache(n) with no
// eviction, whatever their hashes, and the (n+1)-th Add evicts exactly the
// least recently used key.
func TestCacheHoldsExactlyCapacity(t *testing.T) {
	const n = 512
	c := NewCache(n)
	keys := make([]string, n+1)
	for i := range keys {
		keys[i] = Key("exact", fmt.Sprint(i))
	}
	for _, k := range keys[:n] {
		c.Add(k, k)
	}
	if st := c.Stats(); st.Entries != n || st.Evictions != 0 {
		t.Fatalf("after %d distinct adds: %+v, want %d entries and no evictions", n, st, n)
	}
	// Touch the oldest key so the second-oldest becomes the LRU one.
	if _, ok := c.Get(keys[0]); !ok {
		t.Fatal("oldest key missing before overflow")
	}
	c.Add(keys[n], n)
	if st := c.Stats(); st.Entries != n || st.Evictions != 1 {
		t.Fatalf("after overflow: %+v, want %d entries and one eviction", st, n)
	}
	for i, k := range keys {
		_, held := c.Peek(k)
		if want := i != 1; held != want {
			t.Errorf("key %d held = %v, want %v", i, held, want)
		}
	}
}

func TestCacheReplaceExisting(t *testing.T) {
	c := NewCache(64)
	k := Key("dup")
	c.Add(k, "old")
	c.Add(k, "new")
	v, ok := c.Get(k)
	if !ok || v.(string) != "new" {
		t.Errorf("Get = %v, %v", v, ok)
	}
	if c.Stats().Entries != 1 {
		t.Errorf("duplicate key grew the cache: %+v", c.Stats())
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := Key(fmt.Sprint("key", i%50))
				c.Add(k, i)
				c.Get(k)
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses == 0 {
		t.Error("no traffic recorded")
	}
}

func TestKeyIsContentAddressed(t *testing.T) {
	if Key("a", "b") != Key("a", "b") {
		t.Error("key not deterministic")
	}
	if Key("a", "b") == Key("ab") {
		t.Error("part boundaries collide")
	}
	if Key("a", "b") == Key("b", "a") {
		t.Error("key ignores part order")
	}
	if len(Key("x")) != 64 {
		t.Errorf("key length %d, want 64 hex chars", len(Key("x")))
	}
}

package serve

import (
	"context"
	"net/http"
	"slices"
	"sort"
	"sync"
	"time"

	"paragraph/internal/shard"
)

// The outbox is the one way a cache entry moves to a peer, always off the
// request path: a pending set of (target peer, key) pairs, filled three
// ways. A write-through owes a freshly evaluated key to each of its other
// owners; a ring change owes, for every held key this peer owned under the
// ring it last handed off under, each owner the key gained (a join, an
// eviction, another peer's departure); and this peer's own Leave is a ring
// change after which every remaining owner counts as gained. One flusher
// goroutine delivers it in size-bounded batches over POST /v1/replicate,
// woken by a write-through, by every ring swap and by the gossip tick. A
// pair that was not delivered stays for the next flush; one whose target
// no longer owns the key, or whose entry was evicted, is dropped.
//
// What that bounds: a holder starts handing a joiner its keys in the flush
// its own ring change kicks — the seed that admits the joiner at once,
// every other holder after the gossip round that tells it (at most one
// heartbeat) — and a pair the joiner does not take is retried every tick.

// handoff is one pending pair: key's entry is owed to peer.
type handoff struct{ peer, key string }

// outbox is the pending set. Every live pair names a held key and one of
// its at most rf owners, so it is bounded by the response cache's
// capacity × rf.
type outbox struct {
	flushMu sync.Mutex    // one flush at a time: the flusher's or a drain's
	ring    *shard.Ring   // the ring the last flush handed off under; guarded by flushMu
	kick    chan struct{} // one slot: wakes the flusher; a kick mid-flush waits for the next

	mu      sync.Mutex
	pending map[handoff]struct{}
	limit   int
}

// add owes key's entry to peer, reporting whether the outbox took the
// pair: a full outbox refuses new ones.
func (o *outbox) add(peer, key string) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	h := handoff{peer, key}
	if _, ok := o.pending[h]; !ok && len(o.pending) >= o.limit {
		return false
	}
	o.pending[h] = struct{}{}
	return true
}

// kickFlush wakes the flusher without waiting on it.
func (o *outbox) kickFlush() {
	select {
	case o.kick <- struct{}{}:
	default:
	}
}

func (o *outbox) size() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.pending)
}

// handoffBatchLimit caps entries per handoff POST; handoffBatchBytes caps
// the body well under maxReplicateBytes so a receiver never rejects a
// batch for size.
const (
	handoffBatchLimit = 128
	handoffBatchBytes = 1 << 20
)

// flushLoop is the flusher: one flush per kick, each bounded by a
// heartbeat, until the cluster stops.
func (s *Server) flushLoop() {
	c := s.cluster
	defer c.bg.Done()
	for {
		select {
		case <-c.quit:
			return
		case <-c.out.kick:
		}
		ctx, cancel := context.WithTimeout(context.Background(), c.heartbeat)
		c.out.flushMu.Lock()
		s.flushOutbox(ctx)
		c.out.flushMu.Unlock()
		cancel()
	}
}

// flushOutbox enqueues what the ring changed since the last flush, then
// delivers every pending pair it still can within ctx. The report counts
// the held keys this peer owned under the previous ring (zero when the
// ring did not change), the keys delivered, and the batches and failures.
// The caller holds flushMu.
func (s *Server) flushOutbox(ctx context.Context) DrainReport {
	c, o := s.cluster, &s.cluster.out
	var report DrainReport
	ring := c.ring()
	if ring != o.ring {
		report.OwnedKeys = s.enqueueGained(o.ring, ring)
		o.ring = ring
	}
	perTarget := map[string][]CacheItem{}
	o.mu.Lock()
	for h := range o.pending {
		val, held := s.adviseCache.Peek(h.key)
		if !held || ring == nil || !slices.Contains(ring.Owners(h.key, c.rf), h.peer) {
			delete(o.pending, h)
			continue
		}
		perTarget[h.peer] = append(perTarget[h.peer], CacheItem{Key: h.key, Val: val})
	}
	o.mu.Unlock()
	for target := range perTarget {
		report.Targets = append(report.Targets, target)
	}
	sort.Strings(report.Targets)
	delivered := map[string]bool{}
	for _, target := range report.Targets {
		s.postEntries(ctx, target, perTarget[target], &report, func(key string) {
			o.mu.Lock()
			delete(o.pending, handoff{target, key})
			o.mu.Unlock()
			delivered[key] = true
		})
	}
	report.Streamed = len(delivered)
	return report
}

// enqueueGained adds, for every held key self owned under last, each
// owner cur gives the key that last did not — every owner cur gives it,
// once self has left cur. It returns how many held keys self owned.
func (s *Server) enqueueGained(last, cur *shard.Ring) (owned int) {
	c := s.cluster
	if last == nil || cur == nil {
		return 0
	}
	left := !slices.Contains(cur.Members(), c.self)
	for _, it := range s.adviseCache.Items() {
		was := last.Owners(it.Key, c.rf)
		if !slices.Contains(was, c.self) {
			continue
		}
		owned++
		for _, owner := range cur.Owners(it.Key, c.rf) {
			if owner != c.self && (left || !slices.Contains(was, owner)) {
				c.out.add(owner, it.Key)
			}
		}
	}
	return owned
}

// postEntries sends one target's entries in bounded batches over the
// replicate wire schema on the forwarder's control path (a handoff is not
// a request forward), calling sent for each delivered key. A batch is
// encoded once and sent; one whose body comes out over handoffBatchBytes,
// or will not encode, is halved until it fits (or is a single entry). The
// next batch is sized from the bytes per entry of the one just built — the
// response cache mixes whole-grid rankings, each point carrying its
// source, with one-point rankings a few hundred bytes long, so a run of
// large entries must neither be re-encoded at full width every time nor
// leave the small ones after it trickling out a few per POST. The first
// batch the target does not take ends its turn; the rest wait for the next
// flush.
func (s *Server) postEntries(ctx context.Context, target string, items []CacheItem, report *DrainReport, sent func(key string)) {
	c := s.cluster
	n := handoffBatchLimit
	for len(items) > 0 && ctx.Err() == nil {
		n = min(n, len(items))
		body, err := encodeEntries(items[:n]...)
		for (err != nil || len(body) > handoffBatchBytes) && n > 1 {
			n /= 2
			body, err = encodeEntries(items[:n]...)
		}
		batch := items[:n]
		items = items[n:]
		if err != nil {
			report.Errors++
			c.outErrs.Inc()
			continue
		}
		n = max(1, min(handoffBatchLimit, n*handoffBatchBytes/len(body)))
		report.Batches++
		status, _, err := c.fwd.Control(ctx, http.MethodPost, target, "/v1/replicate", body)
		if err != nil || status/100 != 2 {
			report.Errors++
			c.outErrs.Inc()
			return
		}
		for _, it := range batch {
			sent(it.Key)
		}
		c.outDelivered.Add(uint64(len(batch)))
	}
}

// DrainReport summarizes a planned departure: what the leaving peer owned
// and what its outbox delivered to the new owners before the deadline.
type DrainReport struct {
	// AlreadyDraining reports a second drain request: the first one's
	// handoff already ran (or is running) and this call did nothing.
	AlreadyDraining bool `json:"already_draining,omitempty"`
	// Epoch is the ring version after the departure tombstone.
	Epoch uint64 `json:"epoch"`
	// OwnedKeys is how many local cache entries this peer owned under the
	// pre-departure ring; Streamed how many were delivered to at least
	// one new owner; Errors how many batch posts failed.
	OwnedKeys int `json:"owned_keys"`
	Streamed  int `json:"streamed"`
	Batches   int `json:"batches"`
	Errors    int `json:"errors"`
	// Targets are the peers handoff batches were addressed to, sorted.
	Targets   []string `json:"targets,omitempty"`
	ElapsedMS float64  `json:"elapsed_ms"`
}

// DrainCluster executes this peer's planned departure: tombstone self in
// the membership view, run a gossip round synchronously (so the tier
// re-rings before the handoff lands), then flush the outbox once, all
// within drainTimeout of ctx. A shutdown runs it (cmd/serve on SIGTERM).
// Idempotent — a second caller gets AlreadyDraining and no work.
// Outside cluster mode it reports an empty
// drain. The process keeps serving afterwards, local-only, and its gossip
// tick retries what the flush could not deliver; exiting is the caller's
// decision.
func (s *Server) DrainCluster(ctx context.Context) DrainReport {
	c := s.cluster
	if c == nil {
		return DrainReport{}
	}
	if !c.draining.CompareAndSwap(false, true) {
		return DrainReport{AlreadyDraining: true, Epoch: c.mem.Epoch()}
	}
	ctx, cancel := context.WithTimeout(ctx, drainTimeout)
	defer cancel()
	start := time.Now()
	// Held from the tombstone on, so the flusher cannot hand this
	// departure off before the report counts it.
	c.out.flushMu.Lock()
	defer c.out.flushMu.Unlock()
	c.mem.Leave(c.self)
	epoch := c.mem.Epoch()
	// Announce first, through a gossip round with the drain's longer
	// per-exchange bound: peers that re-ring before the handoff arrives
	// accept the writes anyway (the tombstone keeps us a known member), and
	// announcing early stops them forwarding fresh misses to a peer that
	// is about to vanish.
	s.gossipOnce(ctx, c.heartbeat+5*time.Second)
	report := s.flushOutbox(ctx)
	report.Epoch = epoch
	report.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	return report
}

package admit

import (
	"context"
	"slices"
	"sort"
	"sync"
)

// QueueConfig tunes a Queue. Zero values pick defaults.
type QueueConfig struct {
	// Concurrency is how many acquisitions may be outstanding at once
	// (the evaluation pool's size). Default 4.
	Concurrency int
	// MaxQueued bounds the total waiters across all lanes; beyond it new
	// arrivals are shed with ReasonQueueFull. Default 1024.
	MaxQueued int
	// MaxPerClient bounds one client's lane; beyond it that client's new
	// arrivals are shed with ReasonLaneFull while other clients keep
	// queueing. Default 256 (clamped to MaxQueued).
	MaxPerClient int
}

func (c QueueConfig) withDefaults() QueueConfig {
	if c.Concurrency <= 0 {
		c.Concurrency = 4
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 1024
	}
	if c.MaxPerClient <= 0 {
		c.MaxPerClient = 256
	}
	if c.MaxPerClient > c.MaxQueued {
		c.MaxPerClient = c.MaxQueued
	}
	return c
}

// waiter is one blocked Acquire call.
type waiter struct {
	ready      chan struct{} // closed by the dispatcher when the slot is granted
	dispatched bool          // set (under the queue mutex) before ready closes
}

// lane is one client's FIFO of waiters; a lane in the queue is never empty.
type lane struct {
	client string
	fifo   []*waiter
}

// maxTrackedClients bounds the cumulative per-client counter map; clients
// beyond it share the overflow bucket so an adversary minting client ids
// cannot grow the stats surface without bound (the lanes themselves are
// already bounded by MaxQueued waiters).
const maxTrackedClients = 256

// overflowClient is the shared counter bucket once maxTrackedClients
// distinct ids have been seen.
const overflowClient = "_other"

type clientCount struct {
	admitted uint64
	shed     uint64
}

// Queue is a per-client fair queue bounding concurrent work: Acquire
// blocks until a slot is granted (or sheds/cancels), Release frees the
// slot and dispatches the next waiter. Dispatch order is round-robin
// across per-client FIFO lanes, one waiter per lane per turn — FIFO within
// a client, fair across clients — so a client flooding the queue delays
// mostly itself. Lanes are created on first use and removed when they
// drain, keeping memory proportional to live waiters, not to the client
// population ever seen. Safe for concurrent use.
type Queue struct {
	mu  sync.Mutex
	cfg QueueConfig

	lanes map[string]*lane
	order []*lane // round-robin ring over lanes with queued waiters
	cur   int     // ring cursor

	running int
	queued  int // waiters across all lanes

	admitted      uint64
	shedQueueFull uint64
	shedLaneFull  uint64
	peakQueued    int
	peakLanes     int
	clients       map[string]*clientCount
}

// NewQueue returns a queue over cfg.
func NewQueue(cfg QueueConfig) *Queue {
	return &Queue{
		cfg:     cfg.withDefaults(),
		lanes:   map[string]*lane{},
		clients: map[string]*clientCount{},
	}
}

// Concurrency reports the configured slot count.
func (q *Queue) Concurrency() int { return q.cfg.Concurrency }

// Acquire blocks until the caller holds one of the queue's slots, then
// returns nil; the caller must Release when done. It returns a *ShedError
// (ReasonQueueFull or ReasonLaneFull) without blocking when the queue's
// bounds reject the request, and ctx.Err() when the context ends first —
// the waiter is unlinked, so an abandoned wait holds no slot and leaks no
// goroutine.
func (q *Queue) Acquire(ctx context.Context, client string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	q.mu.Lock()
	// Fast path: a free slot and an empty queue. queued must be zero or
	// the new arrival would overtake waiters the dispatcher owes first.
	if q.running < q.cfg.Concurrency && q.queued == 0 {
		q.running++
		q.admitted++
		q.counter(client).admitted++
		q.mu.Unlock()
		return nil
	}
	if q.queued >= q.cfg.MaxQueued {
		q.shedQueueFull++
		q.counter(client).shed++
		q.mu.Unlock()
		return &ShedError{Reason: ReasonQueueFull}
	}
	l := q.lane(client)
	if len(l.fifo) >= q.cfg.MaxPerClient {
		q.shedLaneFull++
		q.counter(client).shed++
		q.mu.Unlock()
		return &ShedError{Reason: ReasonLaneFull}
	}
	w := &waiter{ready: make(chan struct{})}
	l.fifo = append(l.fifo, w)
	q.queued++
	if q.queued > q.peakQueued {
		q.peakQueued = q.queued
	}
	if len(q.order) > q.peakLanes {
		q.peakLanes = len(q.order)
	}
	// Normally a no-op (the queue only holds waiters while slots are
	// full), but it makes admission self-healing if a transient state
	// left a free slot with waiters pending.
	q.dispatchLocked()
	q.mu.Unlock()

	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
		q.mu.Lock()
		if w.dispatched {
			// Lost the race: the dispatcher granted the slot as the
			// context fired. The slot is held; the caller proceeds and
			// lets its own ctx checks cut the work short.
			q.mu.Unlock()
			return nil
		}
		// Not dispatched, so w is still in its lane: forget it. A lane
		// holds at most MaxPerClient waiters, so the search is short.
		i := slices.Index(l.fifo, w)
		l.fifo = slices.Delete(l.fifo, i, i+1)
		q.queued--
		if len(l.fifo) == 0 {
			q.dropLaneLocked(l)
		}
		q.mu.Unlock()
		return ctx.Err()
	}
}

// Release frees a slot acquired by Acquire and hands it to the next
// waiter in fair order.
func (q *Queue) Release() {
	q.mu.Lock()
	q.running--
	q.dispatchLocked()
	q.mu.Unlock()
}

// Run executes fn while holding a slot: Acquire, run, Release. A context
// that ends after admission but before fn starts returns ctx.Err()
// without running fn.
func (q *Queue) Run(ctx context.Context, client string, fn func() error) error {
	if err := q.Acquire(ctx, client); err != nil {
		return err
	}
	defer q.Release()
	if err := ctx.Err(); err != nil {
		return err
	}
	return fn()
}

// lane returns (creating if needed) the client's lane, linked into the
// round-robin ring.
func (q *Queue) lane(client string) *lane {
	l, ok := q.lanes[client]
	if !ok {
		l = &lane{client: client}
		q.lanes[client] = l
		q.order = append(q.order, l)
	}
	return l
}

// counter returns the client's cumulative counters, folding clients
// beyond the tracking bound into the overflow bucket.
func (q *Queue) counter(client string) *clientCount {
	c, ok := q.clients[client]
	if ok {
		return c
	}
	if len(q.clients) >= maxTrackedClients {
		c, ok = q.clients[overflowClient]
		if !ok {
			c = &clientCount{}
			q.clients[overflowClient] = c
		}
		return c
	}
	c = &clientCount{}
	q.clients[client] = c
	return c
}

// dropLaneLocked unlinks an empty lane from the map and the ring,
// keeping the cursor on the lane that followed it.
func (q *Queue) dropLaneLocked(l *lane) {
	delete(q.lanes, l.client)
	for i, o := range q.order {
		if o == l {
			q.order = append(q.order[:i], q.order[i+1:]...)
			if i < q.cur {
				q.cur--
			}
			break
		}
	}
	if q.cur >= len(q.order) {
		q.cur = 0
	}
}

// dispatchLocked grants free slots to waiters in fair order.
func (q *Queue) dispatchLocked() {
	for q.running < q.cfg.Concurrency && q.queued > 0 {
		w, client := q.nextLocked()
		w.dispatched = true
		q.running++
		q.queued--
		q.admitted++
		q.counter(client).admitted++
		close(w.ready)
	}
}

// nextLocked pops the next waiter under round-robin: the cursor lane
// dispatches one waiter and the cursor advances. A lane it drains is
// removed. The caller guarantees a waiter exists (queued > 0).
func (q *Queue) nextLocked() (*waiter, string) {
	if q.cur >= len(q.order) {
		q.cur = 0
	}
	l := q.order[q.cur]
	w := l.fifo[0]
	l.fifo = l.fifo[1:]
	if len(l.fifo) == 0 {
		q.dropLaneLocked(l) // the cursor now rests on the lane after l
	} else {
		q.cur++
	}
	return w, l.client
}

// LaneStat is one live lane's depth.
type LaneStat struct {
	Client string `json:"client"`
	Queued int    `json:"queued"`
}

// ClientStat is one client's cumulative admission counters. Clients
// beyond the tracking bound aggregate under "_other".
type ClientStat struct {
	Client   string `json:"client"`
	Admitted uint64 `json:"admitted"`
	Shed     uint64 `json:"shed"`
}

// QueueStats is a point-in-time snapshot of the queue.
type QueueStats struct {
	Concurrency   int          `json:"concurrency"`
	Running       int          `json:"running"`
	Queued        int          `json:"queued"`
	Lanes         int          `json:"lanes"`
	PeakQueued    int          `json:"peak_queued"`
	PeakLanes     int          `json:"peak_lanes"`
	Admitted      uint64       `json:"admitted"`
	ShedQueueFull uint64       `json:"shed_queue_full"`
	ShedLaneFull  uint64       `json:"shed_lane_full"`
	LaneStats     []LaneStat   `json:"lane_stats,omitempty"`
	Clients       []ClientStat `json:"clients,omitempty"`
}

// Stats snapshots the queue's counters, lanes and per-client totals
// (both sorted by client for deterministic rendering).
func (q *Queue) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := QueueStats{
		Concurrency:   q.cfg.Concurrency,
		Running:       q.running,
		Queued:        q.queued,
		Lanes:         len(q.order),
		PeakQueued:    q.peakQueued,
		PeakLanes:     q.peakLanes,
		Admitted:      q.admitted,
		ShedQueueFull: q.shedQueueFull,
		ShedLaneFull:  q.shedLaneFull,
	}
	for _, l := range q.order {
		st.LaneStats = append(st.LaneStats, LaneStat{Client: l.client, Queued: len(l.fifo)})
	}
	sort.Slice(st.LaneStats, func(i, j int) bool { return st.LaneStats[i].Client < st.LaneStats[j].Client })
	for client, c := range q.clients {
		st.Clients = append(st.Clients, ClientStat{Client: client, Admitted: c.admitted, Shed: c.shed})
	}
	sort.Slice(st.Clients, func(i, j int) bool { return st.Clients[i].Client < st.Clients[j].Client })
	return st
}

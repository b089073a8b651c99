package shard

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"paragraph/internal/admit"
	"paragraph/internal/obs"
)

// ForwardedByHeader marks a request that was already forwarded once by the
// named peer. A receiving server must answer such a request locally, never
// re-forward it: during a membership change two peers' rings can briefly
// disagree about a key's owner, and the guard turns what would be a
// forwarding loop into at most one extra hop. Async (replication) posts
// carry it too, so their receiver treats them as peer traffic and never
// fans them back out.
const ForwardedByHeader = "X-Paragraph-Forwarded-By"

// The peer-forwarding clients' fixed bounds.
const (
	// forwardTimeout bounds one forwarded request end to end (connect,
	// send, owner's evaluation, response): an advise miss on the owner pays
	// a full grid evaluation, which dwarfs the network hop.
	forwardTimeout = 15 * time.Second
	// maxConnsPerPeer caps concurrent connections to one peer; idle
	// connections up to the cap are kept for reuse.
	maxConnsPerPeer = 8
	// asyncQueue bounds the fire-and-forget post queue (ForwardAsync). When
	// it is full new posts are dropped, never blocked on — async traffic is
	// best-effort by contract.
	asyncQueue = 256
	// asyncWorkers is how many goroutines drain the async queue.
	asyncWorkers = 2
)

// peerClient is one peer's bounded HTTP client plus its traffic counters.
type peerClient struct {
	client   *http.Client
	forwards atomic.Uint64 // requests successfully answered by this peer
	errors   atomic.Uint64 // transport failures (caller fell back to local)
}

// asyncPost is one queued fire-and-forget POST (a replication write). It
// carries the originating request's trace id so a write-through is
// attributable to the request that produced the entry.
type asyncPost struct {
	peer, path string
	body       []byte
	traceID    string
}

// Forwarder carries requests to their owning peer over HTTP. Each peer
// gets its own client with a bounded connection pool, so a slow or dead
// peer can exhaust only its own connections, never another peer's. Safe
// for concurrent use.
//
// Besides the synchronous Forward path it offers ForwardAsync: a bounded
// fire-and-forget queue drained by background workers, used by the serving
// tier to write cache entries through to replica peers without adding
// latency to the request that produced them.
type Forwarder struct {
	self string

	mu    sync.Mutex
	peers map[string]*peerClient

	queue      chan asyncPost
	quit       chan struct{}
	startOnce  sync.Once
	closeOnce  sync.Once
	asyncSent  atomic.Uint64 // async posts answered with a 2xx status
	asyncDrops atomic.Uint64 // async posts dropped because the queue was full
	asyncErrs  atomic.Uint64 // async posts that reached no peer
}

// NewForwarder returns a Forwarder that identifies itself as self (the
// value written into ForwardedByHeader).
func NewForwarder(self string) *Forwarder {
	return &Forwarder{
		self:  self,
		peers: map[string]*peerClient{},
		queue: make(chan asyncPost, asyncQueue),
		quit:  make(chan struct{}),
	}
}

func (f *Forwarder) peer(name string) *peerClient {
	f.mu.Lock()
	defer f.mu.Unlock()
	pc, ok := f.peers[name]
	if !ok {
		pc = &peerClient{client: &http.Client{
			Timeout: forwardTimeout,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: maxConnsPerPeer,
				MaxConnsPerHost:     maxConnsPerPeer,
				IdleConnTimeout:     90 * time.Second,
			},
		}}
		f.peers[name] = pc
	}
	return pc
}

// Meta is the request context a forward carries across the wire: the
// originating request's trace id (so the answering peer's trace joins
// it), and its remaining deadline budget (so the peer applies the same
// admission policy the origin would — a forwarded request must not
// outlive its caller's patience on someone else's queue).
type Meta struct {
	// TraceID propagates the originating request's trace ("" = untraced).
	TraceID string
	// Deadline is the originating request's remaining budget; when
	// positive it rides the deadline header and the receiving peer treats
	// it exactly like a client-set deadline. Zero propagates nothing.
	Deadline time.Duration
}

// do performs one loop-guarded request to peer+path on the peer's bounded
// client and returns the status and body of whatever the peer answered.
// Every path to a peer goes through it — forwards, async writes and
// control requests — and counting is the caller's job, because each path
// counts differently. The loop-guard header is also the sender's identity
// (receivers gate peer-only endpoints on it); meta's trace id and deadline
// ride along in their headers. body may be nil for GETs. ctx bounds the
// hop in addition to the client's own timeout.
func (f *Forwarder) do(ctx context.Context, method, peer, path string, body []byte, meta Meta) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, peer+path, rd)
	if err != nil {
		return 0, nil, fmt.Errorf("shard: building request to %s: %w", peer, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(ForwardedByHeader, f.self)
	if meta.TraceID != "" {
		req.Header.Set(obs.TraceHeader, meta.TraceID)
	}
	if meta.Deadline > 0 {
		req.Header.Set(admit.DeadlineHeader, admit.FormatDeadline(meta.Deadline))
	}
	resp, err := f.peer(peer).client.Do(req)
	if err != nil {
		return 0, nil, fmt.Errorf("shard: %s %s%s: %w", method, peer, path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, fmt.Errorf("shard: reading response from %s: %w", peer, err)
	}
	return resp.StatusCode, out, nil
}

// Control performs one request to peer+path on the peer's bounded client
// without touching the per-peer forwarding counters: membership gossip,
// anti-entropy key exchange and read-repair fetches are control-plane
// chatter that must not inflate the request-forwarding stats operators
// read off /v1/ring. body may be nil for GETs. The caller owns error
// counting.
func (f *Forwarder) Control(ctx context.Context, method, peer, path string, body []byte) (int, []byte, error) {
	return f.do(ctx, method, peer, path, body, Meta{})
}

// Prune drops the clients of peers not in keep, closing their idle
// connections, and returns how many were dropped. Peer clients are created
// lazily and were never removed, so a long-lived process whose membership
// shrank kept a connection pool (and its idle sockets) per departed peer
// forever; the serving tier calls Prune on every ring rebuild. Dropping a
// client also drops its forward/error counters — a departed peer's rows
// disappear from /v1/ring. In-flight requests on a pruned client finish
// normally (they hold their own reference; only idle connections close),
// and a later request to the same peer just recreates the client.
func (f *Forwarder) Prune(keep []string) int {
	keepSet := make(map[string]bool, len(keep))
	for _, k := range keep {
		keepSet[k] = true
	}
	f.mu.Lock()
	var victims []*peerClient
	for name, pc := range f.peers {
		if !keepSet[name] {
			victims = append(victims, pc)
			delete(f.peers, name)
		}
	}
	f.mu.Unlock()
	for _, pc := range victims {
		if tr, ok := pc.client.Transport.(*http.Transport); ok {
			tr.CloseIdleConnections()
		}
	}
	return len(victims)
}

// Forward POSTs body (JSON) to peer+path with the loop-guard header set and
// returns the peer's status code and response body. Any HTTP response —
// including an error status — counts as a successful forward: the owner
// answered, and its answer (even "unknown kernel") is authoritative. A
// non-nil error means the peer was unreachable (dial failure, timeout,
// truncated response); the caller should fall back to serving locally.
// ctx cancellation aborts the hop (counted as an error); meta carries the
// originating request's trace id and remaining deadline budget.
func (f *Forwarder) Forward(ctx context.Context, peer, path string, body []byte, meta Meta) (int, []byte, error) {
	pc := f.peer(peer)
	status, out, err := f.do(ctx, http.MethodPost, peer, path, body, meta)
	if err != nil {
		pc.errors.Add(1)
		return 0, nil, err
	}
	pc.forwards.Add(1)
	return status, out, nil
}

// ForwardAsync enqueues a fire-and-forget POST to peer+path and returns
// immediately. The post is carried by a background worker on the peer's
// bounded client; nothing is retried and no result is reported back. When
// the queue is full the post is dropped (counted in AsyncStats.Dropped)
// rather than blocking the caller — async traffic exists to shed work off
// the request path, so backpressure must never travel back up it. The
// return value reports whether the post was accepted into the queue.
// traceID ("" = untraced) propagates the originating request's trace.
func (f *Forwarder) ForwardAsync(peer, path string, body []byte, traceID string) bool {
	f.startOnce.Do(func() {
		for i := 0; i < asyncWorkers; i++ {
			go f.drainAsync()
		}
	})
	select {
	case f.queue <- asyncPost{peer: peer, path: path, body: body, traceID: traceID}:
		return true
	default:
		f.asyncDrops.Add(1)
		return false
	}
}

// drainAsync is one async worker: it posts queued jobs until Close.
func (f *Forwarder) drainAsync() {
	for {
		select {
		case <-f.quit:
			return
		case job := <-f.queue:
			status, _, err := f.do(context.Background(), http.MethodPost, job.peer, job.path, job.body, Meta{TraceID: job.traceID})
			if err != nil || status/100 != 2 {
				f.asyncErrs.Add(1)
			} else {
				f.asyncSent.Add(1)
			}
		}
	}
}

// Close stops the async workers. Queued posts that have not been picked up
// are abandoned (they were fire-and-forget). Synchronous Forward keeps
// working; Close exists so a shutting-down server does not leak workers.
func (f *Forwarder) Close() {
	f.closeOnce.Do(func() { close(f.quit) })
}

// PeerStats is one peer's forwarding counters.
type PeerStats struct {
	Peer     string `json:"peer"`
	Forwards uint64 `json:"forwards"`
	Errors   uint64 `json:"errors"`
}

// Stats snapshots the per-peer counters, sorted by peer name. Peers appear
// once the first request is forwarded to them.
func (f *Forwarder) Stats() []PeerStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]PeerStats, 0, len(f.peers))
	for name, pc := range f.peers {
		out = append(out, PeerStats{
			Peer:     name,
			Forwards: pc.forwards.Load(),
			Errors:   pc.errors.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

// AsyncStats snapshots the fire-and-forget queue's counters.
type AsyncStats struct {
	// Sent counts posts a peer answered with a 2xx status.
	Sent uint64
	// Dropped counts posts rejected because the queue was full.
	Dropped uint64
	// Errors counts posts that reached no peer or got a non-2xx answer.
	Errors uint64
	// Queued is the queue's current depth.
	Queued int
}

// Async snapshots the async-path counters.
func (f *Forwarder) Async() AsyncStats {
	return AsyncStats{
		Sent:    f.asyncSent.Load(),
		Dropped: f.asyncDrops.Load(),
		Errors:  f.asyncErrs.Load(),
		Queued:  len(f.queue),
	}
}

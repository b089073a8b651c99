package shard

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Dynamic membership: Membership turns the static member list a Ring is
// built from into a gossiped, self-healing view. Each peer's state travels
// as a Member record — an (incarnation, heartbeat) version vector plus a
// status — and views merge per record with a deterministic supersedes rule,
// so the merge is a join-semilattice: commutative, associative and
// idempotent. Any two peers that exchange views therefore converge on the
// same record set, and because rings are built from the sorted alive-member
// names alone, they converge on byte-identical rings (the churn property
// test asserts this).
//
// Failure detection is local and refutable: every peer tracks when it last
// saw each member's record advance; a member silent past EvictAfter is
// declared dead with a tombstone at its current incarnation, which gossip
// then spreads. A falsely-declared peer sees its own death in an incoming
// view and refutes it by re-announcing itself at a higher incarnation —
// higher incarnations always win, so the refutation overtakes the
// tombstone everywhere. Planned departures skip suspicion entirely: Leave
// writes a "left" tombstone that supersedes the member's alive record at
// the same incarnation.
//
// There is no separate join message: a peer joins by merging views with
// any member. Its alive record enters the member's view like any other
// record, and a restart over its own tombstone finds that tombstone in the
// reply and refutes it, so the next exchange admits it.
//
// Every ring-membership change swaps in a freshly built Ring under a new
// epoch. The (ring, epoch) pair is published atomically, so the serving
// path reads a consistent snapshot without locks while gossip mutates the
// record set underneath.

// Status is a member record's lifecycle state as it travels in gossip.
// Suspicion is deliberately not a wire status: it is a local, per-observer
// judgment (see MemberHealth) that either resolves back to alive or
// hardens into a dead tombstone.
type Status string

const (
	// StatusAlive is a serving ring member.
	StatusAlive Status = "alive"
	// StatusLeft is a planned departure: the member drained its keys and
	// announced it is gone. Left tombstones keep a rejoin honest (the
	// member must come back at a higher incarnation).
	StatusLeft Status = "left"
	// StatusDead is a failure verdict: some observer stopped seeing the
	// member's record advance and declared it. A live member refutes a
	// dead record about itself by bumping its incarnation.
	StatusDead Status = "dead"
)

// statusRank orders statuses for records at the same incarnation: a
// tombstone beats the alive record it was issued against, and dead beats
// left so a crash during a drain is reported as the crash it was.
func statusRank(s Status) int {
	switch s {
	case StatusDead:
		return 2
	case StatusLeft:
		return 1
	default:
		return 0
	}
}

// Member is one peer's gossip record. Incarnation is bumped only by the
// member itself (when refuting its own death or departure), Heartbeat on
// every gossip round; together they version the record. Status travels
// with the version so tombstones are just records like any other.
type Member struct {
	Name        string `json:"name"`
	Incarnation uint64 `json:"incarnation"`
	Heartbeat   uint64 `json:"heartbeat"`
	Status      Status `json:"status"`
}

// supersedes reports whether record b should replace record a (same
// member). Higher incarnation always wins; at equal incarnation a
// tombstone beats the record it was issued against; at equal status the
// fresher heartbeat wins.
func supersedes(b, a Member) bool {
	if b.Incarnation != a.Incarnation {
		return b.Incarnation > a.Incarnation
	}
	if br, ar := statusRank(b.Status), statusRank(a.Status); br != ar {
		return br > ar
	}
	return b.Heartbeat > a.Heartbeat
}

// View is the epoch-stamped membership view peers exchange: the sender's
// full record set, sorted by name so the wire form is deterministic. Epoch
// is the sender's local ring version — it is observability, not merge
// input (records carry their own versions).
type View struct {
	From    string   `json:"from"`
	Epoch   uint64   `json:"epoch"`
	Members []Member `json:"members"`
}

// MembershipConfig configures a Membership. Self is required and is always
// a record; Peers seed the initial alive set (a fixed member list; empty
// for a peer that joins by gossiping with a seed).
type MembershipConfig struct {
	Self  string
	Peers []string
	// SuspectAfter is how long a member's record may sit still before the
	// local health view reports it suspect (default 3s). Purely
	// informational — suspects stay in the ring.
	SuspectAfter time.Duration
	// EvictAfter is how long before a silent member is declared dead and
	// dropped from the ring (default 10s). Must exceed the gossip interval
	// by a comfortable multiple or healthy peers will evict each other.
	EvictAfter time.Duration
	// Clock substitutes a time source for tests; nil means time.Now.
	Clock func() time.Time
	// OnChange, when set, is called after every ring swap with the new
	// ring (nil when no alive members remain) and its epoch. It runs
	// outside the membership lock; implementations must not call back
	// into mutating Membership methods.
	OnChange func(ring *Ring, epoch uint64)
}

// ringState is the atomically published (ring, epoch) pair. ring is nil
// when the alive set is empty (a fully departed peer).
type ringState struct {
	ring  *Ring
	epoch uint64
}

// MembershipCounters are the state machine's lifetime counters.
type MembershipCounters struct {
	// Evictions counts dead declarations this peer issued itself.
	Evictions uint64 `json:"evictions"`
	// Refutations counts times this peer overrode a tombstone about
	// itself from an incoming view.
	Refutations uint64 `json:"refutations"`
}

// MemberHealth is one member's row in the local health view: the gossip
// record plus this observer's staleness judgment.
type MemberHealth struct {
	Member
	// Suspect reports an alive record that has not advanced within
	// SuspectAfter — still in the ring, but late.
	Suspect bool `json:"suspect,omitempty"`
	// AgeSeconds is how long ago this observer last saw the record
	// advance.
	AgeSeconds float64 `json:"age_seconds"`
}

// Membership is the dynamic-membership state machine. All methods are safe
// for concurrent use; Ring and Epoch are lock-free reads.
type Membership struct {
	cfg MembershipConfig
	cur atomic.Pointer[ringState]

	mu   sync.Mutex
	recs map[string]Member
	seen map[string]time.Time // when each record last advanced, by this observer's clock
	left bool                 // self issued a planned departure

	evictions atomic.Uint64
	refutes   atomic.Uint64
}

// NewMembership builds a Membership with Self alive (incarnation 1) and
// every Peer seeded alive at incarnation 1, heartbeat 0 — the static-list
// bootstrap. Peers that never actually start are evicted by the sweep like
// any other silent member.
func NewMembership(cfg MembershipConfig) (*Membership, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("shard: membership needs a self name")
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 3 * time.Second
	}
	if cfg.EvictAfter <= 0 {
		cfg.EvictAfter = 10 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	m := &Membership{
		cfg:  cfg,
		recs: map[string]Member{},
		seen: map[string]time.Time{},
	}
	now := cfg.Clock()
	m.recs[cfg.Self] = Member{Name: cfg.Self, Incarnation: 1, Heartbeat: 1, Status: StatusAlive}
	m.seen[cfg.Self] = now
	for _, p := range cfg.Peers {
		if p == "" {
			return nil, fmt.Errorf("shard: empty membership peer")
		}
		if p == cfg.Self {
			continue
		}
		m.recs[p] = Member{Name: p, Incarnation: 1, Heartbeat: 0, Status: StatusAlive}
		m.seen[p] = now
	}
	ring, err := NewRing(m.aliveLocked(), DefaultVNodes)
	if err != nil {
		return nil, err
	}
	m.cur.Store(&ringState{ring: ring, epoch: 1})
	return m, nil
}

// Ring returns the current ring snapshot — nil only after Self departed a
// single-member cluster. The ring is immutable; hold the returned pointer
// for a consistent multi-call view.
func (m *Membership) Ring() *Ring { return m.cur.Load().ring }

// Epoch returns the current ring version. It increments exactly when the
// ring-member set changes.
func (m *Membership) Epoch() uint64 { return m.cur.Load().epoch }

// Left reports whether Self issued a planned departure.
func (m *Membership) Left() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.left
}

// Knows reports whether name has any record — alive, left or dead. The
// serving tier uses it to gate peer-only endpoints: a draining peer's
// final writes must still be accepted after its tombstone arrives.
func (m *Membership) Knows(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.recs[name]
	return ok
}

// aliveLocked returns the sorted alive-member names (the ring member set).
func (m *Membership) aliveLocked() []string {
	var names []string
	for name, rec := range m.recs {
		if rec.Status == StatusAlive {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// rebuildLocked swaps in a new ring if the alive set changed, returning
// the change and the state to hand to OnChange. Callers fire OnChange
// after releasing the lock.
func (m *Membership) rebuildLocked() (changed bool, st *ringState) {
	alive := m.aliveLocked()
	cur := m.cur.Load()
	var curMembers []string
	if cur.ring != nil {
		curMembers = cur.ring.Members()
	}
	if len(alive) == len(curMembers) {
		same := true
		for i := range alive {
			if alive[i] != curMembers[i] {
				same = false
				break
			}
		}
		if same {
			return false, cur
		}
	}
	next := &ringState{epoch: cur.epoch + 1}
	if len(alive) > 0 {
		ring, err := NewRing(alive, DefaultVNodes)
		if err != nil {
			// Unreachable: alive names are non-empty and non-blank by
			// construction. Keep the old ring rather than serve a nil one.
			return false, cur
		}
		next.ring = ring
	}
	m.cur.Store(next)
	return true, next
}

// fireChange invokes OnChange for a rebuild outside the lock.
func (m *Membership) fireChange(changed bool, st *ringState) {
	if changed && m.cfg.OnChange != nil {
		m.cfg.OnChange(st.ring, st.epoch)
	}
}

// viewLocked renders the record set as a wire view, sorted by name.
func (m *Membership) viewLocked() View {
	v := View{From: m.cfg.Self, Epoch: m.cur.Load().epoch}
	v.Members = make([]Member, 0, len(m.recs))
	for _, rec := range m.recs {
		v.Members = append(v.Members, rec)
	}
	sort.Slice(v.Members, func(i, j int) bool { return v.Members[i].Name < v.Members[j].Name })
	return v
}

// View snapshots the full record set for a gossip reply or an on-demand
// exchange.
func (m *Membership) View() View {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.viewLocked()
}

// Beat advances Self's heartbeat and returns the view to gossip this
// round. After a planned departure the heartbeat freezes — a left record
// must not look live.
func (m *Membership) Beat() View {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.left {
		rec := m.recs[m.cfg.Self]
		rec.Heartbeat++
		m.recs[m.cfg.Self] = rec
		m.seen[m.cfg.Self] = m.cfg.Clock()
	}
	return m.viewLocked()
}

// Observe records direct proof of life for name — a gossip exchange with
// it — independent of whether its record advanced.
func (m *Membership) Observe(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if rec, ok := m.recs[name]; ok && rec.Status == StatusAlive {
		m.seen[name] = m.cfg.Clock()
	}
}

// Merge folds a remote view into the local record set: per member, the
// superseding record wins (see supersedes). Adopting an advanced alive
// record refreshes the member's last-seen clock. A tombstone about Self is
// refuted on the spot — unless Self really did leave. Returns whether the
// ring changed.
func (m *Membership) Merge(v View) bool {
	m.mu.Lock()
	now := m.cfg.Clock()
	for _, rec := range v.Members {
		if rec.Name == "" {
			continue
		}
		local, ok := m.recs[rec.Name]
		if ok && !supersedes(rec, local) {
			continue
		}
		m.recs[rec.Name] = rec
		if rec.Status == StatusAlive {
			m.seen[rec.Name] = now
		}
	}
	m.fixSelfLocked(now)
	changed, st := m.rebuildLocked()
	m.mu.Unlock()
	m.fireChange(changed, st)
	return changed
}

// fixSelfLocked re-establishes Self's record after a merge. A live peer
// that finds itself tombstoned re-announces at a higher incarnation (the
// refutation overtakes the tombstone everywhere); a departed peer lets its
// tombstone stand.
func (m *Membership) fixSelfLocked(now time.Time) {
	rec := m.recs[m.cfg.Self]
	if m.left {
		if rec.Status == StatusAlive {
			// A stale echo of our pre-departure record came back; re-issue
			// the left tombstone over it.
			rec.Status = StatusLeft
			rec.Heartbeat++
			m.recs[m.cfg.Self] = rec
		}
		return
	}
	if rec.Status != StatusAlive {
		m.recs[m.cfg.Self] = Member{
			Name:        m.cfg.Self,
			Incarnation: rec.Incarnation + 1,
			Heartbeat:   rec.Heartbeat + 1,
			Status:      StatusAlive,
		}
		m.seen[m.cfg.Self] = now
		m.refutes.Add(1)
	}
}

// Leave writes a planned-departure tombstone for name at its current
// incarnation (superseding its alive record everywhere). Leaving Self also
// freezes the heartbeat and pins the tombstone against stale echoes.
func (m *Membership) Leave(name string) {
	m.mu.Lock()
	rec, ok := m.recs[name]
	if !ok {
		m.mu.Unlock()
		return
	}
	if name == m.cfg.Self {
		m.left = true
	}
	if rec.Status == StatusAlive {
		rec.Status = StatusLeft
		rec.Heartbeat++
		m.recs[name] = rec
	}
	changed, st := m.rebuildLocked()
	m.mu.Unlock()
	m.fireChange(changed, st)
}

// Sweep applies the failure detector: every alive member (except Self)
// whose record has not advanced within EvictAfter is declared dead — a
// tombstone at its current incarnation, spread by the next gossip round
// and refutable by the member itself. Returns the names evicted this
// sweep.
func (m *Membership) Sweep() []string {
	m.mu.Lock()
	now := m.cfg.Clock()
	var evicted []string
	for name, rec := range m.recs {
		if name == m.cfg.Self || rec.Status != StatusAlive {
			continue
		}
		if now.Sub(m.seen[name]) > m.cfg.EvictAfter {
			rec.Status = StatusDead
			m.recs[name] = rec
			evicted = append(evicted, name)
			m.evictions.Add(1)
		}
	}
	sort.Strings(evicted)
	changed, st := m.rebuildLocked()
	m.mu.Unlock()
	m.fireChange(changed, st)
	return evicted
}

// Health snapshots every record with this observer's staleness judgment,
// sorted by name. Tombstoned members are included — operators reading
// /v1/ring want to see who left and who was evicted.
func (m *Membership) Health() []MemberHealth {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.cfg.Clock()
	out := make([]MemberHealth, 0, len(m.recs))
	for name, rec := range m.recs {
		age := now.Sub(m.seen[name])
		out = append(out, MemberHealth{
			Member:     rec,
			Suspect:    rec.Status == StatusAlive && name != m.cfg.Self && age > m.cfg.SuspectAfter,
			AgeSeconds: age.Seconds(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Counters snapshots the lifetime counters.
func (m *Membership) Counters() MembershipCounters {
	return MembershipCounters{
		Evictions:   m.evictions.Load(),
		Refutations: m.refutes.Load(),
	}
}

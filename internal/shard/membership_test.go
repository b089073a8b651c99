package shard

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// fakeClock is a manually advanced time source for deterministic sweeps.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) Advance(d time.Duration) { c.now = c.now.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{now: time.Unix(1_700_000_000, 0)} }
func mustMembership(t *testing.T, cfg MembershipConfig) *Membership {
	t.Helper()
	m, err := NewMembership(cfg)
	if err != nil {
		t.Fatalf("NewMembership: %v", err)
	}
	return m
}

func TestMembershipStaticBootstrap(t *testing.T) {
	m := mustMembership(t, MembershipConfig{Self: "a", Peers: []string{"b", "c", "a"}})
	ring := m.Ring()
	if got := ring.Members(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("members = %v", got)
	}
	if m.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", m.Epoch())
	}
	for _, name := range []string{"a", "b", "c"} {
		if !m.Knows(name) {
			t.Fatalf("Knows(%s) = false", name)
		}
	}
	if m.Knows("d") {
		t.Fatal("Knows(d) = true for a stranger")
	}
}

// exchange is one push-pull gossip exchange initiated by from: to merges
// from's view and from merges the reply.
func exchange(from, to *Membership) {
	to.Merge(from.View())
	from.Merge(to.View())
}

func TestMembershipJoinAndMergeConverge(t *testing.T) {
	seed := mustMembership(t, MembershipConfig{Self: "a"})
	joiner := mustMembership(t, MembershipConfig{Self: "b"})

	// b joins via a by gossiping with it: a merges b's record from a view
	// sent by a stranger and hands back its own.
	exchange(joiner, seed)
	if got := seed.Ring().Members(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("seed members after join = %v", got)
	}
	if seed.Epoch() != 2 {
		t.Fatalf("seed epoch = %d, want 2 after one membership change", seed.Epoch())
	}
	if !reflect.DeepEqual(joiner.Ring().Members(), seed.Ring().Members()) {
		t.Fatalf("joiner ring %v != seed ring %v", joiner.Ring().Members(), seed.Ring().Members())
	}
	if !ringsEqual(joiner.Ring(), seed.Ring()) {
		t.Fatal("converged rings are not byte-identical")
	}
}

func TestMembershipLeaveTombstoneWins(t *testing.T) {
	a := mustMembership(t, MembershipConfig{Self: "a", Peers: []string{"b"}})
	b := mustMembership(t, MembershipConfig{Self: "b", Peers: []string{"a"}})

	b.Leave("b")
	if !b.Left() {
		t.Fatal("b.Left() = false after Leave(self)")
	}
	if got := b.Ring().Members(); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("b's ring after leaving = %v", got)
	}
	a.Merge(b.View())
	if got := a.Ring().Members(); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("a's ring after b left = %v", got)
	}
	if !a.Knows("b") {
		t.Fatal("tombstone for b vanished")
	}
	// A stale echo of b's pre-departure alive record must not resurrect it.
	a.Merge(View{From: "c", Members: []Member{{Name: "b", Incarnation: 1, Heartbeat: 1, Status: StatusAlive}}})
	if got := a.Ring().Members(); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("stale alive echo resurrected b: %v", got)
	}
}

func TestMembershipRejoinBeatsTombstone(t *testing.T) {
	a := mustMembership(t, MembershipConfig{Self: "a", Peers: []string{"b"}})
	a.Leave("b")
	if a.Ring().Contains("b") {
		t.Fatal("b still in ring after leave")
	}
	// b restarts at incarnation 1 and gossips with a. Its record sits below
	// the tombstone, so the first exchange does not admit it; the reply
	// carries the tombstone, which b refutes at a higher incarnation.
	b := mustMembership(t, MembershipConfig{Self: "b"})
	exchange(b, a)
	if a.Ring().Contains("b") {
		t.Fatal("a record below b's tombstone re-admitted it")
	}
	if b.Counters().Refutations != 1 {
		t.Fatalf("b refutations = %d after seeing its tombstone, want 1", b.Counters().Refutations)
	}
	// The next exchange carries the refutation, which supersedes the
	// tombstone.
	exchange(b, a)
	if !a.Ring().Contains("b") {
		t.Fatal("b not re-admitted")
	}
	if !reflect.DeepEqual(b.Ring().Members(), a.Ring().Members()) {
		t.Fatalf("rejoined b ring %v != a ring %v", b.Ring().Members(), a.Ring().Members())
	}
}

func TestMembershipSweepEvictsSilentMember(t *testing.T) {
	clock := newFakeClock()
	var swaps []uint64
	a := mustMembership(t, MembershipConfig{
		Self: "a", Peers: []string{"b"},
		EvictAfter: 10 * time.Second,
		Clock:      clock.Now,
		OnChange:   func(_ *Ring, epoch uint64) { swaps = append(swaps, epoch) },
	})
	if ev := a.Sweep(); len(ev) != 0 {
		t.Fatalf("fresh member evicted: %v", ev)
	}
	clock.Advance(11 * time.Second)
	a.Beat() // self keeps beating; b stays silent
	if ev := a.Sweep(); !reflect.DeepEqual(ev, []string{"b"}) {
		t.Fatalf("Sweep = %v, want [b]", ev)
	}
	if a.Ring().Contains("b") {
		t.Fatal("b still in ring after eviction")
	}
	if a.Counters().Evictions != 1 {
		t.Fatalf("evictions = %d", a.Counters().Evictions)
	}
	if !reflect.DeepEqual(swaps, []uint64{2}) {
		t.Fatalf("OnChange epochs = %v, want [2]", swaps)
	}
	// A second sweep changes nothing: the tombstone is not alive.
	if ev := a.Sweep(); len(ev) != 0 {
		t.Fatalf("second sweep evicted again: %v", ev)
	}
}

func TestMembershipRefutesOwnDeath(t *testing.T) {
	b := mustMembership(t, MembershipConfig{Self: "b", Peers: []string{"a"}})
	// a declared b dead at b's current incarnation.
	b.Merge(View{From: "a", Members: []Member{{Name: "b", Incarnation: 1, Heartbeat: 5, Status: StatusDead}}})
	if !b.Ring().Contains("b") {
		t.Fatal("b dropped itself on a refutable tombstone")
	}
	view := b.View()
	var rec Member
	for _, r := range view.Members {
		if r.Name == "b" {
			rec = r
		}
	}
	if rec.Status != StatusAlive || rec.Incarnation != 2 {
		t.Fatalf("self record after refutation = %+v, want alive incarnation 2", rec)
	}
	if b.Counters().Refutations != 1 {
		t.Fatalf("refutations = %d", b.Counters().Refutations)
	}
	// The refutation wins at the peer that issued the tombstone.
	a := mustMembership(t, MembershipConfig{Self: "a", Peers: []string{"b"}})
	a.Merge(View{From: "x", Members: []Member{{Name: "b", Incarnation: 1, Heartbeat: 5, Status: StatusDead}}})
	if a.Ring().Contains("b") {
		t.Fatal("tombstone did not take at a")
	}
	a.Merge(b.View())
	if !a.Ring().Contains("b") {
		t.Fatal("refutation did not take at a")
	}
}

func TestMembershipHealthSuspect(t *testing.T) {
	clock := newFakeClock()
	a := mustMembership(t, MembershipConfig{
		Self: "a", Peers: []string{"b"},
		SuspectAfter: 3 * time.Second, EvictAfter: 10 * time.Second,
		Clock: clock.Now,
	})
	clock.Advance(5 * time.Second)
	a.Beat()
	health := a.Health()
	byName := map[string]MemberHealth{}
	for _, h := range health {
		byName[h.Name] = h
	}
	if !byName["b"].Suspect {
		t.Fatal("silent b not suspect")
	}
	if byName["a"].Suspect {
		t.Fatal("self reported suspect")
	}
	if byName["b"].AgeSeconds < 4.9 {
		t.Fatalf("b age = %v", byName["b"].AgeSeconds)
	}
}

// ringsEqual reports whether two rings are byte-identical: same members,
// same vnodes, same points in the same order.
func ringsEqual(a, b *Ring) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.vnodes == b.vnodes &&
		reflect.DeepEqual(a.members, b.members) &&
		reflect.DeepEqual(a.points, b.points)
}

// TestMembershipChurnProperty drives random join/leave/crash sequences
// through a fleet of Membership instances and asserts the three churn
// invariants: (1) no key is ever owner-less while any member is alive,
// (2) ownership moves per epoch are minimal — a key's owner list changes
// only when a member it involves joined or departed, never a reshuffle
// among survivors — and (3) after full gossip exchange every live peer
// converges to a byte-identical ring.
func TestMembershipChurnProperty(t *testing.T) {
	const (
		fleetSize = 5
		rounds    = 40
		keys      = 200
		rf        = 2
	)
	for seed := int64(0); seed < 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			clock := newFakeClock()
			names := make([]string, fleetSize)
			for i := range names {
				names[i] = fmt.Sprintf("http://peer-%c:80", 'a'+i)
			}
			// crashed peers stop gossiping but issue no tombstone; left
			// peers announce departure. members[name] == nil means the
			// process is down.
			members := map[string]*Membership{}
			crashed := map[string]bool{}
			for _, n := range names {
				members[n] = mustMembership(t, MembershipConfig{
					Self: n, Peers: names,
					EvictAfter: 10 * time.Second, Clock: clock.Now,
				})
			}
			sampleKeys := make([]string, keys)
			for i := range sampleKeys {
				sampleKeys[i] = fmt.Sprintf("key-%d", i)
			}

			// gossipRound performs one full gossip round: every live peer
			// beats, sweeps, and merges every other live peer's view twice
			// (push and pull) so the fleet reaches the semilattice fixpoint.
			gossipRound := func() {
				for _, n := range names {
					if members[n] == nil || crashed[n] {
						continue
					}
					members[n].Sweep()
					members[n].Beat()
				}
				for pass := 0; pass < 2; pass++ {
					for _, a := range names {
						if members[a] == nil || crashed[a] {
							continue
						}
						va := members[a].View()
						for _, b := range names {
							if b == a || members[b] == nil || crashed[b] {
								continue
							}
							members[b].Merge(va)
						}
					}
				}
			}

			ownersBefore := func(m *Membership) map[string][]string {
				out := make(map[string][]string, keys)
				r := m.Ring()
				if r == nil {
					return out
				}
				for _, k := range sampleKeys {
					out[k] = r.Owners(k, rf)
				}
				return out
			}

			observer := names[0] // never killed; the invariant witness
			for round := 0; round < rounds; round++ {
				before := ownersBefore(members[observer])
				beforeMembers := map[string]bool{}
				for _, m := range members[observer].Ring().Members() {
					beforeMembers[m] = true
				}

				// One random churn event.
				victim := names[1+rng.Intn(fleetSize-1)]
				switch op := rng.Intn(3); {
				case op == 0 && members[victim] != nil && !crashed[victim]:
					// Planned departure.
					members[victim].Leave(victim)
					v := members[victim].View()
					for _, n := range names {
						if n != victim && members[n] != nil && !crashed[n] {
							members[n].Merge(v)
						}
					}
					members[victim] = nil
				case op == 1 && members[victim] != nil && !crashed[victim]:
					// Crash: silent death, eviction must find it.
					crashed[victim] = true
					clock.Advance(11 * time.Second)
				default:
					// (Re)join through a random live seed.
					if members[victim] != nil && !crashed[victim] {
						break // already up: no-op round
					}
					var seedPeer *Membership
					for _, n := range names {
						if n != victim && members[n] != nil && !crashed[n] {
							seedPeer = members[n]
							break
						}
					}
					if seedPeer == nil {
						break
					}
					crashed[victim] = false
					members[victim] = mustMembership(t, MembershipConfig{
						Self: victim, EvictAfter: 10 * time.Second, Clock: clock.Now,
					})
					// Two exchanges: the first may hand the victim its
					// own tombstone to refute, the second carries the
					// refutation.
					exchange(members[victim], seedPeer)
					exchange(members[victim], seedPeer)
				}
				clock.Advance(time.Second)
				gossipRound()
				gossipRound() // second round lets eviction verdicts propagate

				// Invariant 1: no key owner-less.
				obsRing := members[observer].Ring()
				if obsRing == nil {
					t.Fatalf("round %d: observer lost its ring", round)
				}
				for _, k := range sampleKeys {
					if len(obsRing.Owners(k, rf)) == 0 {
						t.Fatalf("round %d: key %s owner-less", round, k)
					}
				}

				// Invariant 2: minimal moves. A key's owner list may change
				// only if it involved a departed member or a newly joined
				// member; survivors never reshuffle among themselves.
				afterMembers := map[string]bool{}
				for _, m := range obsRing.Members() {
					afterMembers[m] = true
				}
				for _, k := range sampleKeys {
					after := obsRing.Owners(k, rf)
					if reflect.DeepEqual(before[k], after) {
						continue
					}
					involved := false
					for _, o := range before[k] {
						if !afterMembers[o] {
							involved = true // an old owner departed
						}
					}
					for _, o := range after {
						if !beforeMembers[o] {
							involved = true // a new member took it
						}
					}
					if !involved {
						t.Fatalf("round %d: key %s reshuffled among survivors: %v -> %v",
							round, k, before[k], after)
					}
				}

				// Invariant 3: every live peer's ring is byte-identical.
				for _, n := range names {
					if members[n] == nil || crashed[n] || n == observer {
						continue
					}
					if !ringsEqual(members[n].Ring(), obsRing) {
						t.Fatalf("round %d: %s ring %v diverged from observer %v",
							round, n, members[n].Ring().Members(), obsRing.Members())
					}
					if members[n].Epoch() == 0 {
						t.Fatalf("round %d: %s epoch 0", round, n)
					}
				}
			}
		})
	}
}

// FuzzMembershipMerge merges arbitrary gossip views — what POST
// /v1/cluster/gossip decodes off the network — into a membership on a fake
// clock. Whatever the view says, the merge never panics, the ring is exactly
// the sorted alive records, self stays alive, merging the same view again
// changes nothing, and a later failure-detector sweep keeps all of it true.
func FuzzMembershipMerge(f *testing.F) {
	for _, seed := range []string{
		`{"from":"b","epoch":2,"members":[{"name":"a","incarnation":1,"heartbeat":3,"status":"alive"},{"name":"b","incarnation":1,"heartbeat":9,"status":"alive"}]}`,
		`{"from":"b","members":[{"name":"a","incarnation":4,"heartbeat":1,"status":"dead"}]}`,
		`{"from":"c","members":[{"name":"b","incarnation":2,"heartbeat":1,"status":"left"},{"name":"d","incarnation":1,"status":"alive"}]}`,
		`{"members":[{"name":"a","incarnation":18446744073709551615,"status":"left"}]}`,
		`{"members":[{"name":"","status":"alive"},{"name":"e","status":"zombie"},{"name":"e","incarnation":3,"status":"alive"}]}`,
		// First contact: a stranger's view naming only itself, which is how
		// a peer joins through a seed.
		`{"from":"d","epoch":1,"members":[{"name":"d","incarnation":1,"heartbeat":1,"status":"alive"}]}`,
		// A restarted c's first view, below the tombstone the fixture holds
		// for it.
		`{"from":"c","epoch":1,"members":[{"name":"c","incarnation":1,"heartbeat":1,"status":"alive"}]}`,
		`{}`, `null`, `[]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var view View
		if json.Unmarshal(data, &view) != nil {
			return
		}
		clock := newFakeClock()
		m := mustMembership(t, MembershipConfig{Self: "a", Peers: []string{"b", "c"}, Clock: clock.Now})
		m.Leave("c") // a tombstone for a restarted c to land below
		check := func(when string) {
			t.Helper()
			var alive []string
			selfAlive := false
			for _, h := range m.Health() { // sorted by name
				if h.Status == StatusAlive {
					alive = append(alive, h.Name)
				}
				selfAlive = selfAlive || h.Name == "a" && h.Status == StatusAlive
			}
			if !selfAlive {
				t.Fatalf("%s: self is not alive: %+v", when, m.Health())
			}
			if ring := m.Ring(); ring == nil || !reflect.DeepEqual(ring.Members(), alive) {
				t.Fatalf("%s: ring %v, alive records %v", when, ring.Members(), alive)
			}
		}

		m.Merge(view)
		check("after the merge")
		if m.Merge(view) {
			t.Fatal("merging the same view a second time changed the ring")
		}
		check("after the repeat")
		clock.Advance(11 * time.Second) // past the default EvictAfter
		m.Sweep()
		check("after a sweep")
	})
}

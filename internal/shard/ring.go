// Package shard partitions the advisor serving tier across processes with
// a consistent-hash ring. The serving layer's cache keys are already
// content-addressed (internal/serve.Key hashes everything a response
// depends on), so they are stable across processes by construction: hashing
// a key onto a ring of peers gives every request exactly one owner, and N
// independent servers become one cache-coherent tier — each key's cache
// entry lives (and its singleflight collapses) on one peer instead of being
// re-earned N times. Virtual nodes smooth the partition, and consistent
// hashing keeps membership changes cheap: adding or removing a peer moves
// only ~1/N of the key space (see TestRingMinimalDisruption).
//
// The package has two halves: Ring answers "who owns this key" with
// deterministic, membership-order-independent results, and Forwarder
// carries a request to its owner over HTTP with bounded per-peer
// connection reuse and a loop-guard header so disagreeing rings can never
// forward a request in circles.
package shard

import (
	"fmt"
	"sort"
	"strconv"
)

// DefaultVNodes is the virtual-node count used when a Ring is built with
// vnodes <= 0. 128 points per member keeps the largest/smallest ownership
// ratio within a few tens of percent for small clusters while the ring
// stays tiny (a few KB per member).
const DefaultVNodes = 128

// point is one virtual node: a position on the ring owned by a member.
type point struct {
	hash   uint64
	member int32
}

// Ring is an immutable consistent-hash ring over a set of member names
// (in the serving tier: peer base URLs). Build one with NewRing; all
// methods are safe for concurrent use because the ring never mutates —
// membership changes build a new Ring.
type Ring struct {
	members []string // sorted, deduped
	vnodes  int
	points  []point // sorted by (hash, member)
}

// NewRing builds a ring over members with vnodes virtual nodes each
// (vnodes <= 0 picks DefaultVNodes). Members are deduped and sorted, so
// rings built from the same set in any order are identical — every peer of
// a cluster computes the same ownership from the same member list.
func NewRing(members []string, vnodes int) (*Ring, error) {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := map[string]bool{}
	var uniq []string
	for _, m := range members {
		if m == "" {
			return nil, fmt.Errorf("shard: empty ring member")
		}
		if !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	if len(uniq) == 0 {
		return nil, fmt.Errorf("shard: ring needs at least one member")
	}
	sort.Strings(uniq)
	r := &Ring{
		members: uniq,
		vnodes:  vnodes,
		points:  make([]point, 0, len(uniq)*vnodes),
	}
	for mi, m := range uniq {
		for v := 0; v < vnodes; v++ {
			// The vnode label joins member and index with NUL so
			// ("ab", 1) and ("a", "b1") cannot collide.
			h := Hash64(m + "\x00" + strconv.Itoa(v))
			r.points = append(r.points, point{hash: h, member: int32(mi)})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	return r, nil
}

// Hash64 is the ring's hash: FNV-1a over s, then a Murmur3-style avalanche
// finalizer. Raw FNV-1a is too weakly mixed for ring positions — peer URLs
// differ in a few characters and vnode labels in a trailing integer, which
// left virtual nodes clustered (one member of a four-peer ring owned 6% of
// the key space) — so the finalizer spreads every output bit before the
// value becomes a position.
func Hash64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Owner returns the member owning key: the first virtual node at or after
// the key's hash, wrapping past the top of the ring. The result depends
// only on the member set, vnodes, and key. Owner(k) == Owners(k, 1)[0].
func (r *Ring) Owner(key string) string {
	h := Hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.members[r.points[i].member]
}

// Owners returns the key's successor list: the first rf distinct members
// whose virtual nodes follow the key's hash clockwise around the ring.
// Owners[0] is the primary owner (identical to Owner); the rest are the
// key's replicas in failover order. rf is clamped to [1, len(members)].
//
// Like Owner, the result depends only on the member set, vnodes, and key,
// so every peer of a cluster computes the same list. Successor lists keep
// the consistent-hashing disruption bound: removing a member changes only
// the lists that contained it (each loses that member and gains the next
// distinct successor), and adding one only inserts it into the lists of
// keys it now serves — no key's list ever reshuffles among survivors (see
// TestRingOwnersMinimalDisruption).
func (r *Ring) Owners(key string, rf int) []string {
	if rf < 1 {
		rf = 1
	}
	if rf > len(r.members) {
		rf = len(r.members)
	}
	h := Hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	owners := make([]string, 0, rf)
	seen := make(map[int32]bool, rf)
	for j := 0; len(owners) < rf; j++ {
		p := r.points[(i+j)%len(r.points)]
		if seen[p.member] {
			continue
		}
		seen[p.member] = true
		owners = append(owners, r.members[p.member])
	}
	return owners
}

// Members returns the ring's member names, sorted. The slice is shared;
// callers must not mutate it.
func (r *Ring) Members() []string { return r.members }

// VNodes returns the virtual-node count per member.
func (r *Ring) VNodes() int { return r.vnodes }

// Ownership returns each member's exact fraction of the key space: the
// summed widths of the hash arcs its virtual nodes own, over 2^64. The
// fractions sum to 1 (up to float rounding) and quantify how evenly the
// virtual nodes smoothed the partition.
func (r *Ring) Ownership() map[string]float64 {
	frac := make(map[string]float64, len(r.members))
	for _, m := range r.members {
		frac[m] = 0
	}
	if len(r.points) == 1 {
		frac[r.members[r.points[0].member]] = 1
		return frac
	}
	// A point owns the arc from its predecessor (exclusive) to itself
	// (inclusive). uint64 subtraction is mod 2^64, so the wrap arc from the
	// last point to the first needs no special case.
	for i, p := range r.points {
		prev := r.points[(i+len(r.points)-1)%len(r.points)]
		arc := p.hash - prev.hash
		frac[r.members[p.member]] += float64(float64(arc) / (1 << 64))
	}
	return frac
}

package shard

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		// Content-addressed serve keys are hex digests; hex-ish key material
		// keeps the test honest about the narrow alphabet the ring sees.
		out[i] = fmt.Sprintf("%064x", i*2654435761)
	}
	return out
}

// TestRingDeterministic: rings built from the same member set in any order
// agree on every owner and on the ownership fractions — the property that
// lets each peer compute routing independently from the shared member list.
func TestRingDeterministic(t *testing.T) {
	a, err := NewRing([]string{"http://a:1", "http://b:2", "http://c:3"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing([]string{"http://c:3", "http://a:1", "http://b:2", "http://a:1"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys(2000) {
		if ao, bo := a.Owner(k), b.Owner(k); ao != bo {
			t.Fatalf("owner(%s) differs across member orderings: %s vs %s", k, ao, bo)
		}
	}
	ao, bo := a.Ownership(), b.Ownership()
	for m, f := range ao {
		if bo[m] != f {
			t.Errorf("ownership(%s) = %v vs %v", m, f, bo[m])
		}
	}
}

// TestRingOwnershipBalance: virtual nodes must smooth the partition so no
// member owns a wildly disproportionate share, and the exact arc fractions
// must agree with an empirical key sample.
func TestRingOwnershipBalance(t *testing.T) {
	members := []string{"http://a:1", "http://b:2", "http://c:3", "http://d:4"}
	r, err := NewRing(members, 0) // DefaultVNodes
	if err != nil {
		t.Fatal(err)
	}
	frac := r.Ownership()
	sum := 0.0
	for m, f := range frac {
		sum += f
		if f < 0.10 || f > 0.45 {
			t.Errorf("member %s owns %.3f of the ring; want within [0.10, 0.45] of ideal 0.25", m, f)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("ownership fractions sum to %v, want 1", sum)
	}

	counts := map[string]int{}
	sample := keys(20000)
	for _, k := range sample {
		counts[r.Owner(k)]++
	}
	for _, m := range members {
		got := float64(counts[m]) / float64(len(sample))
		if math.Abs(got-frac[m]) > 0.02 {
			t.Errorf("member %s: sampled share %.3f vs arc share %.3f", m, got, frac[m])
		}
	}
}

// TestRingMinimalDisruption is the consistent-hashing contract: removing a
// member moves only that member's keys (every other key keeps its owner),
// and the moved share is ~1/N. Adding is checked as the mirror image.
func TestRingMinimalDisruption(t *testing.T) {
	members := []string{"http://a:1", "http://b:2", "http://c:3", "http://d:4"}
	full, err := NewRing(members, 0)
	if err != nil {
		t.Fatal(err)
	}
	removed := members[1]
	reduced, err := NewRing([]string{members[0], members[2], members[3]}, 0)
	if err != nil {
		t.Fatal(err)
	}

	sample := keys(20000)
	moved := 0
	for _, k := range sample {
		before, after := full.Owner(k), reduced.Owner(k)
		if before != removed {
			if after != before {
				t.Fatalf("key %s moved %s -> %s although %s was the member removed",
					k, before, after, removed)
			}
			continue
		}
		moved++
	}
	frac := float64(moved) / float64(len(sample))
	want := full.Ownership()[removed]
	if math.Abs(frac-want) > 0.02 {
		t.Errorf("removal moved %.3f of keys; removed member owned %.3f", frac, want)
	}
	if frac < 0.10 || frac > 0.45 {
		t.Errorf("removal moved %.3f of keys; want ~1/4 for a 4-member ring", frac)
	}

	// Mirror image: growing the reduced ring back only pulls keys onto the
	// re-added member; no key moves between surviving members.
	for _, k := range sample {
		before, after := reduced.Owner(k), full.Owner(k)
		if after != removed && after != before {
			t.Fatalf("adding %s moved key %s between survivors %s -> %s",
				removed, k, before, after)
		}
	}
}

func TestRingSingleMember(t *testing.T) {
	r, err := NewRing([]string{"http://solo:1"}, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys(100) {
		if r.Owner(k) != "http://solo:1" {
			t.Fatal("single-member ring routed a key elsewhere")
		}
	}
	if f := r.Ownership()["http://solo:1"]; math.Abs(f-1) > 1e-9 {
		t.Errorf("single member owns %v, want 1", f)
	}
}

func TestRingErrors(t *testing.T) {
	if _, err := NewRing(nil, 8); err == nil {
		t.Error("empty member set accepted")
	}
	if _, err := NewRing([]string{"http://a:1", ""}, 8); err == nil {
		t.Error("empty member name accepted")
	}
}

func TestRingContains(t *testing.T) {
	r, err := NewRing([]string{"http://b:2", "http://a:1"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Members(); !slices.Equal(got, []string{"http://a:1", "http://b:2"}) {
		t.Errorf("Members() = %v, want the sorted pair", got)
	}
}

// TestRingOwnersBasics: the successor list has exactly rf distinct
// members, starts with the primary owner, clamps rf to the member count,
// and is identical across rings built from any ordering of the same
// member set — every peer of a cluster computes the same failover order.
func TestRingOwnersBasics(t *testing.T) {
	members := []string{"http://a:1", "http://b:2", "http://c:3", "http://d:4"}
	r, err := NewRing(members, 0)
	if err != nil {
		t.Fatal(err)
	}
	shuffled, err := NewRing([]string{members[2], members[0], members[3], members[1]}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys(2000) {
		owners := r.Owners(k, 2)
		if len(owners) != 2 || owners[0] == owners[1] {
			t.Fatalf("Owners(%s, 2) = %v, want 2 distinct members", k, owners)
		}
		if owners[0] != r.Owner(k) {
			t.Fatalf("Owners(%s, 2)[0] = %s, Owner = %s", k, owners[0], r.Owner(k))
		}
		other := shuffled.Owners(k, 2)
		if owners[0] != other[0] || owners[1] != other[1] {
			t.Fatalf("owner list differs across member orderings: %v vs %v", owners, other)
		}
	}
	if got := r.Owners("k", 0); len(got) != 1 {
		t.Errorf("Owners(k, 0) = %v, want clamped to 1", got)
	}
	all := r.Owners("k", 99)
	if len(all) != len(members) {
		t.Fatalf("Owners(k, 99) = %v, want clamped to %d members", all, len(members))
	}
	seen := map[string]bool{}
	for _, o := range all {
		if seen[o] {
			t.Fatalf("Owners(k, 99) repeats %s: %v", o, all)
		}
		seen[o] = true
	}
}

// TestRingOwnersSlotBalance: each successor slot must be balanced on its
// own — every member should be the primary for ~1/N of keys AND the first
// replica for ~1/N of keys, with the sampled primary share agreeing with
// the exact arc fractions. A ring that smooths slot 0 but clumps slot 1
// would concentrate replica traffic (and failover load) on few peers.
func TestRingOwnersSlotBalance(t *testing.T) {
	members := []string{"http://a:1", "http://b:2", "http://c:3", "http://d:4"}
	r, err := NewRing(members, 0)
	if err != nil {
		t.Fatal(err)
	}
	sample := keys(20000)
	perSlot := [2]map[string]int{{}, {}}
	for _, k := range sample {
		for slot, m := range r.Owners(k, 2) {
			perSlot[slot][m]++
		}
	}
	frac := r.Ownership()
	for slot := range perSlot {
		for _, m := range members {
			got := float64(perSlot[slot][m]) / float64(len(sample))
			if got < 0.10 || got > 0.45 {
				t.Errorf("member %s holds %.3f of slot %d; want within [0.10, 0.45] of ideal 0.25", m, got, slot)
			}
			if slot == 0 {
				if diff := math.Abs(got - frac[m]); diff > 0.02 {
					t.Errorf("member %s: sampled primary share %.3f vs arc share %.3f", m, got, frac[m])
				}
			}
		}
	}
}

// TestRingOwnersMinimalDisruption is the replicated consistent-hashing
// contract: removing a member changes only the owner lists that contained
// it — every key whose list did not include the removed member keeps an
// identical list, and every key whose list did keeps its surviving owners
// (in order) and gains exactly one new member at the end of the walk.
func TestRingOwnersMinimalDisruption(t *testing.T) {
	members := []string{"http://a:1", "http://b:2", "http://c:3", "http://d:4"}
	full, err := NewRing(members, 0)
	if err != nil {
		t.Fatal(err)
	}
	removed := members[2]
	reduced, err := NewRing([]string{members[0], members[1], members[3]}, 0)
	if err != nil {
		t.Fatal(err)
	}

	const rf = 2
	changed := 0
	for _, k := range keys(20000) {
		before, after := full.Owners(k, rf), reduced.Owners(k, rf)
		had := false
		for _, o := range before {
			if o == removed {
				had = true
			}
		}
		if !had {
			for i := range before {
				if after[i] != before[i] {
					t.Fatalf("key %s owner list changed %v -> %v although %s was not in it",
						k, before, after, removed)
				}
			}
			continue
		}
		changed++
		// Survivors keep their relative order; the freed slot is filled by
		// a new member, never by reshuffling existing owners.
		survivors := make([]string, 0, rf)
		for _, o := range before {
			if o != removed {
				survivors = append(survivors, o)
			}
		}
		for i, sv := range survivors {
			if after[i] != sv {
				t.Fatalf("key %s: surviving owner order broke %v -> %v", k, before, after)
			}
		}
	}
	// A member appears in roughly rf/N of the owner lists, so its removal
	// should disturb about that share and no more.
	frac := float64(changed) / 20000
	if frac < 0.25 || frac > 0.75 {
		t.Errorf("removal changed %.3f of rf=2 owner lists; want ~%.2f", frac, float64(rf)/float64(len(members)))
	}
}

func BenchmarkRingOwner(b *testing.B) {
	members := make([]string, 8)
	for i := range members {
		members[i] = fmt.Sprintf("http://peer-%d:8080", i)
	}
	r, err := NewRing(members, 0)
	if err != nil {
		b.Fatal(err)
	}
	ks := keys(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Owner(ks[i%len(ks)])
	}
}

// BenchmarkRingOwners prices the successor-list walk against the single
// Owner lookup above — the per-request routing cost of replication.
func BenchmarkRingOwners(b *testing.B) {
	members := make([]string, 8)
	for i := range members {
		members[i] = fmt.Sprintf("http://peer-%d:8080", i)
	}
	r, err := NewRing(members, 0)
	if err != nil {
		b.Fatal(err)
	}
	ks := keys(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Owners(ks[i%len(ks)], 2)
	}
}

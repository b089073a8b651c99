package main

import (
	"context"
	"net/http/httptest"
	"testing"

	"paragraph/internal/serve"
	"paragraph/internal/shard"
)

// Every key the ring set-up selects must be one the second member owns. The
// selection is run against two in-process servers clustered over loopback;
// ownership is then recomputed from the answers' keys with the ring the
// servers build from the same member names.
func TestSelectOwnedPicksOnlyTheOwnersKeys(t *testing.T) {
	e, err := newEnv(0)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()

	var urls [2]string
	var srvs [2]*serve.Server
	for i := range srvs {
		if srvs[i], err = newInProcessServer(e.entry); err != nil {
			t.Fatal(err)
		}
		defer srvs[i].Close()
		hs := httptest.NewServer(srvs[i].Handler())
		defer hs.Close()
		urls[i] = hs.URL
	}
	for i := range srvs {
		if err := srvs[i].EnableCluster(serve.ClusterConfig{Self: urls[i], Peers: urls[:], Replication: 1}); err != nil {
			t.Fatal(err)
		}
	}

	const want = 12
	ctx := context.Background()
	keys, ops, err := e.selectOwned(ctx, urls[0], urls[1], newGenerator(2), want)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != want || ops < want {
		t.Fatalf("selected %d keys with %d requests, want %d keys", len(keys), ops, want)
	}
	ring, err := shard.NewRing(urls[:], 0)
	if err != nil {
		t.Fatal(err)
	}
	// The keys are warm on the owner now: asking again through the receiver
	// must be a forwarded hit, and the answer's key must hash to the owner.
	answers := make([]*serve.AdviseResponse, len(keys))
	for i := range keys {
		rec := handle(srvs[0], keys[i].Body)
		if answers[i], err = checkResponse(&keys[i], rec.Code, rec.Body.Bytes(), expect{cached: true, servedBy: urls[1]}); err != nil {
			t.Fatalf("selected key %d: %v", i, err)
		}
		if owner := ring.Owner(answers[i].Key); owner != urls[1] {
			t.Errorf("selected key %d is owned by %s, want %s", i, owner, urls[1])
		}
	}
}

func TestEvenSplitAddr(t *testing.T) {
	first := "http://127.0.0.1:18000"
	addr, err := evenSplitAddr(first)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := shard.NewRing([]string{first, "http://" + addr}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if share := ring.Ownership()["http://"+addr]; share < 0.49 || share > 0.51 {
		t.Errorf("second member owns %.3f of the ring, want 0.49..0.51", share)
	}
}

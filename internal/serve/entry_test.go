package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"paragraph/internal/advisor"
	"paragraph/internal/variants"
)

// randomEntries draws cache entries of both kinds: rankings of 0–47 points
// over every variant kind, predictions across many magnitudes, and sources
// carrying the characters JSON has to escape.
func randomEntries(rng *rand.Rand, n int) []CacheItem {
	kinds := variants.Kinds()
	us := func() float64 { return math.Exp(rng.Float64()*40 - 15) }
	items := make([]CacheItem, n)
	for i := range items {
		key := Key("entry", fmt.Sprint(rng.Int63()))
		if rng.Intn(3) == 0 {
			items[i] = CacheItem{Key: key, Val: us()}
			continue
		}
		recs := make([]advisor.Recommendation, rng.Intn(48))
		for j := range recs {
			recs[j] = advisor.Recommendation{
				Kind: kinds[rng.Intn(len(kinds))], Teams: rng.Intn(3) * 64,
				Threads: 1 + rng.Intn(256), PredictedUS: us(),
			}
			if rng.Intn(2) == 0 {
				recs[j].Source = fmt.Sprintf("void k%d(double *a) {\n\t#pragma omp \"%c\" <&> \n}\n", j, rune(1+rng.Intn(126)))
			}
		}
		items[i] = CacheItem{Key: key, Val: recs}
	}
	return items
}

// holds reports the entries of want that s's cache lacks or holds unequal.
func holds(t *testing.T, what string, s *Server, want []CacheItem) {
	t.Helper()
	for _, it := range want {
		got, ok := s.adviseCache.Peek(it.Key)
		if !ok || !reflect.DeepEqual(got, it.Val) {
			t.Errorf("%s: entry %s arrived as %#v (present %v), want %#v", what, it.Key, got, ok, it.Val)
		}
	}
}

// TestEntryCodecRoundTrips sends random entries of both kinds down every
// road an entry travels — snapshot → restore, replicate → handleReplicate,
// handleClusterEntry → pullEntry, and a drainTo batch — and requires the
// far side to hold values DeepEqual to what was sent.
func TestEntryCodecRoundTrips(t *testing.T) {
	items := randomEntries(rand.New(rand.NewSource(20)), 60)

	t.Run("snapshot", func(t *testing.T) {
		src, dst := newTestServer(t), newTestServer(t)
		for _, it := range items {
			src.adviseCache.Add(it.Key, it.Val)
		}
		var buf bytes.Buffer
		if err := src.SnapshotCache(&buf); err != nil {
			t.Fatal(err)
		}
		if n, err := dst.RestoreCache(&buf); err != nil || n != len(items) {
			t.Fatalf("RestoreCache = %d, %v, want %d entries", n, err, len(items))
		}
		holds(t, "restore", dst, items)
	})

	peers := startElasticCluster(t, 2, 2, ClusterConfig{Heartbeat: -1})
	a, b := peers[0], peers[1]
	owners := []string{a.url, b.url}

	t.Run("replicate", func(t *testing.T) {
		for _, it := range items[:20] {
			a.srv.replicate(it.Key, it.Val, owners, true, "")
		}
		waitCond(t, 10*time.Second, "the write-throughs to land", func() bool {
			return b.srv.cluster.replicatedIn.Value() >= 20
		})
		holds(t, "replicate", b.srv, items[:20])
	})

	t.Run("pull", func(t *testing.T) {
		for _, it := range items[20:40] {
			b.srv.adviseCache.Add(it.Key, it.Val)
			if !a.srv.pullEntry(context.Background(), it.Key, []string{b.url}) {
				t.Fatalf("pullEntry(%s) found nothing at its holder", it.Key)
			}
		}
		holds(t, "pull", a.srv, items[20:40])
	})

	t.Run("drain", func(t *testing.T) {
		var report DrainReport
		streamed := map[string]bool{}
		a.srv.drainTo(context.Background(), b.url, items[40:], &report, streamed)
		if report.Batches != 1 || report.Errors != 0 || len(streamed) != len(items[40:]) {
			t.Fatalf("drain report %+v, %d keys streamed, want one clean batch of %d", report, len(streamed), len(items[40:]))
		}
		holds(t, "drain", b.srv, items[40:])
	})
}

// TestDrainBatchesFitTheReceiver: entries too big for one body are split
// by the size of the body actually built, so every POST stays under
// drainBatchBytes (the receiver refuses bodies over maxReplicateBytes) and
// every entry still arrives — and the cache being a mix, the rankings with
// source at its head must not leave the predictions behind them going out
// a handful per POST.
func TestDrainBatchesFitTheReceiver(t *testing.T) {
	source := strings.Repeat("x", 2<<10)
	items := make([]CacheItem, 40, 40+300)
	for i := range items {
		recs := make([]advisor.Recommendation, 24)
		for j := range recs {
			recs[j] = advisor.Recommendation{Kind: variants.GPU, Teams: 64, Threads: 128, PredictedUS: float64(j + 1), Source: source}
		}
		items[i] = CacheItem{Key: Key("big", fmt.Sprint(i)), Val: recs}
	}
	for i := 0; i < 300; i++ {
		items = append(items, CacheItem{Key: Key("small", fmt.Sprint(i)), Val: float64(i + 1)})
	}

	// The receiver, with the size of every replicate body it is sent.
	recv := newTestServer(t)
	var largest atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/replicate" && r.ContentLength > largest.Load() {
			largest.Store(r.ContentLength)
		}
		recv.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(hs.Close)
	sender := bootElasticPeer(t, listenOn(t, ""), ClusterConfig{Peers: []string{hs.URL}, Heartbeat: -1})
	if err := recv.EnableCluster(ClusterConfig{Self: hs.URL, Peers: []string{sender.url}, Heartbeat: -1}); err != nil {
		t.Fatal(err)
	}

	var report DrainReport
	streamed := map[string]bool{}
	sender.srv.drainTo(context.Background(), hs.URL, items, &report, streamed)
	if report.Errors != 0 || len(streamed) != len(items) {
		t.Fatalf("drain report %+v, %d of %d keys streamed", report, len(streamed), len(items))
	}
	// ~2 MB of rankings cannot go in fewer than 2 bodies, and 300 predictions
	// in fewer than 3 batches of drainBatchLimit; sizing each batch from the
	// one before it costs a batch or two at each change of entry size.
	if report.Batches < 2 || report.Batches > 8 {
		t.Errorf("%d batches for ~2 MB of rankings followed by 300 predictions, want 2..8", report.Batches)
	}
	if got := largest.Load(); got == 0 || got > drainBatchBytes {
		t.Errorf("largest handoff body %d bytes, want within (0, %d]", got, drainBatchBytes)
	}
	holds(t, "drain", recv, items)
}

// The wire format as the parent commit (PR 19) wrote it, captured from its
// SnapshotCache and marshalReplicate: a rolling restart across the codec's
// rewrite must keep its warmth in both directions, so these bytes restore
// to goldenEntries and goldenEntries encode back to exactly these bytes.
const (
	goldenSnapshot         = `{"version":1,"advise":[{"key":"golden-advise-1","recs":[{"kind":"gpu_collapse_mem","teams":64,"threads":128,"predicted_us":12.5,"source":"void f(int n) {\n\t#pragma omp \"x\"\n}\n"},{"kind":"cpu","threads":8,"predicted_us":0.001},{"kind":"gpu","teams":16,"threads":64,"predicted_us":123456.789}]},{"key":"golden-advise-2","recs":[]}],"predict":[{"key":"golden-predict-2","us":0.00007},{"key":"golden-predict-1","us":42.25}]}` + "\n"
	goldenReplicateAdvise  = `{"version":1,"advise":[{"key":"golden-advise-1","recs":[{"kind":"gpu_collapse_mem","teams":64,"threads":128,"predicted_us":12.5,"source":"void f(int n) {\n\t#pragma omp \"x\"\n}\n"},{"kind":"cpu","threads":8,"predicted_us":0.001},{"kind":"gpu","teams":16,"threads":64,"predicted_us":123456.789}]}],"predict":null}`
	goldenReplicatePredict = `{"version":1,"advise":null,"predict":[{"key":"golden-predict-1","us":42.25}]}`
)

// goldenEntries are the cache entries behind the golden bytes, in the order
// the parent's test added them.
var goldenEntries = []CacheItem{
	{Key: "golden-advise-1", Val: []advisor.Recommendation{
		{Kind: variants.GPUCollapseMem, Teams: 64, Threads: 128, PredictedUS: 12.5, Source: "void f(int n) {\n\t#pragma omp \"x\"\n}\n"},
		{Kind: variants.CPU, Threads: 8, PredictedUS: 1e-3},
		{Kind: variants.GPU, Teams: 16, Threads: 64, PredictedUS: 123456.789},
	}},
	{Key: "golden-advise-2", Val: []advisor.Recommendation{}},
	{Key: "golden-predict-1", Val: 42.25},
	{Key: "golden-predict-2", Val: 7e-05},
}

func TestEntryCodecGolden(t *testing.T) {
	if snapshotVersion != 1 {
		t.Fatalf("snapshotVersion = %d: the golden bytes are version 1", snapshotVersion)
	}

	// A parent-written snapshot restores, and snapshots back byte for byte.
	s := newTestServer(t)
	if n, err := s.RestoreCache(strings.NewReader(goldenSnapshot)); err != nil || n != len(goldenEntries) {
		t.Fatalf("RestoreCache(golden) = %d, %v, want %d entries", n, err, len(goldenEntries))
	}
	holds(t, "golden snapshot", s, goldenEntries)
	var buf bytes.Buffer
	if err := s.SnapshotCache(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != goldenSnapshot {
		t.Errorf("re-encoded snapshot differs from the parent's bytes:\n got %s\nwant %s", buf.String(), goldenSnapshot)
	}

	// So do the parent's single-entry bodies, as a pulled entry and as a
	// /v1/replicate write.
	peers := startClusterRF(t, 2, 2)
	for _, c := range []struct {
		golden string
		want   CacheItem
	}{
		{goldenReplicateAdvise, goldenEntries[0]},
		{goldenReplicatePredict, goldenEntries[2]},
	} {
		got, err := decodeEntry([]byte(c.golden))
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("decodeEntry(golden %s) = %#v, %v", c.want.Key, got, err)
		}
		if body, err := encodeEntries(c.want); err != nil || string(body) != c.golden {
			t.Errorf("re-encoded entry differs from the parent's bytes:\n got %s (%v)\nwant %s", body, err, c.golden)
		}
		if rec := doRaw(t, peers[0].srv, http.MethodPost, "/v1/replicate", []byte(c.golden), peers[1].http.URL); rec.Code != http.StatusOK {
			t.Errorf("golden replicate body for %s refused: %d %s", c.want.Key, rec.Code, rec.Body.String())
		}
		holds(t, "golden replicate", peers[0].srv, []CacheItem{c.want})
	}
}

// FuzzDecodeEntries feeds arbitrary bytes to both decoders of the entry
// codec — a snapshot body (what -cache-file and /v1/replicate restore) and
// a single-entry body (/v1/cluster/entry). Neither may panic, and every
// item either accepts must encode and decode back to the same key and
// value, with the encoding a fixed point.
func FuzzDecodeEntries(f *testing.F) {
	for _, seed := range []string{goldenSnapshot, goldenReplicateAdvise, goldenReplicatePredict} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var items []CacheItem
		var snap cacheSnapshot
		if json.Unmarshal(data, &snap) == nil {
			items, _ = snap.entries() // a refused snapshot accepts no item
		}
		if it, err := decodeEntry(data); err == nil {
			items = append(items, it)
		}
		for _, it := range items {
			body, err := encodeEntries(it)
			if err != nil {
				t.Fatalf("re-encoding %s: %v", it.Key, err)
			}
			back, err := decodeEntry(body)
			if err != nil || back.Key != it.Key || !reflect.DeepEqual(back.Val, it.Val) {
				t.Fatalf("%s does not round-trip: got %#v, %v, want %#v", body, back, err, it)
			}
			if again, _ := encodeEntries(back); !bytes.Equal(again, body) {
				t.Fatalf("encoding is not a fixed point:\n%s\n%s", body, again)
			}
		}
	})
}

// TestEntryCodecRejectsHostileBodies: what a confused or hostile peer can
// put on the wire is refused where it always was — an entry body must be
// exactly one entry of this version, every variant known, for the key that
// was asked for; a replicate body must fit maxReplicateBytes.
func TestEntryCodecRejectsHostileBodies(t *testing.T) {
	for name, body := range map[string]string{
		"garbage":            `{not json`,
		"no entries":         `{"version":1,"advise":null,"predict":null}`,
		"two rankings":       `{"version":1,"advise":[{"key":"k","recs":[]},{"key":"k2","recs":[]}],"predict":null}`,
		"one of each kind":   `{"version":1,"advise":[{"key":"k","recs":[]}],"predict":[{"key":"k","us":1}]}`,
		"two predictions":    `{"version":1,"advise":null,"predict":[{"key":"k","us":1},{"key":"k2","us":2}]}`,
		"unknown variant":    `{"version":1,"advise":[{"key":"k","recs":[{"kind":"warp_simd","threads":8,"predicted_us":1}]}],"predict":null}`,
		"future version":     `{"version":2,"advise":null,"predict":[{"key":"k","us":1}]}`,
		"no version":         `{"predict":[{"key":"k","us":1}]}`,
		"non-finite literal": `{"version":1,"advise":null,"predict":[{"key":"k","us":NaN}]}`,
	} {
		if it, err := decodeEntry([]byte(body)); err == nil {
			t.Errorf("%s: decodeEntry accepted %#v", name, it)
		}
	}

	// A holder answering with a well-formed entry for a different key is
	// passed over, and nothing of its answer is kept.
	liar := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(goldenReplicatePredict))
	}))
	t.Cleanup(liar.Close)
	p := bootElasticPeer(t, listenOn(t, ""), ClusterConfig{Peers: []string{liar.URL}, Heartbeat: -1})
	if p.srv.pullEntry(context.Background(), "the-key-asked-for", []string{liar.URL}) {
		t.Error("pullEntry accepted an entry for another key")
	}
	if n := p.srv.adviseCache.Len(); n != 0 {
		t.Errorf("%d entries cached from a mismatched answer", n)
	}
	// The same holder does satisfy a pull for the key it answers.
	if !p.srv.pullEntry(context.Background(), "golden-predict-1", []string{liar.URL}) {
		t.Error("pullEntry refused a matching entry")
	}

	// A replicate body over the cap is refused whole, whatever it holds.
	big := []CacheItem{{Key: "big", Val: []advisor.Recommendation{{Kind: variants.GPU, Threads: 1, PredictedUS: 1,
		Source: strings.Repeat("x", maxReplicateBytes)}}}}
	body, err := encodeEntries(big...)
	if err != nil {
		t.Fatal(err)
	}
	if rec := doRaw(t, p.srv, http.MethodPost, "/v1/replicate", body, liar.URL); rec.Code != http.StatusBadRequest {
		t.Errorf("oversize replicate body: %d, want 400", rec.Code)
	}
	if _, ok := p.srv.adviseCache.Peek("big"); ok {
		t.Error("an entry from an oversize replicate body was cached")
	}
	if _, err := p.srv.RestoreCache(strings.NewReader(`{"version":2,"advise":null,"predict":[{"key":"k","us":1}]}`)); err == nil {
		t.Error("RestoreCache accepted a future version")
	}
}

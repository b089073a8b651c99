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

// randomEntries draws cache entries: rankings of 0–47 points over every
// variant kind — a third of them one-point — predictions across many
// magnitudes, and sources carrying the characters JSON has to escape.
func randomEntries(rng *rand.Rand, n int) []CacheItem {
	kinds := variants.Kinds()
	us := func() float64 { return math.Exp(rng.Float64()*40 - 15) }
	items := make([]CacheItem, n)
	for i := range items {
		key := Key("entry", fmt.Sprint(rng.Int63()))
		points := rng.Intn(48)
		if rng.Intn(3) == 0 {
			points = 1
		}
		recs := make([]advisor.Recommendation, points)
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

// TestEntryCodecRoundTrips sends random entries down every road an entry
// travels — snapshot → restore, a write-through through the
// outbox's flusher → handleReplicate, and an outbox batch — and requires
// the far side to hold values DeepEqual to what was sent.
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
		for _, it := range items[:40] {
			a.srv.adviseCache.Add(it.Key, it.Val)
			a.srv.replicate(it.Key, owners, true)
		}
		waitCond(t, 10*time.Second, "the write-throughs to land", func() bool {
			return b.srv.cluster.replicatedIn.Value() >= 40
		})
		holds(t, "replicate", b.srv, items[:40])
	})

	t.Run("drain", func(t *testing.T) {
		var report DrainReport
		streamed := map[string]bool{}
		a.srv.postEntries(context.Background(), b.url, items[40:], &report, func(key string) { streamed[key] = true })
		if report.Batches != 1 || report.Errors != 0 || len(streamed) != len(items[40:]) {
			t.Fatalf("drain report %+v, %d keys streamed, want one clean batch of %d", report, len(streamed), len(items[40:]))
		}
		holds(t, "drain", b.srv, items[40:])
	})
}

// TestDrainBatchesFitTheReceiver: entries too big for one body are split
// by the size of the body actually built, so every POST stays under
// handoffBatchBytes (the receiver refuses bodies over maxReplicateBytes) and
// every entry still arrives — and the cache being a mix, the rankings with
// source at its head must not leave the one-point rankings behind them
// going out a handful per POST.
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
		items = append(items, CacheItem{Key: Key("small", fmt.Sprint(i)), Val: []advisor.Recommendation{
			{Kind: variants.CPU, Threads: 8, PredictedUS: float64(i + 1)},
		}})
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
	sender.srv.postEntries(context.Background(), hs.URL, items, &report, func(key string) { streamed[key] = true })
	if report.Errors != 0 || len(streamed) != len(items) {
		t.Fatalf("drain report %+v, %d of %d keys streamed", report, len(streamed), len(items))
	}
	// ~2 MB of rankings cannot go in fewer than 2 bodies, and 300 one-point
	// rankings in fewer than 3 batches of handoffBatchLimit; sizing each batch
	// from the one before it costs a batch or two at each change of entry
	// size.
	if report.Batches < 2 || report.Batches > 8 {
		t.Errorf("%d batches for ~2 MB of rankings followed by 300 one-point rankings, want 2..8", report.Batches)
	}
	if got := largest.Load(); got == 0 || got > handoffBatchBytes {
		t.Errorf("largest handoff body %d bytes, want within (0, %d]", got, handoffBatchBytes)
	}
	holds(t, "drain", recv, items)
}

// The wire format as older builds wrote it, captured from their
// SnapshotCache and replicate bodies, when the cache also held single
// predictions under "predict": a rolling restart must keep its warmth in
// both directions, so these bytes restore to goldenEntries' rankings — the
// predictions skipped — and goldenEntries encode back to exactly these
// bytes with the "predict" key gone, which an older decoder reads as none.
const (
	goldenSnapshot         = `{"version":1,"advise":[{"key":"golden-advise-1","recs":[{"kind":"gpu_collapse_mem","teams":64,"threads":128,"predicted_us":12.5,"source":"void f(int n) {\n\t#pragma omp \"x\"\n}\n"},{"kind":"cpu","threads":8,"predicted_us":0.001},{"kind":"gpu","teams":16,"threads":64,"predicted_us":123456.789}]},{"key":"golden-advise-2","recs":[]}],"predict":[{"key":"golden-predict-2","us":0.00007},{"key":"golden-predict-1","us":42.25}]}` + "\n"
	goldenReplicateAdvise  = `{"version":1,"advise":[{"key":"golden-advise-1","recs":[{"kind":"gpu_collapse_mem","teams":64,"threads":128,"predicted_us":12.5,"source":"void f(int n) {\n\t#pragma omp \"x\"\n}\n"},{"kind":"cpu","threads":8,"predicted_us":0.001},{"kind":"gpu","teams":16,"threads":64,"predicted_us":123456.789}]}],"predict":null}`
	goldenReplicatePredict = `{"version":1,"advise":null,"predict":[{"key":"golden-predict-1","us":42.25}]}`
)

// goldenEntries are the rankings behind the golden bytes, in the order the
// test that captured them added them.
var goldenEntries = []CacheItem{
	{Key: "golden-advise-1", Val: []advisor.Recommendation{
		{Kind: variants.GPUCollapseMem, Teams: 64, Threads: 128, PredictedUS: 12.5, Source: "void f(int n) {\n\t#pragma omp \"x\"\n}\n"},
		{Kind: variants.CPU, Threads: 8, PredictedUS: 1e-3},
		{Kind: variants.GPU, Teams: 16, Threads: 64, PredictedUS: 123456.789},
	}},
	{Key: "golden-advise-2", Val: []advisor.Recommendation{}},
}

// withoutPredict is golden as this build writes it: the same bytes with
// the "predict" member cut.
func withoutPredict(golden string) string {
	i := strings.Index(golden, `,"predict":`)
	j := strings.LastIndex(golden, "}")
	return golden[:i] + golden[j:]
}

func TestEntryCodecGolden(t *testing.T) {
	if snapshotVersion != 1 {
		t.Fatalf("snapshotVersion = %d: the golden bytes are version 1", snapshotVersion)
	}

	// An older snapshot restores its rankings and skips its predictions,
	// and snapshots back byte for byte but for the "predict" member.
	s := newTestServer(t)
	if n, err := s.RestoreCache(strings.NewReader(goldenSnapshot)); err != nil || n != len(goldenEntries) {
		t.Fatalf("RestoreCache(golden) = %d, %v, want its %d rankings", n, err, len(goldenEntries))
	}
	holds(t, "golden snapshot", s, goldenEntries)
	if n := s.adviseCache.Stats().Entries; n != len(goldenEntries) {
		t.Errorf("%d entries cached from the golden snapshot, want its %d rankings", n, len(goldenEntries))
	}
	var buf bytes.Buffer
	if err := s.SnapshotCache(&buf); err != nil {
		t.Fatal(err)
	}
	if want := withoutPredict(goldenSnapshot); buf.String() != want {
		t.Errorf("re-encoded snapshot differs from the older bytes:\n got %s\nwant %s", buf.String(), want)
	}

	// So do an older peer's single-entry bodies, as /v1/replicate takes
	// them: 200, accepting the rankings a batch carries and no prediction.
	peers := startClusterRF(t, 2, 2)
	for _, c := range []struct {
		golden string
		want   []CacheItem
	}{
		{goldenReplicateAdvise, goldenEntries[:1]},
		{goldenReplicatePredict, nil},
	} {
		var ack struct {
			Accepted int `json:"accepted"`
		}
		rec := doRaw(t, peers[0].srv, http.MethodPost, "/v1/replicate", []byte(c.golden), peers[1].http.URL)
		if err := json.Unmarshal(rec.Body.Bytes(), &ack); rec.Code != http.StatusOK || err != nil || ack.Accepted != len(c.want) {
			t.Errorf("golden replicate body %s: %d %s, want 200 accepting %d", c.golden, rec.Code, rec.Body.String(), len(c.want))
		}
		holds(t, "golden replicate", peers[0].srv, c.want)
	}
	if body, err := encodeEntries(goldenEntries[0]); err != nil || string(body) != withoutPredict(goldenReplicateAdvise) {
		t.Errorf("re-encoded entry differs from the older bytes:\n got %s (%v)\nwant %s", body, err, withoutPredict(goldenReplicateAdvise))
	}
	if n := peers[0].srv.adviseCache.Stats().Entries; n != 1 {
		t.Errorf("%d entries cached from the golden replicate bodies, want the one ranking", n)
	}
}

// decodeSnapshot decodes a snapshot body into its cache items, as
// RestoreCache does for -cache-file and /v1/replicate.
func decodeSnapshot(body []byte) ([]CacheItem, error) {
	var snap cacheSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return nil, err
	}
	return snap.entries()
}

// FuzzDecodeEntries feeds arbitrary bytes to the entry codec's decoder — a
// snapshot body, what -cache-file and /v1/replicate restore. It may not
// panic, and every item it accepts must encode alone and decode back to
// the same key and value, with the encoding a fixed point. The seeds are
// older builds' bodies, "predict" arrays included.
func FuzzDecodeEntries(f *testing.F) {
	for _, seed := range []string{goldenSnapshot, goldenReplicateAdvise, goldenReplicatePredict} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		items, _ := decodeSnapshot(data) // a refused snapshot accepts no item
		for _, it := range items {
			body, err := encodeEntries(it)
			if err != nil {
				t.Fatalf("re-encoding %s: %v", it.Key, err)
			}
			back, err := decodeSnapshot(body)
			if err != nil || len(back) != 1 || back[0].Key != it.Key || !reflect.DeepEqual(back[0].Val, it.Val) {
				t.Fatalf("%s does not round-trip: got %#v, %v, want %#v", body, back, err, it)
			}
			if again, _ := encodeEntries(back[0]); !bytes.Equal(again, body) {
				t.Fatalf("encoding is not a fixed point:\n%s\n%s", body, again)
			}
		}
	})
}

// TestEntryCodecRejectsHostileBodies: what a confused or hostile peer can
// put in a snapshot body — a /v1/replicate write or a -cache-file — is
// refused where it always was, and nothing of it reaches the cache: the
// body must parse, be of this version and fit maxReplicateBytes, and a
// ranking naming a variant this build does not know is dropped.
func TestEntryCodecRejectsHostileBodies(t *testing.T) {
	peers := startElasticCluster(t, 2, 1, ClusterConfig{Heartbeat: -1})
	p, member := peers[0], peers[1].url
	for name, c := range map[string]struct {
		body   string
		status int
	}{
		"garbage":            {`{not json`, http.StatusBadRequest},
		"unknown variant":    {`{"version":1,"advise":[{"key":"k","recs":[{"kind":"warp_simd","threads":8,"predicted_us":1}]}]}`, http.StatusOK},
		"future version":     {`{"version":2,"advise":[{"key":"k","recs":[{"kind":"cpu","threads":8,"predicted_us":1}]}]}`, http.StatusBadRequest},
		"no version":         {`{"advise":[{"key":"k","recs":[{"kind":"cpu","threads":8,"predicted_us":1}]}]}`, http.StatusBadRequest},
		"non-finite literal": {`{"version":1,"advise":[{"key":"k","recs":[{"kind":"cpu","threads":8,"predicted_us":NaN}]}]}`, http.StatusBadRequest},
	} {
		if rec := doRaw(t, p.srv, http.MethodPost, "/v1/replicate", []byte(c.body), member); rec.Code != c.status {
			t.Errorf("%s: /v1/replicate answered %d, want %d", name, rec.Code, c.status)
		}
		if n, err := p.srv.RestoreCache(strings.NewReader(c.body)); n != 0 || (err == nil) != (c.status == http.StatusOK) {
			t.Errorf("%s: RestoreCache = %d, %v", name, n, err)
		}
		if n := p.srv.adviseCache.Stats().Entries; n != 0 {
			t.Fatalf("%s: %d entries cached", name, n)
		}
	}

	// A replicate body over the cap is refused whole, whatever it holds.
	big := []CacheItem{{Key: "big", Val: []advisor.Recommendation{{Kind: variants.GPU, Threads: 1, PredictedUS: 1,
		Source: strings.Repeat("x", maxReplicateBytes)}}}}
	oversize, err := encodeEntries(big...)
	if err != nil {
		t.Fatal(err)
	}
	if rec := doRaw(t, p.srv, http.MethodPost, "/v1/replicate", oversize, member); rec.Code != http.StatusBadRequest {
		t.Errorf("oversize replicate body: %d, want 400", rec.Code)
	}
	if n := p.srv.adviseCache.Stats().Entries; n != 0 {
		t.Errorf("%d entries cached from an oversize replicate body", n)
	}
}

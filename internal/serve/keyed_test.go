package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"paragraph/internal/advisor"
	"paragraph/internal/gnn"
)

// keyedKind is one of the two shapes of advise the scenarios below drive
// through serveKeyed: a grid, and one point of each variant kind — how a
// client asks for one variant's predicted runtime. Requests are
// distinguished by one binding, n, so every n is its own cache key.
type keyedKind struct {
	name  string
	space *SpaceSpec // nil: bindN's grid
}

func (k keyedKind) request(n float64) AdviseRequest {
	req := bindN(n)
	if k.space != nil {
		req.Space = k.space
	}
	return req
}

func (k keyedKind) key(t *testing.T, n float64) string { return adviseKeyFor(t, k.request(n)) }

var keyedKinds = []keyedKind{
	{name: "advise"},
	{name: "predict", space: &SpaceSpec{GPUTeams: []int{64}, GPUThreads: []int{128}}}, // one variant's runtime
}

// ownedN finds an n at or above from whose key's primary owner on s's ring
// is owner.
func (k keyedKind) ownedN(t *testing.T, s *Server, owner string, from float64) float64 {
	t.Helper()
	for n := from; n < from+512; n++ {
		if s.cluster.ring().Owner(k.key(t, n)) == owner {
			return n
		}
	}
	t.Fatalf("no %s key owned by %s in 512 candidates", k.name, owner)
	return 0
}

// keyedOutcome is what one request did, in the terms the two endpoints
// share: the answer's status and flags, and what moved at the server that
// was asked.
type keyedOutcome struct {
	status   int
	cached   bool
	servedBy string // "", "self" or "peer"

	hits, coalesced, admitted, shed, entries int // /v1/stats deltas
	forwards, fallbacks                      int // /v1/ring deltas
}

func keyedCounters(s *Server) keyedOutcome {
	st := s.snapshot()
	c := keyedOutcome{
		hits:      int(st.AdviseCacheHits),
		coalesced: int(st.Coalesced),
		admitted:  int(st.Admit.Admitted),
		entries:   st.AdviseCache.Entries,
	}
	for _, n := range st.Shed {
		c.shed += int(n)
	}
	if ring := st.Cluster; ring != nil {
		c.fallbacks = int(ring.LocalFallbacks)
		for _, m := range ring.Members {
			c.forwards += int(m.Forwards)
		}
	}
	return c
}

// observe runs fn — which sends the scenario's request(s) to s and returns
// the last answer — and reports that answer with s's counter deltas.
func observe(t *testing.T, s *Server, fn func() *httptest.ResponseRecorder) keyedOutcome {
	t.Helper()
	before := keyedCounters(s)
	rec := fn()
	out := keyedCounters(s)
	out.hits -= before.hits
	out.coalesced -= before.coalesced
	out.admitted -= before.admitted
	out.shed -= before.shed
	out.entries -= before.entries
	out.forwards -= before.forwards
	out.fallbacks -= before.fallbacks
	out.status = rec.Code
	if rec.Code == http.StatusOK {
		var resp struct {
			Cached   bool   `json:"cached"`
			ServedBy string `json:"served_by"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("decoding answer: %v\n%s", err, rec.Body.String())
		}
		out.cached = resp.Cached
		switch {
		case resp.ServedBy == "":
		case s.cluster != nil && resp.ServedBy == s.cluster.self:
			out.servedBy = "self"
		default:
			out.servedBy = "peer"
		}
	}
	return out
}

// nanModel answers NaN, as a registry entry whose checkpoint vanished does.
type nanModel struct{}

func (nanModel) PredictBatch(ss []*gnn.Sample) []float64 {
	out := make([]float64, len(ss))
	for i := range out {
		out[i] = math.NaN()
	}
	return out
}

// TestKeyedPath runs every way a request can leave serveKeyed over a grid
// and a one-point advise, and holds the two to the same outcome: status,
// cached and served_by, and the same counter deltas. (An old peer's
// prediction under a ranking's key is TestWrongTypedCacheEntryIsAMiss,
// over the same kinds.)
func TestKeyedPath(t *testing.T) {
	scenarios := []struct {
		name string
		run  func(t *testing.T, k keyedKind) keyedOutcome
		want keyedOutcome
	}{{
		name: "cold",
		run: func(t *testing.T, k keyedKind) keyedOutcome {
			s := newTestServer(t)
			return observe(t, s, func() *httptest.ResponseRecorder {
				return do(t, s, http.MethodPost, "/v1/advise", k.request(300), nil)
			})
		},
		want: keyedOutcome{status: 200, admitted: 1, entries: 1},
	}, {
		name: "hit",
		run: func(t *testing.T, k keyedKind) keyedOutcome {
			s := newTestServer(t)
			do(t, s, http.MethodPost, "/v1/advise", k.request(300), nil)
			return observe(t, s, func() *httptest.ResponseRecorder {
				return do(t, s, http.MethodPost, "/v1/advise", k.request(300), nil)
			})
		},
		want: keyedOutcome{status: 200, cached: true, hits: 1},
	}, {
		// A leader mid-evaluation and one identical request behind it: the
		// pair costs one evaluation and the waiter (the answer reported) is
		// counted coalesced, not cached.
		name: "coalesced",
		run: func(t *testing.T, k keyedKind) keyedOutcome {
			gm := newGateModel()
			s := newOverloadServer(t, gm, Options{})
			return observe(t, s, func() *httptest.ResponseRecorder {
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					if rec := do(t, s, http.MethodPost, "/v1/advise", k.request(300), nil); rec.Code != http.StatusOK {
						t.Errorf("leader: %d %s", rec.Code, rec.Body.String())
					}
				}()
				<-gm.started
				var waiter *httptest.ResponseRecorder
				wg.Add(1)
				go func() {
					defer wg.Done()
					waiter = do(t, s, http.MethodPost, "/v1/advise", k.request(300), nil)
				}()
				waitCond(t, 5*time.Second, "the waiter to join the flight", func() bool { return s.flights.waiting() == 1 })
				close(gm.release)
				wg.Wait()
				return waiter
			})
		},
		want: keyedOutcome{status: 200, coalesced: 1, admitted: 1, entries: 1},
	}, {
		// One evaluation of the kind has been timed, so a miss whose budget
		// is below that cost is shed before it holds anything.
		name: "shed on a deadline",
		run: func(t *testing.T, k keyedKind) keyedOutcome {
			s := newOverloadServer(t, slowModel{delay: 30 * time.Millisecond}, Options{})
			do(t, s, http.MethodPost, "/v1/advise", k.request(300), nil)
			return observe(t, s, func() *httptest.ResponseRecorder {
				rec := doH(t, s, http.MethodPost, "/v1/advise", k.request(301),
					map[string]string{"X-Paragraph-Deadline": "5ms"})
				checkRetryAfter(t, rec)
				return rec
			})
		},
		want: keyedOutcome{status: 503, shed: 1},
	}, {
		name: "forwarded",
		run: func(t *testing.T, k keyedKind) keyedOutcome {
			peers := startCluster(t, 2)
			a, b := peers[0], peers[1]
			n := k.ownedN(t, a.srv, b.http.URL, 300)
			out := observe(t, a.srv, func() *httptest.ResponseRecorder {
				return do(t, a.srv, http.MethodPost, "/v1/advise", k.request(n), nil)
			})
			if got := b.srv.Ring().ForwardedIn; got != 1 {
				t.Errorf("owner's forwarded_in = %d, want 1", got)
			}
			return out
		},
		want: keyedOutcome{status: 200, servedBy: "peer", forwards: 1},
	}, {
		name: "every owner down",
		run: func(t *testing.T, k keyedKind) keyedOutcome {
			peers := startCluster(t, 2)
			a, b := peers[0], peers[1]
			n := k.ownedN(t, a.srv, b.http.URL, 300)
			b.http.Close()
			return observe(t, a.srv, func() *httptest.ResponseRecorder {
				return do(t, a.srv, http.MethodPost, "/v1/advise", k.request(n), nil)
			})
		},
		want: keyedOutcome{status: 200, servedBy: "self", admitted: 1, entries: 1, fallbacks: 1},
	}, {
		// Asked twice: the failed answer was not cached, so the second
		// request evaluates again.
		name: "non-finite prediction",
		run: func(t *testing.T, k keyedKind) keyedOutcome {
			s := newOverloadServer(t, nanModel{}, Options{})
			return observe(t, s, func() *httptest.ResponseRecorder {
				do(t, s, http.MethodPost, "/v1/advise", k.request(300), nil)
				rec := do(t, s, http.MethodPost, "/v1/advise", k.request(300), nil)
				if !strings.Contains(rec.Body.String(), "non-finite") {
					t.Errorf("answer does not name the cause: %s", rec.Body.String())
				}
				return rec
			})
		},
		want: keyedOutcome{status: 422, admitted: 2},
	}}
	for _, sc := range scenarios {
		for _, k := range keyedKinds {
			sc, k := sc, k
			t.Run(sc.name+"/"+k.name, func(t *testing.T) {
				if got := sc.run(t, k); got != sc.want {
					t.Errorf("outcome %+v, want %+v", got, sc.want)
				}
			})
		}
	}
}

// TestWrongTypedCacheEntryIsAMiss: a single prediction filed under a
// ranking's key — what an older peer's /v1/replicate batch may carry in its
// "predict" array, keys being opaque hashes — never reaches the cache: the
// batch is taken (200, its rankings counted), the prediction skipped, and
// the request is a miss to evaluate, never a float to serve.
func TestWrongTypedCacheEntryIsAMiss(t *testing.T) {
	for _, k := range keyedKinds {
		k := k
		t.Run(k.name, func(t *testing.T) {
			peers := startClusterRF(t, 2, 2)
			a, b := peers[0], peers[1]
			n := k.ownedN(t, a.srv, a.http.URL, 50000)
			key := k.key(t, n)
			body := fmt.Sprintf(`{"version":1,"advise":null,"predict":[{"key":%q,"us":42}]}`, key)
			var ack struct {
				Accepted int `json:"accepted"`
			}
			rec := doRaw(t, a.srv, http.MethodPost, "/v1/replicate", []byte(body), b.http.URL)
			if err := json.Unmarshal(rec.Body.Bytes(), &ack); rec.Code != http.StatusOK || err != nil || ack.Accepted != 0 {
				t.Fatalf("old peer's write: %d %s, want 200 accepting no entries", rec.Code, rec.Body.String())
			}
			got := observe(t, a.srv, func() *httptest.ResponseRecorder {
				return do(t, a.srv, http.MethodPost, "/v1/advise", k.request(n), nil)
			})
			if want := (keyedOutcome{status: 200, servedBy: "self", admitted: 1, entries: 1}); got != want {
				t.Errorf("outcome %+v, want %+v", got, want)
			}
			if v, ok := a.srv.adviseCache.Peek(key); !ok || len(v.([]advisor.Recommendation)) == 0 {
				t.Errorf("entry after the miss: %v (present %v), want the evaluated ranking", v, ok)
			}
		})
	}
}

// TestWarmAdviseAllocations guards serve.hit.allocs_per_op where tier-1 can
// see it: a warm /v1/advise through Server.Handler allocates 57 times per
// request, measured by this same loop (request and recorder included), and
// the limit is that count plus 10 %. The hit path builds nothing for the
// evaluation it does not run, the handler neither parses the URL query nor
// hands its resolved request to anything that outlives it (which would move
// the default search space's three lists to the heap), and the answer is
// appended into a pooled buffer, so its rendering costs the same whatever
// the ranking's length: a hit rendering all 48 points of the default grid
// allocates no more than one rendering a single point of another 48-point
// key.
func TestWarmAdviseAllocations(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, set := range bi.Settings {
			if set.Key == "-race" && set.Value == "true" {
				t.Skip("race instrumentation allocates; counts are only meaningful unraced")
			}
		}
	}
	const limit = 62
	s := newTestServer(t)
	serve := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/advise", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("advise: %d %s", rec.Code, rec.Body.String())
		}
		return rec
	}
	hits := func(body string, want int) float64 {
		var resp AdviseResponse // the cold request fills the cache
		if err := json.Unmarshal(serve(body).Body.Bytes(), &resp); err != nil || len(resp.Recommendations) != want {
			t.Fatalf("advise %s: %d recommendations (%v), want %d", body, len(resp.Recommendations), err, want)
		}
		return testing.AllocsPerRun(200, func() { serve(body) })
	}
	full := hits(`{"kernel":"matmul","machine":"NVIDIA V100 (GPU)","bindings":{"n":256}}`, 48)
	if full > limit {
		t.Errorf("a warm advise allocates %v times, want at most %d", full, limit)
	}
	one := hits(`{"kernel":"matmul","machine":"NVIDIA V100 (GPU)","bindings":{"n":512},"top":1}`, 1)
	if full > one {
		t.Errorf("a warm advise rendering 48 points allocates %v times, one rendering 1 point %v: rendering grows with the ranking", full, one)
	}
	t.Logf("warm advise allocations: %v (48 points), %v (1 point)", full, one)
}

package serve

import (
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paragraph/internal/gnn"
	"paragraph/internal/hw"
)

func TestFlightGroupSequential(t *testing.T) {
	var g flightGroup
	calls := 0
	for i := 0; i < 3; i++ {
		v, shared, err := g.Do("k", func() (any, error) {
			calls++
			return calls, nil
		})
		if err != nil || shared {
			t.Fatalf("iteration %d: shared=%v err=%v", i, shared, err)
		}
		if v.(int) != i+1 {
			t.Fatalf("iteration %d: v=%v", i, v)
		}
	}
	if calls != 3 {
		t.Errorf("sequential calls collapsed: %d", calls)
	}
}

func TestFlightGroupCollapsesConcurrent(t *testing.T) {
	var g flightGroup
	const followers = 7
	started := make(chan struct{})
	release := make(chan struct{})
	var calls atomic.Int32

	results := make(chan int, followers+1)
	go func() {
		v, _, _ := g.Do("k", func() (any, error) {
			close(started)
			<-release
			calls.Add(1)
			return 42, nil
		})
		results <- v.(int)
	}()
	<-started
	for i := 0; i < followers; i++ {
		go func() {
			v, shared, _ := g.Do("k", func() (any, error) {
				calls.Add(1)
				return 42, nil
			})
			if !shared {
				t.Error("follower was not shared")
			}
			results <- v.(int)
		}()
	}
	waitCond(t, 5*time.Second, "the followers to join the flight", func() bool { return g.waiting() == followers })
	close(release)
	for i := 0; i < followers+1; i++ {
		if v := <-results; v != 42 {
			t.Errorf("result = %d", v)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("evaluations = %d, want 1", n)
	}
}

func TestFlightGroupPropagatesErrors(t *testing.T) {
	var g flightGroup
	boom := errors.New("boom")
	started := make(chan struct{})
	release := make(chan struct{})
	errc := make(chan error, 2)
	go func() {
		_, _, err := g.Do("k", func() (any, error) {
			close(started)
			<-release
			return nil, boom
		})
		errc <- err
	}()
	<-started
	go func() {
		_, _, err := g.Do("k", func() (any, error) { return nil, nil })
		errc <- err
	}()
	waitCond(t, 5*time.Second, "the follower to join the flight", func() bool { return g.waiting() == 1 })
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errc; !errors.Is(err, boom) {
			t.Errorf("err = %v, want boom", err)
		}
	}
	// A failed flight is forgotten: the next call runs afresh.
	if _, shared, err := g.Do("k", func() (any, error) { return 1, nil }); shared || err != nil {
		t.Errorf("post-failure call: shared=%v err=%v", shared, err)
	}
}

// gateModel blocks every prediction until released, so tests can pile up
// concurrent identical requests behind one evaluation deterministically.
type gateModel struct {
	startOnce sync.Once
	started   chan struct{}
	release   chan struct{}
	samples   atomic.Int64
}

func newGateModel() *gateModel {
	return &gateModel{started: make(chan struct{}), release: make(chan struct{})}
}

func (m *gateModel) PredictBatch(ss []*gnn.Sample) []float64 {
	m.startOnce.Do(func() { close(m.started) })
	<-m.release
	m.samples.Add(int64(len(ss)))
	return oracleModel{}.PredictBatch(ss)
}

// TestAdviseSingleflightCollapse is the end-to-end collapse check: N
// concurrent identical cache misses perform exactly one grid evaluation,
// and the followers are marked coalesced (or cached, if they arrived after
// the leader landed).
func TestAdviseSingleflightCollapse(t *testing.T) {
	gm := newGateModel()
	s, err := NewServer([]Backend{
		{Machine: hw.V100(), Model: gm, Prep: testPrep()},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	const followers = 7
	req := adviseReq("NVIDIA V100 (GPU)")
	responses := make([]AdviseResponse, followers+1)
	codes := make([]int, followers+1)
	var wg sync.WaitGroup
	launch := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := do(t, s, http.MethodPost, "/v1/advise", req, &responses[i])
			codes[i] = rec.Code
		}()
	}
	launch(0)
	<-gm.started // the leader is mid-evaluation
	for i := 1; i <= followers; i++ {
		launch(i)
	}
	// Every follower must block on the leader's flight: the cache is still
	// empty and the key is identical.
	waitCond(t, 5*time.Second, "the followers to join the flight", func() bool { return s.flights.waiting() == followers })
	close(gm.release)
	wg.Wait()

	var leaders, coalesced, cached int
	for i, resp := range responses {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d failed: %d", i, codes[i])
		}
		switch {
		case resp.Coalesced:
			coalesced++
		case resp.Cached:
			cached++
		default:
			leaders++
		}
		if len(resp.Recommendations) != len(responses[0].Recommendations) {
			t.Errorf("request %d ranking length differs", i)
		}
	}
	if leaders != 1 {
		t.Errorf("leaders = %d (coalesced %d, cached %d), want exactly 1", leaders, coalesced, cached)
	}
	if coalesced != followers {
		t.Errorf("coalesced = %d, want %d", coalesced, followers)
	}
	// The strong guarantee: one evaluation's worth of samples total (the
	// V100 matmul grid: 4 kinds × 2 teams × 1 thread count).
	if n := gm.samples.Load(); n != 8 {
		t.Errorf("model evaluated %d samples, want 8 (one grid)", n)
	}
	st := s.Stats()
	if st.Coalesced != uint64(followers) {
		t.Errorf("stats coalesced = %d, want %d", st.Coalesced, followers)
	}
}

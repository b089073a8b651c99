package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"paragraph/internal/advisor"
	"paragraph/internal/gnn"
	"paragraph/internal/registry"
	"paragraph/internal/serve"
)

// expect is what a workload demands of every answer beyond being a valid
// ranking.
type expect struct {
	cached   bool
	servedBy string // "" = not checked (outside the ring the field is absent)
}

// checkResponse is the per-response oracle: status 200, the cached flag the
// workload demands, one recommendation per grid point, every predicted
// runtime finite and positive, the ranking ascending, and the answering
// peer when the workload names one.
func checkResponse(req *request, status int, body []byte, want expect) (*serve.AdviseResponse, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", status, body)
	}
	var resp serve.AdviseResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("undecodable answer: %w", err)
	}
	if resp.Cached != want.cached {
		return nil, fmt.Errorf("%s: cached = %v, workload demands %v", req.Kernel.Name, resp.Cached, want.cached)
	}
	if want.servedBy != "" && resp.ServedBy != want.servedBy {
		return nil, fmt.Errorf("%s: served by %q, workload demands %q", req.Kernel.Name, resp.ServedBy, want.servedBy)
	}
	if len(resp.Recommendations) != req.Grid {
		return nil, fmt.Errorf("%s: %d recommendations for a grid of %d", req.Kernel.Name, len(resp.Recommendations), req.Grid)
	}
	prev := 0.0
	for i, r := range resp.Recommendations {
		if math.IsNaN(r.PredictedUS) || math.IsInf(r.PredictedUS, 0) || r.PredictedUS <= 0 {
			return nil, fmt.Errorf("%s: recommendation %d predicts %v µs", req.Kernel.Name, i, r.PredictedUS)
		}
		if r.PredictedUS < prev {
			return nil, fmt.Errorf("%s: ranking not ascending at %d", req.Kernel.Name, i)
		}
		prev = r.PredictedUS
	}
	return &resp, nil
}

// wireTokens are the byte sequences scanResponse looks for, built once per
// run from the workload's expectation.
type wireTokens struct {
	cached   []byte
	servedBy []byte // nil = not checked
}

func (e expect) tokens() wireTokens {
	t := wireTokens{cached: []byte(fmt.Sprintf(`"cached":%v`, e.cached))}
	if e.servedBy != "" {
		t.servedBy = []byte(fmt.Sprintf(`"served_by":%q`, e.servedBy))
	}
	return t
}

var predictedKey = []byte(`"predicted_us":`)

// scanResponse applies checkResponse's rules to the answer's bytes without
// decoding or allocating: it looks for the compact-JSON tokens the server's
// encoder writes and walks the predicted_us values in order. It is the
// per-response check of the measured loop; checkResponse decodes every
// referenceEvery-th answer in full, so a change of wire formatting fails
// loudly rather than passing unseen.
func scanResponse(req *request, status int, body []byte, want wireTokens) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	if !bytes.Contains(body, want.cached) {
		return fmt.Errorf("%s: answer lacks %s", req.Kernel.Name, want.cached)
	}
	if want.servedBy != nil && !bytes.Contains(body, want.servedBy) {
		return fmt.Errorf("%s: answer lacks %s", req.Kernel.Name, want.servedBy)
	}
	n, prev, rest := 0, 0.0, body
	for {
		i := bytes.Index(rest, predictedKey)
		if i < 0 {
			break
		}
		rest = rest[i+len(predictedKey):]
		v, ok := scanNumber(rest)
		if !ok || !(v > 0) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: recommendation %d predicts %.24s", req.Kernel.Name, n, rest)
		}
		if v < prev {
			return fmt.Errorf("%s: ranking not ascending at %d", req.Kernel.Name, n)
		}
		prev = v
		n++
	}
	if n != req.Grid {
		return fmt.Errorf("%s: %d recommendations for a grid of %d", req.Kernel.Name, n, req.Grid)
	}
	return nil
}

// scanNumber parses the JSON number at the start of b: the bytes up to the
// first one a number cannot contain, handed to strconv (which, for a short
// string that does not escape, allocates nothing).
func scanNumber(b []byte) (float64, bool) {
	n := 0
	for n < len(b) && (b[n] >= '0' && b[n] <= '9' || b[n] == '.' || b[n] == '-' || b[n] == '+' || b[n] == 'e' || b[n] == 'E') {
		n++
	}
	v, err := strconv.ParseFloat(string(b[:n]), 64)
	return v, err == nil
}

// oneSample adapts a registry entry — which only predicts in batches — to
// the advisor's one-sample Predictor, for serial, batcher-free evaluation.
type oneSample struct{ e *registry.Entry }

func (o oneSample) Predict(s *gnn.Sample) float64 {
	return o.e.PredictBatch([]*gnn.Sample{s})[0]
}

// serialAdvisor is the reference pipeline: the same checkpoint the children
// serve, evaluated one grid point at a time with no batcher, no caches and
// no HTTP.
func serialAdvisor(e *registry.Entry) *advisor.Advisor {
	a := advisor.New(oneSample{e}, e.Prep, e.Machine)
	a.SetLevel(e.Level)
	a.SetWorkers(1)
	return a
}

// maxReferences caps the distinct requests one run re-evaluates serially
// (about 30 ms of CPU each). Hit workloads revisit 136 keys 10⁵ times; the
// first sixteen sampled keys are re-evaluated and every sampled answer for
// them is compared.
const maxReferences = 16

// referenceOracle compares sampled answers with the serial reference.
type referenceOracle struct {
	ref  *advisor.Advisor
	memo map[*request][]advisor.Recommendation
}

func newReferenceOracle(e *registry.Entry) *referenceOracle {
	return &referenceOracle{ref: serialAdvisor(e), memo: map[*request][]advisor.Recommendation{}}
}

// check compares the stashed answers with the reference and returns how
// many were compared and the first disagreement, if any.
func (o *referenceOracle) check(stash []stashed) (compared, failed int, firstErr error) {
	for _, s := range stash {
		want, ok := o.memo[s.req]
		if !ok {
			if len(o.memo) >= maxReferences {
				continue
			}
			var err error
			want, err = o.ref.Advise(s.req.Kernel, s.req.Bindings, advisor.DefaultSearchSpace())
			if err != nil {
				return compared, failed + 1, fmt.Errorf("serial reference for %s: %w", s.req.Kernel.Name, err)
			}
			o.memo[s.req] = want
		}
		compared++
		if err := sameRanking(want, s.resp.Recommendations); err != nil {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("%s %v: %w", s.req.Kernel.Name, s.req.Bindings, err)
			}
		}
	}
	return compared, failed, firstErr
}

// sameRanking demands identical order and predicted runtimes within 1e-6
// relative: the determinism docs/ARCHITECTURE.md claims for the served
// pipeline against the serial one.
func sameRanking(want []advisor.Recommendation, got []serve.Recommendation) error {
	if len(want) != len(got) {
		return fmt.Errorf("reference ranks %d points, answer %d", len(want), len(got))
	}
	for i, w := range want {
		g := got[i]
		if w.Kind.String() != g.Variant || w.Teams != g.Teams || w.Threads != g.Threads {
			return fmt.Errorf("rank %d: reference %s g%d t%d, answer %s g%d t%d",
				i, w.Kind, w.Teams, w.Threads, g.Variant, g.Teams, g.Threads)
		}
		if math.Abs(w.PredictedUS-g.PredictedUS) > 1e-6*math.Abs(w.PredictedUS) {
			return fmt.Errorf("rank %d: reference %v µs, answer %v µs", i, w.PredictedUS, g.PredictedUS)
		}
	}
	return nil
}

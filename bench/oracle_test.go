package main

import (
	"encoding/json"
	"net/http"
	"testing"

	"paragraph/internal/advisor"
	"paragraph/internal/serve"
	"paragraph/internal/variants"
)

// answer builds a wire answer for request r with the given predictions.
func answer(t *testing.T, cached bool, servedBy string, us []float64) []byte {
	t.Helper()
	resp := serve.AdviseResponse{Machine: servedMachine, Model: "default", Kernel: "matmul", Cached: cached, ServedBy: servedBy}
	for i, v := range us {
		resp.Recommendations = append(resp.Recommendations, serve.Recommendation{Variant: "gpu", Teams: 16, Threads: 64 + i, PredictedUS: v})
	}
	body, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// Both per-response checks — the decoding one and the byte scan — must
// accept and reject the same answers.
func TestResponseChecksAgree(t *testing.T) {
	req := newGenerator(1).at(0)
	req.Grid = 3
	good := []float64{12.5, 12.5, 1.25e6}
	cases := []struct {
		name   string
		status int
		body   []byte
		want   expect
		ok     bool
	}{
		{"good", 200, answer(t, true, "", good), expect{cached: true}, true},
		{"good on the ring", 200, answer(t, true, "http://b", good), expect{cached: true, servedBy: "http://b"}, true},
		{"not 200", http.StatusServiceUnavailable, []byte(`{"error":"overloaded"}`), expect{cached: true}, false},
		{"cached when it must not be", 200, answer(t, true, "", good), expect{cached: false}, false},
		{"not cached when it must be", 200, answer(t, false, "", good), expect{cached: true}, false},
		{"wrong peer", 200, answer(t, true, "http://a", good), expect{cached: true, servedBy: "http://b"}, false},
		{"short grid", 200, answer(t, true, "", good[:2]), expect{cached: true}, false},
		{"descending", 200, answer(t, true, "", []float64{12.5, 11, 1.25e6}), expect{cached: true}, false},
		{"non-positive", 200, answer(t, true, "", []float64{0, 11, 12}), expect{cached: true}, false},
	}
	for _, c := range cases {
		_, decodeErr := checkResponse(&req, c.status, c.body, c.want)
		scanErr := scanResponse(&req, c.status, c.body, c.want.tokens())
		if (decodeErr == nil) != c.ok {
			t.Errorf("%s: checkResponse error = %v, want ok=%v", c.name, decodeErr, c.ok)
		}
		if (scanErr == nil) != c.ok {
			t.Errorf("%s: scanResponse error = %v, want ok=%v", c.name, scanErr, c.ok)
		}
	}
}

func TestScanNumber(t *testing.T) {
	for _, c := range []struct {
		in   string
		want float64
		ok   bool
	}{
		{"216.09999,", 216.09999, true}, {"1.2345e+06}", 1.2345e6, true}, {"7e-3,", 7e-3, true},
		{"42}", 42, true}, {"-3.5,", -3.5, true}, {"null", 0, false}, {"e5", 0, false}, {"1e,", 0, false},
	} {
		got, ok := scanNumber([]byte(c.in))
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("scanNumber(%q) = %v, %v; want %v, %v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestSameRanking(t *testing.T) {
	want := []advisor.Recommendation{
		{Kind: variants.GPU, Teams: 16, Threads: 64, PredictedUS: 100},
		{Kind: variants.GPUMem, Teams: 64, Threads: 128, PredictedUS: 200},
	}
	got := []serve.Recommendation{
		{Variant: "gpu", Teams: 16, Threads: 64, PredictedUS: 100 * (1 + 5e-7)},
		{Variant: "gpu_mem", Teams: 64, Threads: 128, PredictedUS: 200},
	}
	if err := sameRanking(want, got); err != nil {
		t.Errorf("ranking within 1e-6 rejected: %v", err)
	}
	got[0].PredictedUS = 100 * (1 + 5e-6)
	if sameRanking(want, got) == nil {
		t.Error("prediction 5e-6 off accepted")
	}
	got[0].PredictedUS = 100
	got[0], got[1] = got[1], got[0]
	if sameRanking(want, got) == nil {
		t.Error("swapped order accepted")
	}
	if sameRanking(want, got[:1]) == nil {
		t.Error("short ranking accepted")
	}
}

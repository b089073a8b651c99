package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

// stubServe fakes the serve overload surface: deadline-less requests past
// a fixed admitted budget shed with the documented 503 contract,
// deadline-carrying (interactive) requests always answer 200.
func stubServe(t *testing.T, goodShed bool) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var admitted atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/advise", func(w http.ResponseWriter, r *http.Request) {
		interactive := r.Header.Get("X-Paragraph-Deadline") != ""
		if !interactive && admitted.Add(1) > 3 {
			if goodShed {
				w.Header().Set("Retry-After", "1")
			} else {
				w.Header().Set("Retry-After", "soonish")
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]string{"error": "overloaded: queue_full (retry after 1s)"})
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"kernel": "matmul", "recommendations": []any{}})
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"shed": map[string]int{"queue_full": 1}})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, &admitted
}

// TestRunAgainstSheddingServer: a compliant server passes the gates and
// the report carries both classes, sheds, and the server's own stats.
func TestRunAgainstSheddingServer(t *testing.T) {
	srv, _ := stubServe(t, true)
	out := filepath.Join(t.TempDir(), "report.json")
	var buf bytes.Buffer
	code, err := run([]string{
		"-target", srv.URL, "-duration", "300ms",
		"-bulk", "4", "-interactive", "1", "-interactive-pace", "5ms",
		"-require-shed", "-max-interactive-p99", "5s",
		"-out", out,
	}, &buf, io.Discard)
	if err != nil || code != 0 {
		t.Fatalf("run = %d, %v\n%s", code, err, buf.String())
	}

	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatalf("report not JSON: %v\n%s", err, blob)
	}
	if rep.Bulk.Shed == 0 || rep.Bulk.OK == 0 {
		t.Errorf("bulk class = %+v, want both admitted and shed requests", rep.Bulk)
	}
	if rep.Interactive.OK == 0 || rep.Interactive.Shed != 0 {
		t.Errorf("interactive class = %+v, want only 200s", rep.Interactive)
	}
	if rep.Interactive.P99MS <= 0 || rep.Interactive.P99MS < rep.Interactive.P50MS {
		t.Errorf("quantiles p50=%v p99=%v", rep.Interactive.P50MS, rep.Interactive.P99MS)
	}
	if rep.Bulk.GoodputRPS <= 0 || rep.Interactive.GoodputRPS <= 0 {
		t.Errorf("goodput bulk=%v interactive=%v, want > 0 for classes with OKs",
			rep.Bulk.GoodputRPS, rep.Interactive.GoodputRPS)
	}
	if len(rep.Violations) != 0 {
		t.Errorf("violations on a compliant server: %v", rep.Violations)
	}
	if !strings.Contains(string(rep.ServerStats), "queue_full") {
		t.Errorf("report did not capture /v1/stats: %s", rep.ServerStats)
	}
}

// TestRunFlagsBrokenRetryAfter: a server shedding without a valid
// Retry-After is a contract violation and a non-zero exit.
func TestRunFlagsBrokenRetryAfter(t *testing.T) {
	srv, _ := stubServe(t, false)
	var buf bytes.Buffer
	code, err := run([]string{
		"-target", srv.URL, "-duration", "200ms", "-bulk", "4", "-interactive", "0",
	}, &buf, io.Discard)
	if code != 1 || err == nil {
		t.Fatalf("run against a non-compliant server = %d, %v", code, err)
	}
	var rep report
	if jerr := json.Unmarshal(buf.Bytes(), &rep); jerr != nil {
		t.Fatalf("stdout not a JSON report: %v\n%s", jerr, buf.String())
	}
	found := false
	for _, v := range rep.Violations {
		if strings.Contains(v, "Retry-After") {
			found = true
		}
	}
	if !found {
		t.Errorf("violations = %v, want a Retry-After complaint", rep.Violations)
	}
}

// TestRunRequireShedFails: -require-shed against a server that never
// sheds (all requests under budget) exits 1 with the reason recorded.
func TestRunRequireShedFails(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/advise", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"recommendations": []any{}})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	var buf bytes.Buffer
	code, err := run([]string{
		"-target", srv.URL, "-duration", "100ms", "-bulk", "1", "-interactive", "0",
		"-require-shed",
	}, &buf, io.Discard)
	if code != 1 || err == nil {
		t.Fatalf("run = %d, %v; want required-shed failure", code, err)
	}
	if !strings.Contains(buf.String(), "required at least one bulk shed") {
		t.Errorf("report missing the require-shed violation:\n%s", buf.String())
	}
}

// TestBulkHonorsRetryAfter: a polite bulk worker sleeps out a shed's
// Retry-After (capped at -backoff-cap) instead of hammering straight back
// — against a server that always sheds, one worker completes only a
// handful of requests per window, not hundreds.
func TestBulkHonorsRetryAfter(t *testing.T) {
	var requests atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/advise", func(w http.ResponseWriter, r *http.Request) {
		// The warm-up (interactive-shaped: no deadline header either, so
		// key it off the body's fixed binding) must succeed once.
		if requests.Add(1) == 1 {
			json.NewEncoder(w).Encode(map[string]any{"recommendations": []any{}})
			return
		}
		w.Header().Set("Retry-After", "1")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]string{"error": "overloaded"})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	var buf bytes.Buffer
	code, _ := run([]string{
		"-target", srv.URL, "-duration", "300ms", "-bulk", "1", "-interactive", "0",
		"-backoff-cap", "100ms",
	}, &buf, io.Discard)
	if code != 0 {
		t.Fatalf("run = %d\n%s", code, buf.String())
	}
	var rep report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	// 300ms window / 100ms capped backoff ≈ 3-4 requests; without backoff a
	// local stub absorbs hundreds. Allow generous slack for slow CI.
	if rep.Bulk.Requests > 20 {
		t.Errorf("bulk sent %d requests into a shedding server, backoff not honored", rep.Bulk.Requests)
	}
	if rep.Bulk.Shed == 0 {
		t.Error("stub never shed")
	}
	if rep.Bulk.GoodputRPS != 0 {
		t.Errorf("goodput = %v for a class with no OKs, want 0", rep.Bulk.GoodputRPS)
	}
}

// TestRunUsageErrors: missing target, zero workers and a bad flag are usage
// errors (exit 2) that write nothing to stdout; the flag set's usage goes to
// stderr.
func TestRunUsageErrors(t *testing.T) {
	for _, c := range []struct {
		args  []string
		usage bool // usage on stderr
	}{
		{args: nil, usage: true},
		{args: []string{"-target", "http://x", "-bulk", "0", "-interactive", "0"}},
		{args: []string{"-target", "http://x", "-typo"}, usage: true},
	} {
		var stdout, stderr bytes.Buffer
		code, err := run(c.args, &stdout, &stderr)
		if code != 2 {
			t.Errorf("run(%v) = %d, %v, want exit 2", c.args, code, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%v) wrote to stdout:\n%s", c.args, stdout.String())
		}
		if c.usage && !strings.Contains(stderr.String(), "Usage of overload") {
			t.Errorf("run(%v) printed no usage on stderr:\n%s", c.args, stderr.String())
		}
	}
}

// TestQuantile: nearest-rank behaviour on small slices.
func TestQuantile(t *testing.T) {
	if q := quantile(nil, 0.99); q != 0 {
		t.Errorf("quantile(nil) = %v", q)
	}
	data := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}} {
		if got := quantile(data, tc.q); got != tc.want {
			t.Errorf("quantile(1..10, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

package shard

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"paragraph/internal/admit"
	"paragraph/internal/obs"
)

// TestForwardRoundTrip: a forwarded request reaches the peer with the
// loop-guard header, trace header and JSON content type, and the peer's
// status and body come back verbatim.
func TestForwardRoundTrip(t *testing.T) {
	var gotHeader, gotCT, gotBody, gotTrace string
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotHeader = r.Header.Get(ForwardedByHeader)
		gotCT = r.Header.Get("Content-Type")
		gotTrace = r.Header.Get(obs.TraceHeader)
		b, _ := io.ReadAll(r.Body)
		gotBody = string(b)
		w.WriteHeader(http.StatusTeapot)
		w.Write([]byte(`{"ok":true}`))
	}))
	defer peer.Close()

	f := NewForwarder("http://self:1")
	status, body, err := f.Forward(context.Background(), peer.URL, "/v1/advise", []byte(`{"kernel":"matmul"}`), Meta{TraceID: "trace-42"})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusTeapot || string(body) != `{"ok":true}` {
		t.Errorf("forward returned %d %q", status, body)
	}
	if gotHeader != "http://self:1" {
		t.Errorf("%s = %q, want the forwarder's self", ForwardedByHeader, gotHeader)
	}
	if gotCT != "application/json" {
		t.Errorf("forwarded Content-Type = %q", gotCT)
	}
	if gotTrace != "trace-42" {
		t.Errorf("%s = %q, want the caller's trace id", obs.TraceHeader, gotTrace)
	}
	if gotBody != `{"kernel":"matmul"}` {
		t.Errorf("forwarded body = %q", gotBody)
	}

	st := f.Stats()
	if len(st) != 1 || st[0].Forwards != 1 || st[0].Errors != 0 {
		t.Errorf("stats after one forward = %+v", st)
	}
}

// TestForwardUnreachablePeer: a dead peer yields an error (the caller's cue
// to fall back to local serving) and an error counter, not a hang.
func TestForwardUnreachablePeer(t *testing.T) {
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	peer.Close() // nothing listens anymore

	f := NewForwarder("http://self:1")
	if _, _, err := f.Forward(context.Background(), peer.URL, "/v1/advise", nil, Meta{}); err == nil {
		t.Fatal("forward to a closed peer succeeded")
	}
	st := f.Stats()
	if len(st) != 1 || st[0].Errors != 1 || st[0].Forwards != 0 {
		t.Errorf("stats after failed forward = %+v", st)
	}
}

// TestForwardPropagatesDeadline: a forward carrying a remaining-budget
// Meta sets the deadline header so the receiving peer applies the same
// admission policy the origin would; a zero budget propagates nothing.
func TestForwardPropagatesDeadline(t *testing.T) {
	var gotDeadline string
	var sawHeader bool
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotDeadline = r.Header.Get(admit.DeadlineHeader)
		_, sawHeader = r.Header[admit.DeadlineHeader]
	}))
	defer peer.Close()

	f := NewForwarder("http://self:1")
	if _, _, err := f.Forward(context.Background(), peer.URL, "/v1/advise", nil,
		Meta{Deadline: 1500 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	d, err := admit.ParseDeadline(gotDeadline)
	if err != nil {
		t.Fatalf("peer received unparseable deadline %q: %v", gotDeadline, err)
	}
	if d != 1500*time.Millisecond {
		t.Errorf("propagated deadline = %v, want 1.5s", d)
	}

	if _, _, err := f.Forward(context.Background(), peer.URL, "/v1/advise", nil, Meta{}); err != nil {
		t.Fatal(err)
	}
	if sawHeader {
		t.Error("a budget-less forward must not carry the deadline header")
	}
}

// TestForwardHonorsContext: a cancelled context aborts the hop with an
// error (counted), instead of waiting out the client timeout.
func TestForwardHonorsContext(t *testing.T) {
	release := make(chan struct{})
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	// Unwedge the handler before Close (defers run LIFO), or Close waits
	// on the in-flight request forever.
	defer peer.Close()
	defer close(release)

	f := NewForwarder("http://self:1")
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, _, err := f.Forward(ctx, peer.URL, "/v1/advise", nil, Meta{}); err == nil {
		t.Fatal("forward on an expired context succeeded")
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("cancelled forward took %v, context not honored", took)
	}
	if st := f.Stats(); st[0].Errors != 1 {
		t.Errorf("stats = %+v, want the aborted hop counted as an error", st)
	}
}

// TestForwardErrorStatusIsNotAnError: HTTP-level errors from the owner are
// authoritative answers, relayed rather than falling back.
func TestForwardErrorStatusIsNotAnError(t *testing.T) {
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"unknown kernel"}`, http.StatusBadRequest)
	}))
	defer peer.Close()

	f := NewForwarder("http://self:1")
	status, _, err := f.Forward(context.Background(), peer.URL, "/v1/advise", []byte(`{}`), Meta{})
	if err != nil {
		t.Fatalf("HTTP 400 from the owner reported as transport error: %v", err)
	}
	if status != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", status)
	}
	if st := f.Stats(); st[0].Forwards != 1 || st[0].Errors != 0 {
		t.Errorf("stats = %+v; an answered forward must not count as an error", st)
	}
}

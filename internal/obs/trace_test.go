package obs

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNewTraceID(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if len(a) != 32 || len(b) != 32 {
		t.Fatalf("trace id lengths = %d, %d, want 32", len(a), len(b))
	}
	if a == b {
		t.Fatal("two trace ids collided")
	}
	if SanitizeTraceID(a) != a {
		t.Fatalf("generated id %q failed its own sanitizer", a)
	}
}

func TestSanitizeTraceID(t *testing.T) {
	cases := []struct{ in, want string }{
		{"abc-DEF_123", "abc-DEF_123"},
		{"", ""},
		{strings.Repeat("a", 64), strings.Repeat("a", 64)},
		{strings.Repeat("a", 65), ""},
		{"has space", ""},
		{"quote\"", ""},
		{"newline\n", ""},
		{"unicode-é", ""},
	}
	for _, c := range cases {
		if got := SanitizeTraceID(c.in); got != c.want {
			t.Errorf("SanitizeTraceID(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestNilTraceIsInert(t *testing.T) {
	var tr *Trace
	if tr.ID() != "" {
		t.Fatal("nil trace has an id")
	}
	sp := tr.StartSpan("x") // nil span
	sp.Annotate("detail")
	sp.End()
	tr.AddSpan("y", "", time.Now(), time.Millisecond)
	NewTracer(TracerOptions{}).Finish(tr, 200) // must not panic
	if got := TraceFrom(context.Background()); got != nil {
		t.Fatalf("TraceFrom(empty ctx) = %v, want nil", got)
	}
	if ctx := WithTrace(context.Background(), nil); TraceFrom(ctx) != nil {
		t.Fatal("WithTrace(nil) stored a trace")
	}
}

func TestTraceSpansAndContext(t *testing.T) {
	tracer := NewTracer(TracerOptions{Logger: slog.New(slog.NewTextHandler(new(bytes.Buffer), nil))})
	tr := tracer.Start("", "advise")
	if tr.ID() == "" {
		t.Fatal("Start minted no id")
	}
	ctx := WithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Fatal("context round-trip lost the trace")
	}

	sp := tr.StartSpan("decode")
	sp.End()
	fw := tr.StartSpan("forward")
	fw.Annotate("peer-1")
	fw.End()
	tr.AddSpan("singleflight_wait", "", time.Now().Add(-time.Millisecond), time.Millisecond)

	tracer.Finish(tr, 200)
	ft, ok := tracer.Find(tr.ID())
	if !ok {
		t.Fatal("finished trace not retained")
	}
	if ft.Endpoint != "advise" || ft.Status != 200 {
		t.Fatalf("trace meta = %q/%d, want advise/200", ft.Endpoint, ft.Status)
	}
	names := map[string]SpanRecord{}
	for _, s := range ft.Spans {
		names[s.Name] = s
	}
	for _, want := range []string{"decode", "forward", "singleflight_wait"} {
		if _, ok := names[want]; !ok {
			t.Errorf("span %q missing from %v", want, ft.Spans)
		}
	}
	if names["forward"].Detail != "peer-1" {
		t.Errorf("forward detail = %q, want peer-1", names["forward"].Detail)
	}
	if names["singleflight_wait"].DurUS < 900 {
		t.Errorf("retroactive span duration = %dus, want ~1000", names["singleflight_wait"].DurUS)
	}
}

func TestSpanLimit(t *testing.T) {
	tracer := NewTracer(TracerOptions{})
	tracer.maxSpans = 2
	tr := tracer.Start("", "x")
	for i := 0; i < 5; i++ {
		tr.StartSpan("s").End()
	}
	tracer.Finish(tr, 200)
	ft, _ := tracer.Find(tr.ID())
	if len(ft.Spans) != 2 || ft.SpansDropped != 3 {
		t.Fatalf("spans = %d dropped = %d, want 2/3", len(ft.Spans), ft.SpansDropped)
	}
}

func TestRingBoundAndOrder(t *testing.T) {
	tracer := NewTracer(TracerOptions{})
	tracer.ring = make([]FinishedTrace, 3)
	var ids []string
	for i := 0; i < 5; i++ {
		tr := tracer.Start("", "x")
		ids = append(ids, tr.ID())
		tracer.Finish(tr, 200)
	}
	recent := tracer.Recent(0)
	if len(recent) != 3 {
		t.Fatalf("ring retained %d traces, want 3", len(recent))
	}
	// Newest first: ids[4], ids[3], ids[2].
	for i, want := range []string{ids[4], ids[3], ids[2]} {
		if recent[i].ID != want {
			t.Fatalf("recent[%d] = %s, want %s", i, recent[i].ID, want)
		}
	}
	if got := tracer.Recent(1); len(got) != 1 || got[0].ID != ids[4] {
		t.Fatalf("Recent(1) = %v, want just newest", got)
	}
	for i, id := range ids {
		if _, ok := tracer.Find(id); ok != (i >= 2) {
			t.Fatalf("trace %d of 5 findable = %v in a ring of 3", i, ok)
		}
	}
}

func TestSlowLogging(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	tracer := NewTracer(TracerOptions{Slow: time.Nanosecond, Logger: logger})
	tr := tracer.Start("slow-id-1", "advise")
	time.Sleep(time.Millisecond)
	tracer.Finish(tr, 200)
	out := buf.String()
	if !strings.Contains(out, "slow request") || !strings.Contains(out, "trace_id=slow-id-1") {
		t.Fatalf("slow log missing fields:\n%s", out)
	}
	if tracer.SlowCount() != 1 {
		t.Fatalf("SlowCount = %d, want 1", tracer.SlowCount())
	}
	ft, _ := tracer.Find("slow-id-1")
	if !ft.Slow {
		t.Fatal("retained trace not marked slow")
	}

	// Below threshold: no log.
	buf.Reset()
	fast := NewTracer(TracerOptions{Slow: time.Hour, Logger: logger})
	fast.Finish(fast.Start("", "advise"), 200)
	if buf.Len() != 0 {
		t.Fatalf("fast trace logged: %s", buf.String())
	}
}

func TestConcurrentTraceUse(t *testing.T) {
	tracer := NewTracer(TracerOptions{})
	tracer.ring = make([]FinishedTrace, 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tr := tracer.Start("", "x")
				tr.StartSpan("a").End()
				tracer.Finish(tr, 200)
				tracer.Recent(4)
			}
		}()
	}
	wg.Wait()
	recent := tracer.Recent(0)
	if len(recent) != 16 {
		t.Fatalf("ring retained %d of 400 traces, want 16", len(recent))
	}
	seen := map[string]bool{}
	for _, ft := range recent {
		if seen[ft.ID] || len(ft.Spans) != 1 || ft.Status != 200 {
			t.Fatalf("retained trace %+v: duplicate or torn", ft)
		}
		seen[ft.ID] = true
	}
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "request", Start: at(0), End: at(100)},
		// Two workers side by side: the parent is covered from 10 to 70 once,
		// not 40 + 40.
		{ID: 2, Parent: 1, Name: "point", Start: at(10), End: at(50)},
		{ID: 3, Parent: 1, Name: "point", Start: at(30), End: at(70)},
		{ID: 4, Parent: 2, Name: "predict", Start: at(20), End: at(30)},
		// A child that outlives its parent is clipped to it.
		{ID: 5, Parent: 1, Name: "late", Start: at(90), End: at(120)},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{
		1: 30 * time.Millisecond, // 100 − (10..70) − (90..100)
		2: 30 * time.Millisecond, // 40 − predict's 10
		3: 40 * time.Millisecond,
		4: 10 * time.Millisecond,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	rows := layerTable(spans)
	if rows[1].Name != "point" || rows[1].Count != 2 || rows[1].TotalUS != 80000 || rows[1].SelfUS != 70000 {
		t.Errorf("layer row for point = %+v", rows[1])
	}
}

func TestWriteTraceRoundTrips(t *testing.T) {
	tr := &tracer{}
	root := tr.newID()
	now := time.Now()
	tr.add(span{Parent: root, Request: "r0", Name: "child", Start: now.Add(time.Millisecond), End: now.Add(2 * time.Millisecond)})
	tr.add(span{ID: root, Request: "r0", Name: "request", Start: now, End: now.Add(3 * time.Millisecond)})
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeTrace(path, "advise_cold", 4, tr.snapshot(), layerTable(tr.snapshot())); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatal(err)
	}
	if tf.Workload != "advise_cold" || tf.Seed != 4 || len(tf.Spans) != 2 || len(tf.Layers) != 2 {
		t.Fatalf("trace file = %+v", tf)
	}
	child := tf.Spans[0]
	if child.Parent != root || child.Request != "r0" || child.StartUS != 1000 || child.EndUS != 2000 {
		t.Errorf("child span = %+v", child)
	}
}

func TestOverheadShare(t *testing.T) {
	// Even rounds untraced (300 in all), odd rounds traced (291 in all).
	if got := overheadShare([]float64{100, 97, 101, 96, 99, 98}); got < 0.0299 || got > 0.0301 {
		t.Errorf("overheadShare = %v, want 0.03", got)
	}
}

func TestUncoveredShare(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "request", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "json.decode", Start: at(0), End: at(5)},
		{ID: 3, Parent: 1, Name: "advisor.advise", Start: at(10), End: at(90)},
		{ID: 4, Parent: 3, Name: "cparse.parse", Start: at(10), End: at(50)},
		{ID: 5, Parent: 3, Name: "cparse.parse", Start: at(40), End: at(80)},
	}
	// The root is bare for 5..10 and 90..100, the advisor span for 80..90.
	if got := uncoveredShare(spans); got < 0.2499 || got > 0.2501 {
		t.Errorf("uncoveredShare = %v, want 0.25", got)
	}
	if got := uncoveredShare(nil); got != 0 {
		t.Errorf("uncoveredShare of nothing = %v", got)
	}
}

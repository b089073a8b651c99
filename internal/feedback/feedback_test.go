package feedback

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func testRecord(i int) Record {
	return Record{
		Key:         fmt.Sprintf("%064x", i),
		Platform:    "NVIDIA V100 (GPU)",
		Model:       "default",
		Kernel:      "matmul",
		Variant:     "gpu",
		Teams:       64,
		Threads:     128,
		Bindings:    map[string]float64{"n": float64(i)},
		Source:      "#pragma omp target teams distribute parallel for\nfor(...){}",
		PredictedUS: float64(100 + i),
		MeasuredUS:  float64(110 + i),
		UnixNano:    int64(i),
	}
}

func TestAppendRead(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const n = 25
	for i := 0; i < n; i++ {
		if err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	recs, skipped, err := l.Read("NVIDIA V100 (GPU)")
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || len(recs) != n {
		t.Fatalf("Read = %d recs, %d skipped; want %d, 0", len(recs), skipped, n)
	}
	for i, r := range recs {
		if r.V != FormatVersion {
			t.Fatalf("record %d missing format version: %+v", i, r)
		}
		if r.Key != testRecord(i).Key || r.MeasuredUS != testRecord(i).MeasuredUS {
			t.Fatalf("record %d out of order or corrupted: %+v", i, r)
		}
	}
	if c, err := l.Count("NVIDIA V100 (GPU)"); err != nil || c != n {
		t.Fatalf("Count = %d, %v; want %d", c, err, n)
	}
	// Other platforms see an empty log, and a missing file is not an error.
	if recs, _, err := l.Read("IBM POWER9 (CPU)"); err != nil || len(recs) != 0 {
		t.Fatalf("missing platform Read = %d recs, %v", len(recs), err)
	}
}

func TestValidate(t *testing.T) {
	good := testRecord(1)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	bad := []func(*Record){
		func(r *Record) { r.Key = "" },
		func(r *Record) { r.Platform = "" },
		func(r *Record) { r.Source = "" },
		func(r *Record) { r.Threads = 0 },
		func(r *Record) { r.MeasuredUS = 0 },
		func(r *Record) { r.MeasuredUS = -5 },
	}
	for i, mut := range bad {
		r := testRecord(1)
		mut(&r)
		if err := r.Validate(); err == nil {
			t.Errorf("case %d: invalid record accepted", i)
		}
	}
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := testRecord(1)
	r.MeasuredUS = -1
	if err := l.Append(r); err == nil {
		t.Error("Append accepted invalid record")
	}
}

// TestTornTail simulates a crash mid-append: a truncated final line must be
// skipped on read, and subsequent appends must keep working.
func TestTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, "nvidia-v100-gpu.jsonl")
	// Tear the last line: drop its trailing half (including the newline).
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-40], 0o644); err != nil {
		t.Fatal(err)
	}
	recs, skipped, err := l.Read("NVIDIA V100 (GPU)")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || skipped != 1 {
		t.Fatalf("after tear: %d recs, %d skipped; want 2, 1", len(recs), skipped)
	}
	// The log heals: Append terminates the torn line so the new record gets
	// its own line. Only the torn record itself stays lost.
	if err := l.Append(testRecord(99)); err != nil {
		t.Fatal(err)
	}
	recs, skipped, err = l.Read("NVIDIA V100 (GPU)")
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 1 || len(recs) != 3 || recs[2].Key != testRecord(99).Key {
		t.Fatalf("after heal-append: %d recs, %d skipped, last %q", len(recs), skipped, recs[len(recs)-1].Key)
	}
}

func TestConcurrentAppend(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := l.Append(testRecord(w*per + i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	recs, skipped, err := l.Read("NVIDIA V100 (GPU)")
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || len(recs) != workers*per {
		t.Fatalf("concurrent appends: %d recs, %d skipped; want %d, 0", len(recs), skipped, workers*per)
	}
}

func TestSlugAndPlatforms(t *testing.T) {
	// The log's file names are hw.Slug's (pinned in internal/hw); what is
	// held here is that Append, Read and Platforms agree on them.
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	r := testRecord(1)
	r.Platform = "IBM POWER9 (CPU)"
	if err := l.Append(r); err != nil {
		t.Fatal(err)
	}
	plats, err := l.Platforms()
	if err != nil {
		t.Fatal(err)
	}
	if len(plats) != 2 || plats[0] != "ibm-power9-cpu" || plats[1] != "nvidia-v100-gpu" {
		t.Fatalf("Platforms = %v", plats)
	}
	// Reading by slug or by full name hits the same file.
	if recs, _, err := l.Read("ibm-power9-cpu"); err != nil || len(recs) != 1 {
		t.Fatalf("Read by slug = %d recs, %v", len(recs), err)
	}
}

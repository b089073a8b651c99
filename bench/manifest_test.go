package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json is written by a hand-run tool (-aa); this holds
// it to what the code reports and to the driver's format limits.
func TestManifestMatchesTheCode(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(manifestPath(root))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var onDisk manifestFile
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	var buf bytes.Buffer
	if err := writeManifest(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var fromCode manifestFile
	if err := json.Unmarshal(buf.Bytes(), &fromCode); err != nil {
		t.Fatal(err)
	}
	for i := range onDisk.EndToEnd {
		if b := onDisk.EndToEnd[i].Bound; b <= 0 || b > boundCap {
			t.Errorf("%s: bound %v outside (0, %v]", onDisk.EndToEnd[i].Name, b, boundCap)
		}
		if i < len(fromCode.EndToEnd) {
			fromCode.EndToEnd[i].Bound = onDisk.EndToEnd[i].Bound // bounds are calibrated, not coded
		}
	}
	want, _ := json.Marshal(fromCode)
	got, _ := json.Marshal(onDisk)
	if !bytes.Equal(want, got) {
		t.Errorf("BENCHMARK.json differs from what the code defines:\n on disk %s\n in code %s", got, want)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
	}
	for _, w := range onDisk.Workloads {
		check(w.Name, "")
		if len([]rune(w.Why)) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len([]rune(w.Why)))
		}
	}
	hasSetup := false
	for _, m := range onDisk.EndToEnd {
		check(m.Name, m.Unit)
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	for _, m := range onDisk.PerLayer {
		check(m.Name, m.Unit)
	}
	for _, m := range onDisk.EndToEnd {
		if m.Bound > onDisk.EndToEnd[0].Bound || onDisk.EndToEnd[0].Name != "setup_s" {
			t.Errorf("%s: bound %v above setup_s's, which must be the largest", m.Name, m.Bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
}

package analysis_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"paragraph/internal/analysis"
	"paragraph/internal/cparse"
	"paragraph/internal/variants"
)

// transferRows renders TransferBytes and MappedArrays for every GPU
// instance of the default sweep, one row per kernel × kind × bindings:
// teams and threads change neither field, and a row that does differ
// across them is an error.
func transferRows(t *testing.T) string {
	t.Helper()
	instances, err := variants.SweepAll(variants.DefaultSweep())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{}
	var b strings.Builder
	for _, in := range instances {
		if !in.Kind.IsGPU() {
			continue
		}
		fn, err := cparse.ParseFunction(in.Source)
		if err != nil {
			t.Fatalf("%s: %v", in.Name(), err)
		}
		kc := analysis.AnalyzeKernel(fn, in.Bindings, 100)
		key := fmt.Sprintf("%s %s %s", in.Kernel.Name, in.Kind, in.Bindings.Key())
		row := fmt.Sprintf("%s bytes=%g arrays=%d", key, kc.TransferBytes, kc.MappedArrays)
		if prev, ok := seen[key]; ok {
			if prev != row {
				t.Errorf("%s: %q, but %q at other teams/threads", in.Name(), row, prev)
			}
			continue
		}
		seen[key] = row
		b.WriteString(row)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestTransferGolden pins the transfer volume and mapped-array count of
// every GPU variant in the suite against testdata/transfer.golden, so a
// change to how map clauses are priced shows as the rows it moves.
func TestTransferGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "transfer.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := transferRows(t)
	if got == string(want) {
		return
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("%d rows, golden has %d", len(gotLines)-1, len(wantLines)-1)
	}
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Errorf("row %d: got %q, golden %q", i+1, gotLines[i], wantLines[i])
		}
	}
}

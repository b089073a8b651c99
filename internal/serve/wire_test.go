package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"testing"

	"paragraph/internal/advisor"
	"paragraph/internal/variants"
)

// goldenKeys are advise cache keys as older builds computed them.
// Snapshots, replicate batches and feedback journals carry these keys, so a
// build that derives any other byte for the same request loses every entry
// an older peer or file holds.
var goldenKeys = []struct {
	name, body, key string
}{
	{
		"suite kernel, default space",
		`{"kernel":"matmul","machine":"NVIDIA V100 (GPU)","bindings":{"n":256}}`,
		"322fcb11101d99ed3cf6bad41a1b30946f559efcf94fae3eb82343fb59659700",
	},
	{
		"suite kernel, two parameters",
		`{"kernel":"covariance_matrix","machine":"IBM POWER9 (CPU)","bindings":{"n":1024,"m":128}}`,
		"d2f9590d2e719a454e494873f27ce6b71c9b30af193e59b8783b70cfd7e59dfb",
	},
	{
		"custom kernel with params, arrays and collapsible",
		`{"custom":{"app":"Blur","name":"blur2d","func_name":"blur2d","collapsible":true,` +
			`"params":[{"name":"n","values":[64,128]},{"name":"m","values":[32]}],` +
			`"arrays":[{"name":"a","size_expr":"n*m"},{"name":"b","size_expr":"n*m"}],` +
			`"source":"void blur2d(double *a, double *b, int n, int m) {\n__PRAGMA__\n` +
			`for (int i = 0; i < n; i++) {\nfor (int j = 0; j < m; j++) {\nb[i * m + j] = a[i * m + j] * 0.5;\n}\n}\n}\n"},` +
			`"machine":"NVIDIA V100 (GPU)","bindings":{"n":128,"m":32}}`,
		"ff4acdfdb9ff59de7b6596573f0aebc97e9e74962423898ef061d8ff1390d168",
	},
	{
		"non-default GPU space",
		`{"kernel":"matmul","machine":"NVIDIA V100 (GPU)","bindings":{"n":512},"space":{"gpu_teams":[64,128],"gpu_threads":[32,256]}}`,
		"4936de811bbb13bdd63cf7d2a4ed510daa326a984f20508e25380f8006964186",
	},
	{
		"non-default CPU space",
		`{"kernel":"matmul","machine":"IBM POWER9 (CPU)","bindings":{"n":512},"space":{"cpu_threads":[2,8,160]}}`,
		"9072788e1f87cc96413ac7b2ef7ec29ecd00e9c16d1577d346cc332f58e80ec6",
	},
	{
		"fractional, negative, negative-zero and huge bindings",
		`{"kernel":"matmul","machine":"NVIDIA V100 (GPU)","bindings":{"n":256,"alpha":0.125,"beta":-3.5,` +
			`"gamma":-0,"huge":1e300,"tiny":1e-7,"wide":123456789,"third":0.3333333333333333}}`,
		"a996801113a4d957d7cfdf961a35eb109221a867259770be49ded1b196c89d1a",
	},
}

// TestAdviseKeysMatchGolden pins the advise key of each request above to the
// bytes older builds derived, through the handler's own answer, and checks
// that the tests' key helper agrees wherever it applies (suite kernels).
func TestAdviseKeysMatchGolden(t *testing.T) {
	s := newTestServer(t)
	for _, tc := range goldenKeys {
		t.Run(tc.name, func(t *testing.T) {
			rec := doRaw(t, s, http.MethodPost, "/v1/advise", []byte(tc.body), "")
			var resp AdviseResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != http.StatusOK || err != nil {
				t.Fatalf("advise: %d %s", rec.Code, rec.Body.String())
			}
			if resp.Key != tc.key {
				t.Errorf("key %s, want %s", resp.Key, tc.key)
			}
			var req AdviseRequest
			if err := json.Unmarshal([]byte(tc.body), &req); err != nil {
				t.Fatal(err)
			}
			if req.Custom == nil {
				if got := adviseKeyFor(t, req); got != tc.key {
					t.Errorf("adviseKeyFor = %s, want %s", got, tc.key)
				}
			}
		})
	}
}

// FuzzAdviseResponseWire holds the advise renderer to encoding/json: for
// any answer, adviseAnswer.appendJSON writes exactly the bytes
// json.NewEncoder(w).Encode writes for the AdviseResponse the answer stands
// for: Top truncates (when positive and inside the ranking), sources only
// with IncludeSource, and no slice at all for an empty ranking.
func FuzzAdviseResponseWire(f *testing.F) {
	f.Add("NVIDIA V100 (GPU)", "default", "matmul", "322fcb11101d99ed3cf6bad41a1b30946f559efcf94fae3eb82343fb59659700", "",
		"void f() {\n  for (i = 0; i < n; i++) a[i] = b[i] & 1;\n}\n", false, false, 0.012, uint8(48), 0, false, uint64(1))
	f.Add("m<&>", "\"q\"\\", "\x00\x01\t\n\r\b\f\x1f\x7f", "\xff\xfe", "http://b:1/  ",
		"é ü 日本", true, true, 1e21, uint8(3), 2, true, uint64(2))
	f.Add("", "", "", "", "", "", true, false, 1e-7, uint8(0), 0, true, uint64(3))
	f.Add("a", "b", "c", "", "peer", "src", false, true, 123456.789, uint8(5), -1, true, uint64(4))
	f.Add("a", "b", "c", "k", "", "", false, false, 0.5, uint8(7), 9, false, uint64(5))
	f.Add("a", "b", "c", "k", "", "\xed\xa0\x80", false, false, -0.0, uint8(24), 24, true, uint64(6))
	f.Fuzz(func(t *testing.T, machine, model, kernel, key, servedBy, source string,
		cached, coalesced bool, elapsed float64, n uint8, top int, includeSource bool, seed uint64) {
		if math.IsNaN(elapsed) || math.IsInf(elapsed, 0) {
			t.Skip("elapsed_ms is a measured duration: always finite")
		}
		a := adviseAnswer{machine: machine, model: model, kernel: kernel, key: key, servedBy: servedBy,
			cached: cached, coalesced: coalesced, elapsedMS: elapsed, top: top, includeSource: includeSource}
		rng := rand.New(rand.NewSource(int64(seed)))
		for i := 0; i < int(n%64); i++ {
			rec := advisor.Recommendation{
				Kind:    variants.Kind(rng.Intn(int(variants.NumKinds))),
				Threads: rng.Intn(1025),
				// Predictions across 1e-9…1e25 µs: both exponent-form
				// ranges, every power in between, and either sign.
				PredictedUS: math.Pow(10, -9+34*rng.Float64()),
			}
			if rng.Intn(2) == 0 {
				rec.Teams = rng.Intn(513)
			}
			if rng.Intn(8) == 0 {
				rec.PredictedUS = -rec.PredictedUS
			}
			if rng.Intn(4) != 0 {
				rec.Source = source
			}
			a.recs = append(a.recs, rec)
		}

		resp := AdviseResponse{Machine: machine, Model: model, Kernel: kernel, Key: key,
			Cached: cached, Coalesced: coalesced, ServedBy: servedBy, ElapsedMS: elapsed}
		k := len(a.recs)
		if top > 0 && top < k {
			k = top
		}
		for _, rec := range a.recs[:k] {
			out := Recommendation{Variant: rec.Kind.String(), Teams: rec.Teams, Threads: rec.Threads, PredictedUS: rec.PredictedUS}
			if includeSource {
				out.Source = rec.Source
			}
			resp.Recommendations = append(resp.Recommendations, out)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		if got := a.appendJSON(nil); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("renderer wrote\n%s\nencoding/json writes\n%s", got, want.Bytes())
		}
	})
}

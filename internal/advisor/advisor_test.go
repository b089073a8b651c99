package advisor

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"paragraph/internal/analysis"
	"paragraph/internal/apps"
	"paragraph/internal/dataset"
	"paragraph/internal/gnn"
	"paragraph/internal/hw"
	"paragraph/internal/obs"
	"paragraph/internal/variants"
)

// weightOracle is a stub cost model: it "predicts" from the graph's total
// log-weight and the scaled thread feature, so rankings are deterministic
// and interpretable without training a network.
type weightOracle struct{}

func (weightOracle) Predict(s *gnn.Sample) float64 {
	var total float64
	for _, w := range s.G.LogW {
		total += w
	}
	// More per-worker weight → slower; more threads → faster.
	return total/1e4 - 0.1*s.Feats[1]
}

// testPrep builds a Prepared carrying plausible scalers without running the
// full pipeline.
func testPrep() *dataset.Prepared {
	return &dataset.Prepared{
		TargetScaler: dataset.Scaler{Min: math.Log(10), Max: math.Log(1e6)},
		TeamScaler:   dataset.Scaler{Min: 0, Max: 256},
		ThreadScaler: dataset.Scaler{Min: 1, Max: 256},
		WScale:       10,
	}
}

func TestAdviseRanksAndFilters(t *testing.T) {
	k, _ := apps.ByName("matmul")
	a := New(weightOracle{}, testPrep(), hw.V100())
	recs, err := a.Advise(k, map[string]float64{"n": 256}, SearchSpace{
		GPUTeams:   []int{64, 256},
		GPUThreads: []int{64, 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 4 GPU kinds × 4 grid points.
	if len(recs) != 16 {
		t.Fatalf("recommendations = %d, want 16", len(recs))
	}
	for i, r := range recs {
		if r.Kind.IsGPU() != true {
			t.Errorf("rec %d: CPU variant on GPU advisor", i)
		}
		if i > 0 && recs[i-1].PredictedUS > r.PredictedUS {
			t.Errorf("recs not sorted at %d: %v > %v", i, recs[i-1].PredictedUS, r.PredictedUS)
		}
		if r.Source == "" {
			t.Errorf("rec %d: missing source", i)
		}
	}
}

func TestAdviseCPUMachineUsesCPUVariants(t *testing.T) {
	k, _ := apps.ByName("transpose")
	a := New(weightOracle{}, testPrep(), hw.Power9())
	recs, err := a.Advise(k, map[string]float64{"n": 512, "m": 512}, SearchSpace{
		CPUThreads: []int{1, 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	// transpose is collapsible: cpu + cpu_collapse × 2 thread counts.
	if len(recs) != 4 {
		t.Fatalf("recommendations = %d, want 4", len(recs))
	}
	for _, r := range recs {
		if r.Kind.IsGPU() {
			t.Errorf("GPU variant recommended for CPU machine")
		}
	}
}

func TestAdviseSkipsCollapseForNonCollapsible(t *testing.T) {
	k, _ := apps.ByName("correlation_pearson")
	a := New(weightOracle{}, testPrep(), hw.MI50())
	recs, err := a.Advise(k, map[string]float64{"n": 4096}, SearchSpace{
		GPUTeams: []int{64}, GPUThreads: []int{128},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Kind.IsCollapse() {
			t.Errorf("collapse variant for non-collapsible kernel")
		}
	}
	if len(recs) != 2 { // gpu, gpu_mem
		t.Errorf("recommendations = %d, want 2", len(recs))
	}
}

func TestAdviseErrors(t *testing.T) {
	a := New(weightOracle{}, testPrep(), hw.V100())
	if _, err := a.Advise(apps.Kernel{}, nil, DefaultSearchSpace()); err == nil {
		t.Error("invalid kernel accepted")
	}
	k, _ := apps.ByName("matmul")
	// Empty search space for this machine class.
	if _, err := a.Advise(k, nil, SearchSpace{CPUThreads: []int{4}}); err == nil {
		t.Error("empty GPU grid accepted")
	}
}

func TestDefaultSearchSpaceNonEmpty(t *testing.T) {
	sp := DefaultSearchSpace()
	if len(sp.CPUThreads) == 0 || len(sp.GPUTeams) == 0 || len(sp.GPUThreads) == 0 {
		t.Error("default search space incomplete")
	}
}

// predictOnly hides a model's batch calls, leaving the per-sample Predict
// the serial reference evaluates with.
type predictOnly struct{ m Predictor }

func (p predictOnly) Predict(s *gnn.Sample) float64 { return p.m.Predict(s) }

// ctxBatch is a ContextBatchPredictor over a model, recording every call's
// size and the last call's samples.
type ctxBatch struct {
	m     *gnn.Model
	calls []int
	last  []*gnn.Sample
}

func (c *ctxBatch) Predict(s *gnn.Sample) float64 { return c.m.Predict(s) }

func (c *ctxBatch) PredictBatchCtx(ctx context.Context, ss []*gnn.Sample) ([]float64, error) {
	c.calls = append(c.calls, len(ss))
	c.last = ss
	return c.m.PredictBatch(ss), ctx.Err()
}

// referenceAdvise is the ranking Advise must return over space, computed
// with nothing shared between grid points: each point's own source through
// the public per-point pipeline (parse → paragraph.Build → gnn.Encode, see
// buildPoint), scaled by hand, one lone Predict each, a stable sort.
func referenceAdvise(t *testing.T, m *gnn.Model, prep *dataset.Prepared, k apps.Kernel, machine hw.Machine, bindings analysis.Env, space SearchSpace) []Recommendation {
	t.Helper()
	var recs []Recommendation
	for _, p := range gridIn(k, machine, space) {
		src, err := variants.Generate(k, p.kind, p.teams, p.threads)
		if err != nil {
			t.Fatal(err)
		}
		eg := buildPoint(t, src, p.teams, p.threads, bindings).eg
		eg.WScale = prep.WScale
		pred := m.Predict(&gnn.Sample{G: eg, Feats: [2]float64{
			prep.TeamScaler.Scale(float64(p.teams)), prep.ThreadScaler.Scale(float64(p.threads)),
		}})
		recs = append(recs, Recommendation{Kind: p.kind, Teams: p.teams, Threads: p.threads, PredictedUS: prep.DescaleUS(pred), Source: src})
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].PredictedUS < recs[j].PredictedUS })
	return recs
}

// requireSameRanking fails unless got is want in order, with PredictedUS
// equal bit for bit.
func requireSameRanking(t *testing.T, name string, got, want []Recommendation) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d recommendations, want %d", name, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Kind != w.Kind || g.Teams != w.Teams || g.Threads != w.Threads || g.Source != w.Source ||
			math.Float64bits(g.PredictedUS) != math.Float64bits(w.PredictedUS) {
			t.Fatalf("%s: rank %d is %s g%d t%d at %v µs, the per-point reference has %s g%d t%d at %v µs",
				name, i, g.Kind, g.Teams, g.Threads, g.PredictedUS, w.Kind, w.Teams, w.Threads, w.PredictedUS)
		}
	}
}

// TestBatchAdviseMatchesSerialReference: for every suite kernel on a CPU
// and a GPU machine, Advise — one Predict at a time, through
// PredictBatch, and through PredictBatchCtx with one model call per grid —
// returns the ranking of referenceAdvise, which parses, builds and encodes
// every grid point on its own: in order and bit for bit, against a real
// model. Each kernel is ranked over the default space and over a one-point
// space — one team and thread count, the point moving from kernel to
// kernel — so a client's one-point advise reads each variant's runtime
// exactly as a lone per-point prediction computes it.
func TestBatchAdviseMatchesSerialReference(t *testing.T) {
	def := DefaultSearchSpace()
	onePoint := func(i int) SearchSpace {
		return SearchSpace{
			CPUThreads: []int{def.CPUThreads[i%len(def.CPUThreads)]},
			GPUTeams:   []int{def.GPUTeams[i%len(def.GPUTeams)]},
			GPUThreads: []int{def.GPUThreads[i/len(def.GPUTeams)%len(def.GPUThreads)]},
		}
	}
	m := gnn.NewModel(gnn.Config{Seed: 1, Hidden: 8, Layers: 2, Relations: 8})
	for _, machine := range []hw.Machine{hw.Power9(), hw.V100()} {
		serial := New(predictOnly{m}, testPrep(), machine)
		batch := New(m, testPrep(), machine)
		traced := &ctxBatch{m: m}
		ctxAdv := New(traced, testPrep(), machine)
		kernels := apps.Kernels()
		for i, k := range kernels {
			bindings := firstBindings(k)
			for _, space := range []SearchSpace{def, onePoint(i)} {
				want := referenceAdvise(t, m, testPrep(), k, machine, bindings, space)
				for _, adv := range []struct {
					name string
					a    *Advisor
				}{{"Predict", serial}, {"PredictBatch", batch}, {"PredictBatchCtx", ctxAdv}} {
					got, err := adv.a.Advise(k, bindings, space)
					if err != nil {
						t.Fatalf("%s on %s via %s over %v: %v", k.Name, machine.Name, adv.name, space, err)
					}
					requireSameRanking(t, fmt.Sprintf("%s on %s via %s over %v", k.Name, machine.Name, adv.name, space), got, want)
				}
				if last := traced.calls[len(traced.calls)-1]; last != len(want) {
					t.Errorf("%s on %s: model call of %d samples for a grid of %d", k.Name, machine.Name, last, len(want))
				}
			}
		}
		if len(traced.calls) != 2*len(kernels) {
			t.Errorf("%s: %d model calls for %d grids", machine.Name, len(traced.calls), 2*len(kernels))
		}
	}
}

// TestAdviseGridPointErrorNamesVariant: a front-end failure is reported
// against the first failing grid point in enumeration order, and the model
// is never called.
func TestAdviseGridPointErrorNamesVariant(t *testing.T) {
	k := apps.Kernel{
		App: "custom", Name: "broken", FuncName: "broken",
		Source: "void broken(double *a, int n) {\n__PRAGMA__\n    for (int i = 0; i < n; i++) {\n        a[i] = ;\n    }\n}\n",
		Params: []apps.Param{{Name: "n", Values: []int{64}}},
	}
	model := &ctxBatch{}
	_, err := New(model, testPrep(), hw.V100()).Advise(k, map[string]float64{"n": 64}, SearchSpace{GPUTeams: []int{32, 64}, GPUThreads: []int{128}})
	if err == nil || !strings.Contains(err.Error(), "variant gpu g32 t128") {
		t.Errorf("err = %v, want it to name variant gpu g32 t128", err)
	}
	if len(model.calls) != 0 {
		t.Errorf("model called %d times for a grid that failed to encode", len(model.calls))
	}
}

// TestSearchSpaceBounds: a space with an entry below 1, or more grid points
// than MaxGridPoints, is refused with the reason — before anything is
// generated or parsed — and a space exactly at the bound is not.
func TestSearchSpaceBounds(t *testing.T) {
	k, _ := apps.ByName("matmul") // collapsible: 4 GPU kinds, 2 CPU kinds
	seq := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = i + 1
		}
		return out
	}
	cases := []struct {
		name    string
		machine hw.Machine
		space   SearchSpace
		reason  string
	}{
		{"zero threads", hw.V100(), SearchSpace{GPUTeams: []int{64}, GPUThreads: []int{0}}, "space_value"},
		{"negative teams", hw.V100(), SearchSpace{GPUTeams: []int{-4}, GPUThreads: []int{64}}, "space_value"},
		{"zero cpu threads", hw.Power9(), SearchSpace{CPUThreads: []int{8, 0}}, "space_value"},
		{"zero in the list the machine ignores", hw.V100(), SearchSpace{CPUThreads: []int{0}, GPUTeams: []int{64}, GPUThreads: []int{64}}, "space_value"},
		{"5000 points", hw.V100(), SearchSpace{GPUTeams: seq(50), GPUThreads: seq(25)}, "grid_points"},
		{"one over", hw.Power9(), SearchSpace{CPUThreads: seq(MaxGridPoints/2 + 1)}, "grid_points"},
		{"product overflows", hw.V100(), SearchSpace{GPUTeams: seq(1 << 16), GPUThreads: seq(1 << 16)}, "grid_points"},
		{"at the bound", hw.V100(), SearchSpace{GPUTeams: seq(32), GPUThreads: seq(32)}, ""},
	}
	for _, c := range cases {
		model := &ctxBatch{m: gnn.NewModel(gnn.Config{Seed: 1, Hidden: 4, Layers: 1, Relations: 8})}
		_, err := New(model, testPrep(), c.machine).Advise(k, map[string]float64{"n": 64}, c.space)
		var refused *SpaceError
		switch {
		case c.reason == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.reason != "" && (!errors.As(err, &refused) || refused.Reason != c.reason):
			t.Errorf("%s: err = %v, want a SpaceError with reason %s", c.name, err, c.reason)
		case c.reason != "" && len(model.calls) != 0:
			t.Errorf("%s: model called for a refused space", c.name)
		}
		if check := CheckSpace(k, c.machine, c.space); (check == nil) != (err == nil) {
			t.Errorf("%s: CheckSpace says %v, Advise %v", c.name, check, err)
		}
	}
}

// panicsOn is a per-sample predictor that panics on the sample named name.
type panicsOn struct{ name string }

func (p panicsOn) Predict(s *gnn.Sample) float64 {
	if s.Name == p.name {
		panic("predictor bug")
	}
	return 0.5
}

// TestWorkerPanicIsTheRequestsError: a panic in a per-sample predictor comes
// back as that request's error, a *PanicError naming the grid point whose
// stack reaches the predictor, not as a dropped connection; the advisor
// keeps working.
func TestWorkerPanicIsTheRequestsError(t *testing.T) {
	k, _ := apps.ByName("matmul")
	bindings := map[string]float64{"n": 256}
	bad := variants.Instance{Kernel: k, Kind: variants.GPUMem, Teams: 128, Threads: 64, Bindings: bindings}.Name()
	a := New(panicsOn{bad}, testPrep(), hw.V100())
	_, err := a.Advise(k, bindings, DefaultSearchSpace())
	var pe *PanicError
	if !errors.As(err, &pe) || !strings.Contains(err.Error(), bad) || !strings.Contains(err.Error(), "predictor bug") {
		t.Fatalf("err = %v, want a PanicError naming %s", err, bad)
	}
	if !strings.Contains(string(pe.Stack), "panicsOn") {
		t.Errorf("the panic's stack does not reach the predictor:\n%s", pe.Stack)
	}
	if _, err := a.Advise(k, map[string]float64{"n": 128}, DefaultSearchSpace()); err != nil {
		t.Errorf("the advisor does not work after a recovered panic: %v", err)
	}
}

// TestEncodeSpanSurvivesFailure: the encode stage is on the trace of the
// request that failed in it — the one trace an operator goes looking for.
func TestEncodeSpanSurvivesFailure(t *testing.T) {
	tracer := obs.NewTracer(obs.TracerOptions{})
	tr := tracer.Start("enc-fail", "advise")
	a := New(weightOracle{}, testPrep(), hw.V100())
	k := apps.Kernel{
		App: "custom", Name: "unparseable", FuncName: "f",
		Source: "void f( {\n__PRAGMA__\n}\n",
		Params: []apps.Param{{Name: "n", Values: []int{64}}},
	}
	_, err := a.AdviseCtx(obs.WithTrace(context.Background(), tr), k, map[string]float64{"n": 64},
		SearchSpace{GPUTeams: []int{64}, GPUThreads: []int{128}})
	if err == nil {
		t.Fatal("unparseable source accepted")
	}
	tracer.Finish(tr, 422)
	ft, _ := tracer.Find("enc-fail")
	if len(ft.Spans) != 1 || ft.Spans[0].Name != "encode" {
		t.Errorf("spans = %+v, want the failed encode", ft.Spans)
	}
}

// selfCancelling is a context that cancels itself on its nth Err call.
// forEach polls Err once before each unit of front-end work — a variant
// kind — so this is a request abandoned as the front end reaches its nth
// kind. admitted counts the polls that let a kind start.
type selfCancelling struct {
	context.Context
	cancel   context.CancelFunc
	n        int64
	polls    atomic.Int64
	admitted atomic.Int64
}

func (c *selfCancelling) Err() error {
	if c.polls.Add(1) == c.n {
		c.cancel()
	}
	err := c.Context.Err()
	if err == nil {
		c.admitted.Add(1)
	}
	return err
}

// TestAdviseCancelledDuringFrontEnd: a context that ends while the grid is
// being encoded returns ctx.Err(), stops encoding at the next kind — the
// n-1 kinds before the cancelling poll ran, no other — and never reaches
// the model.
func TestAdviseCancelledDuringFrontEnd(t *testing.T) {
	k, _ := apps.ByName("matmul")
	inner, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := &selfCancelling{Context: inner, cancel: cancel, n: 3}
	model := &ctxBatch{m: gnn.NewModel(gnn.Config{Seed: 1, Hidden: 8, Layers: 1, Relations: 8})}
	_, err := New(model, testPrep(), hw.V100()).AdviseCtx(ctx, k, map[string]float64{"n": 256}, DefaultSearchSpace())
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if len(model.calls) != 0 {
		t.Errorf("model called %d times after cancellation", len(model.calls))
	}
	if got := ctx.admitted.Load(); got != ctx.n-1 {
		t.Errorf("%d of 4 kinds started, want exactly %d after cancelling at poll %d", got, ctx.n-1, ctx.n)
	}
}

// TestEndToEndWithTrainedModel wires a real (tiny) trained GNN through the
// advisor, checking the integration seam the examples rely on.
func TestEndToEndWithTrainedModel(t *testing.T) {
	if testing.Short() {
		t.Skip("training in -short mode")
	}
	k, _ := apps.ByName("matmul")
	// Build a micro-dataset directly from instances on V100.
	m := gnn.NewModel(gnn.Config{Seed: 1, Hidden: 8, Layers: 1, Relations: 8})
	prep := testPrep()
	a := New(m, prep, hw.V100())
	recs, err := a.Advise(k, map[string]float64{"n": 128}, SearchSpace{
		GPUTeams: []int{64}, GPUThreads: []int{64, 128},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 8 {
		t.Fatalf("recs = %d, want 8", len(recs))
	}
	for _, r := range recs {
		if r.PredictedUS <= 0 {
			t.Errorf("non-positive prediction %v", r.PredictedUS)
		}
	}
}

package registry

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"paragraph/internal/hw"
)

func TestRolloutStatePersistence(t *testing.T) {
	root := t.TempDir()
	plat := hw.V100().Name

	// Absent file: no state, no error.
	st, err := LoadRollout(root, plat)
	if err != nil || st != nil {
		t.Fatalf("LoadRollout on empty root = %v, %v", st, err)
	}

	want := &RolloutState{
		Platform:  plat,
		Stable:    "v1",
		Candidate: "fb-1",
		SplitPct:  10,
		Better:    2,
	}
	want.Note(RolloutEvent{Event: "candidate", Stable: "v1", Candidate: "fb-1"})
	if err := SaveRollout(root, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadRollout(root, plat)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Stable != "v1" || got.Candidate != "fb-1" || got.SplitPct != 10 || got.Better != 2 {
		t.Fatalf("round trip = %+v", got)
	}
	if len(got.History) != 1 || got.History[0].Event != "candidate" {
		t.Fatalf("history = %+v", got.History)
	}
	if got.UpdatedAt.IsZero() {
		t.Fatal("UpdatedAt not stamped")
	}

	// The state file must not confuse checkpoint discovery.
	saveTest(t, root, hw.V100(), "v1", 1)
	cps, err := Discover(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 1 || cps[0].Manifest.Name != "v1" {
		t.Fatalf("Discover with rollout.json present = %+v", cps)
	}
}

func TestRolloutHistoryBounded(t *testing.T) {
	st := &RolloutState{Platform: "p"}
	for i := 0; i < rolloutHistoryCap+10; i++ {
		st.Note(RolloutEvent{Event: fmt.Sprintf("e%d", i)})
	}
	if len(st.History) != rolloutHistoryCap {
		t.Fatalf("history length = %d, want %d", len(st.History), rolloutHistoryCap)
	}
	if st.History[len(st.History)-1].Event != fmt.Sprintf("e%d", rolloutHistoryCap+9) {
		t.Fatalf("history tail = %+v", st.History[len(st.History)-1])
	}
}

func TestRouteCandidateDeterministic(t *testing.T) {
	// Same key, same split → same verdict, always: the property restarts and
	// peers rely on. Also: pinned edge cases.
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("%064x", i*7919)
		for _, split := range []float64{0, 5, 10, 50, 99, 100} {
			a, b := RouteCandidate(key, split), RouteCandidate(key, split)
			if a != b {
				t.Fatalf("RouteCandidate(%q, %v) flapped", key, split)
			}
		}
		if RouteCandidate(key, 0) {
			t.Fatal("split 0 routed to candidate")
		}
		if !RouteCandidate(key, 100) {
			t.Fatal("split 100 routed to stable")
		}
	}
	if RouteCandidate("", 50) {
		t.Fatal("empty key routed to candidate")
	}
}

func TestRouteCandidateConvergence(t *testing.T) {
	// The measured candidate fraction over many random keys converges to the
	// configured split percentage.
	rng := rand.New(rand.NewSource(42))
	const n = 20000
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%x-%x", rng.Uint64(), rng.Uint64())
	}
	for _, split := range []float64{5, 10, 25, 50, 75, 90} {
		hits := 0
		for _, k := range keys {
			if RouteCandidate(k, split) {
				hits++
			}
		}
		got := 100 * float64(hits) / n
		if math.Abs(got-split) > 1.5 {
			t.Errorf("split %v%%: measured %.2f%% over %d keys", split, got, n)
		}
	}

	// Monotonicity: a key on the candidate at split s stays on it at s' > s.
	for _, k := range keys[:500] {
		last := false
		for _, split := range []float64{5, 10, 25, 50, 75, 90, 100} {
			cur := RouteCandidate(k, split)
			if last && !cur {
				t.Fatalf("key %q left the candidate as the split grew", k)
			}
			last = cur
		}
	}
}

func TestQualityWindow(t *testing.T) {
	w := NewQualityWindow(4)
	if corr, n, total := w.Snapshot(); !math.IsNaN(corr) || n != 0 || total != 0 {
		t.Fatalf("empty window = %v, %d, %d", corr, n, total)
	}
	// Perfectly ranked pairs.
	for i := 1; i <= 3; i++ {
		w.Add(float64(i), float64(i*10))
	}
	if corr, n, _ := w.Snapshot(); math.Abs(corr-1) > 1e-12 || n != 3 {
		t.Fatalf("perfect window = %v, %d", corr, n)
	}
	// Overflow evicts the oldest; feed reversed pairs to flip the sign.
	for i := 1; i <= 4; i++ {
		w.Add(float64(i), float64(-i))
	}
	corr, n, total := w.Snapshot()
	if n != 4 || total != 7 {
		t.Fatalf("window fill = %d, %d", n, total)
	}
	if math.Abs(corr+1) > 1e-12 {
		t.Fatalf("reversed window corr = %v, want -1", corr)
	}
}

// TestHysteresisTransitions walks the promote/rollback state machine through
// its full transition diagram with a scripted evaluation sequence.
func TestHysteresisTransitions(t *testing.T) {
	type step struct {
		name          string
		stable, cand  float64
		want          Decision
		better, worse int // expected counters after the step
	}
	steps := []step{
		// Better streak building toward promote...
		{"better 1", 0.90, 0.95, Hold, 1, 0},
		{"better 2 (within margin)", 0.90, 0.89, Hold, 2, 0},
		// ...broken by a clear regression (counters swap).
		{"worse 1 resets better", 0.90, 0.70, Hold, 0, 1},
		// Dead band resets both: streaks must be consecutive.
		{"dead band", 0.90, 0.85, Hold, 0, 0},
		// Full promote streak.
		{"better 1 again", 0.90, 0.91, Hold, 1, 0},
		{"better 2 again", 0.90, 0.92, Hold, 2, 0},
		{"promote", 0.90, 0.93, Promote, 0, 0},
		// Full rollback streak (rollbackAfter = 3).
		{"worse 1", 0.90, 0.60, Hold, 0, 1},
		{"worse 2", 0.90, 0.60, Hold, 0, 2},
		{"rollback", 0.90, 0.60, Rollback, 0, 0},
		// NaN semantics: candidate with no ranking signal is a regression,
		// stable with none cannot hold a candidate back, both NaN holds.
		{"cand NaN", 0.90, math.NaN(), Hold, 0, 1},
		{"cand NaN 2", 0.90, math.NaN(), Hold, 0, 2},
		{"cand NaN rollback", 0.90, math.NaN(), Rollback, 0, 0},
		{"stable NaN", math.NaN(), 0.5, Hold, 1, 0},
		{"both NaN", math.NaN(), math.NaN(), Hold, 1, 0},
	}
	st := &RolloutState{Platform: "p", Stable: "v1", Candidate: "fb-1"}
	for _, s := range steps {
		got := Observe(st, s.stable, s.cand)
		if got != s.want || st.Better != s.better || st.Worse != s.worse {
			t.Fatalf("%s: decision=%v better=%d worse=%d, want %v/%d/%d",
				s.name, got, st.Better, st.Worse, s.want, s.better, s.worse)
		}
	}

	// No candidate: Observe never acts, whatever the numbers say.
	idle := &RolloutState{Platform: "p", Stable: "v1"}
	for i := 0; i < 10; i++ {
		if got := Observe(idle, 0.1, 0.99); got != Hold {
			t.Fatalf("no-candidate Observe = %v", got)
		}
	}
	if idle.Better != 0 || idle.Worse != 0 {
		t.Fatalf("no-candidate counters moved: %+v", idle)
	}
}

// TestHysteresisDefaults pins the fixed streak depths: three consecutive
// non-inferior evaluations promote, three regressions roll back.
func TestHysteresisDefaults(t *testing.T) {
	st := &RolloutState{Platform: "p", Stable: "v1", Candidate: "c"}
	for i := 0; i < 2; i++ {
		if got := Observe(st, 0.5, 0.9); got != Hold {
			t.Fatalf("step %d = %v", i, got)
		}
	}
	if got := Observe(st, 0.5, 0.9); got != Promote {
		t.Fatalf("third better eval = %v, want Promote", got)
	}
	for i := 0; i < 2; i++ {
		if got := Observe(st, 0.9, 0.5); got != Hold {
			t.Fatalf("regression %d = %v", i, got)
		}
	}
	if got := Observe(st, 0.9, 0.5); got != Rollback {
		t.Fatalf("third regression = %v, want Rollback", got)
	}
	if s := Promote.String() + Rollback.String() + Hold.String(); s != "promoterollbackhold" {
		t.Fatalf("Decision strings = %q", s)
	}
}

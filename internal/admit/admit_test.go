package admit

import (
	"testing"
	"time"
)

func TestParseDeadline(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want time.Duration
		ok   bool
	}{
		{"250ms", 250 * time.Millisecond, true},
		{"2s", 2 * time.Second, true},
		{"1m30s", 90 * time.Second, true},
		{"", 0, false},
		{"soon", 0, false},
		{"-1s", 0, false},
		{"0s", 0, false},
	} {
		got, err := ParseDeadline(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("ParseDeadline(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if !tc.ok && err == nil {
			t.Errorf("ParseDeadline(%q) accepted, want error", tc.in)
		}
	}
}

func TestFormatDeadlineRoundTrip(t *testing.T) {
	for _, d := range []time.Duration{time.Millisecond, 250 * time.Millisecond, 90 * time.Second} {
		got, err := ParseDeadline(FormatDeadline(d))
		if err != nil || got != d {
			t.Errorf("round trip %v -> %q -> %v, %v", d, FormatDeadline(d), got, err)
		}
	}
}

func TestEstimateDrain(t *testing.T) {
	unit := 100 * time.Millisecond
	for _, tc := range []struct {
		backlog, conc int
		unit          time.Duration
		want          time.Duration
	}{
		{0, 4, unit, unit},                   // empty queue still costs one wave
		{4, 4, unit, 2 * unit},               // one full wave ahead, then ours
		{10, 4, unit, 3 * unit},              // 10/4 = 2 waves ahead
		{10, 0, unit, 11 * unit},             // degenerate concurrency clamps to 1
		{10, 4, 0, 0},                        // no latency data: never shed on a guess
		{-3, 4, unit, 0},                     // defensive: negative backlog
		{3, 1, time.Second, 4 * time.Second}, // serial drain
	} {
		got := EstimateDrain(tc.backlog, tc.conc, tc.unit)
		if got != tc.want {
			t.Errorf("EstimateDrain(%d, %d, %v) = %v, want %v", tc.backlog, tc.conc, tc.unit, got, tc.want)
		}
	}
}

func TestCheckDeadline(t *testing.T) {
	// Budget comfortably above drain: admit.
	if shed := CheckDeadline(time.Second, 100*time.Millisecond); shed != nil {
		t.Errorf("roomy budget shed: %v", shed)
	}
	// Exactly equal: admit (drain is an estimate, not a guarantee).
	if shed := CheckDeadline(time.Second, time.Second); shed != nil {
		t.Errorf("equal budget shed: %v", shed)
	}
	// Drain exceeds budget: shed with Retry-After covering the excess.
	shed := CheckDeadline(100*time.Millisecond, 350*time.Millisecond)
	if shed == nil || shed.Reason != ReasonDeadline || shed.RetryAfter != 250*time.Millisecond {
		t.Errorf("overloaded = %+v, want deadline shed with 250ms retry", shed)
	}
	// Already expired.
	shed = CheckDeadline(0, 500*time.Millisecond)
	if shed == nil || shed.Reason != ReasonExpired || shed.RetryAfter != 500*time.Millisecond {
		t.Errorf("expired = %+v, want expired shed carrying drain", shed)
	}
	if shed = CheckDeadline(-time.Second, 0); shed == nil || shed.Reason != ReasonExpired {
		t.Errorf("negative budget = %+v, want expired", shed)
	}
}

func TestRetryAfterSeconds(t *testing.T) {
	for _, tc := range []struct {
		in   time.Duration
		want int
	}{
		{0, 1},                       // never invite an instant retry
		{-time.Second, 1},            // defensive
		{time.Millisecond, 1},        // rounds up
		{time.Second, 1},             // exact
		{1100 * time.Millisecond, 2}, // rounds up, not down
	} {
		if got := RetryAfterSeconds(tc.in); got != tc.want {
			t.Errorf("RetryAfterSeconds(%v) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestShedErrorMessage(t *testing.T) {
	e := &ShedError{Reason: ReasonQueueFull, RetryAfter: 2 * time.Second}
	if got := e.Error(); got != "admit: shed (queue_full), retry after 2s" {
		t.Errorf("Error() = %q", got)
	}
}

func TestReasonsCoversAll(t *testing.T) {
	rs := Reasons()
	want := map[Reason]bool{
		ReasonQueueFull: true, ReasonLaneFull: true, ReasonDeadline: true,
		ReasonExpired: true,
	}
	if len(rs) != len(want) {
		t.Fatalf("Reasons() has %d entries, want %d", len(rs), len(want))
	}
	for _, r := range rs {
		if !want[r] {
			t.Errorf("unexpected reason %q", r)
		}
	}
}

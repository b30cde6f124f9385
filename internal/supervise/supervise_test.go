package supervise

import (
	"errors"
	"testing"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/core"
)

// TestBreakerLifecycle walks one full outage episode through the state
// machine on an explicit clock: trip → backoff → probe → probation →
// close, with the MTTR sample spanning the whole episode.
func TestBreakerLifecycle(t *testing.T) {
	b := NewBreaker(0, BreakerConfig{BaseBackoff: 100, MaxBackoff: 800, ProbeBudget: 3, JitterPct: -1})
	if b.Phase() != backend.BreakerClosed {
		t.Fatalf("new breaker phase = %v, want closed", b.Phase())
	}

	b.Trip(1000)
	if b.Phase() != backend.BreakerOpen {
		t.Fatalf("phase after trip = %v, want open", b.Phase())
	}
	if got := b.ReopenAt(); got != 1100 {
		t.Fatalf("reopenAt = %v, want 1100 (trip + base backoff)", got)
	}
	if b.ReadyToProbe(1099) {
		t.Fatal("ready to probe before backoff expired")
	}
	if !b.ReadyToProbe(1100) {
		t.Fatal("not ready to probe at the backoff instant")
	}

	// A failed probe doubles the backoff.
	b.FailProbe(1100)
	if got := b.ReopenAt(); got != 1300 {
		t.Fatalf("reopenAt after failed probe = %v, want 1300 (+200)", got)
	}
	if b.Streak() != 2 {
		t.Fatalf("streak = %d, want 2", b.Streak())
	}

	// Successful rebuild: half-open, then three good ops close it.
	b.EnterProbation(1300)
	if b.Phase() != backend.BreakerHalfOpen {
		t.Fatalf("phase after rebuild = %v, want half-open", b.Phase())
	}
	for i := 0; i < 2; i++ {
		if closed, _ := b.ProbeOK(1400); closed {
			t.Fatalf("breaker closed after %d probes, budget is 3", i+1)
		}
	}
	closed, downtime := b.ProbeOK(1500)
	if !closed {
		t.Fatal("breaker did not close after exhausting the probe budget")
	}
	if downtime != 500 {
		t.Fatalf("MTTR sample = %v, want 500 (close at 1500 − trip at 1000)", downtime)
	}
	if b.Phase() != backend.BreakerClosed || b.Streak() != 0 {
		t.Fatalf("post-close state: phase=%v streak=%d, want closed/0", b.Phase(), b.Streak())
	}
}

// TestBreakerProbationFailure: a trip during probation re-opens the
// breaker with the streak preserved, so the backoff keeps growing and
// the episode's MTTR keeps accumulating from the original trip.
func TestBreakerProbationFailure(t *testing.T) {
	b := NewBreaker(3, BreakerConfig{BaseBackoff: 10, MaxBackoff: 80, ProbeBudget: 4, JitterPct: -1})
	b.Trip(100) // streak 1, reopen at 110
	b.EnterProbation(110)
	if closed, _ := b.ProbeOK(111); closed {
		t.Fatal("closed with probes left")
	}
	b.Trip(112) // probation failure: streak 2
	if b.Phase() != backend.BreakerOpen || b.Streak() != 2 {
		t.Fatalf("after probation failure: phase=%v streak=%d, want open/2", b.Phase(), b.Streak())
	}
	if got := b.ReopenAt(); got != 112+20 {
		t.Fatalf("reopenAt = %v, want 132 (doubled backoff)", got)
	}
	b.EnterProbation(132)
	for i := 0; i < 3; i++ {
		b.ProbeOK(140)
	}
	closed, downtime := b.ProbeOK(150)
	if !closed || downtime != 50 {
		t.Fatalf("episode close = %v/%v, want true/50 (150 − original trip 100)", closed, downtime)
	}
}

// TestBreakerBackoffCapAndJitter: the exponential growth caps at
// MaxBackoff, and jitter is deterministic, bounded by JitterPct, and
// decorrelated across partition ids.
func TestBreakerBackoffCapAndJitter(t *testing.T) {
	plain := NewBreaker(0, BreakerConfig{BaseBackoff: 64, MaxBackoff: 4096, JitterPct: -1})
	for streak, want := range map[int]clock.Time{1: 64, 2: 128, 3: 256, 7: 4096, 20: 4096} {
		if got := plain.Backoff(streak); got != want {
			t.Fatalf("Backoff(%d) = %v, want %v", streak, got, want)
		}
	}

	j1 := NewBreaker(1, BreakerConfig{BaseBackoff: 100, MaxBackoff: 4096, JitterPct: 25})
	j2 := NewBreaker(2, BreakerConfig{BaseBackoff: 100, MaxBackoff: 4096, JitterPct: 25})
	differ := false
	for streak := 1; streak <= 6; streak++ {
		a, b2 := j1.Backoff(streak), j2.Backoff(streak)
		if a != j1.Backoff(streak) {
			t.Fatal("jitter is not deterministic")
		}
		base := clock.Time(100) << uint(streak-1)
		if a < base || a > base+base/4 {
			t.Fatalf("jittered Backoff(%d) = %v outside [base, base+25%%] = [%v, %v]", streak, a, base, base+base/4)
		}
		if a != b2 {
			differ = true
		}
	}
	if !differ {
		t.Fatal("jitter identical across partition ids; probes would synchronize")
	}
	if h := j1.Horizon(); h != 4096+4096/4 {
		t.Fatalf("Horizon = %v, want 5120", h)
	}
}

// TestBreakerDefaultsMatchLegacyBackoff: the zero config reproduces the
// engine's historical op-count schedule (base 64, cap 4096, 8 attempts).
func TestBreakerDefaultsMatchLegacyBackoff(t *testing.T) {
	cfg := NewBreaker(0, BreakerConfig{}).Config()
	if cfg.BaseBackoff != 64 || cfg.MaxBackoff != 4096 || cfg.MaxRebuildAttempts != 8 {
		t.Fatalf("defaults = %+v, want base 64 / max 4096 / attempts 8", cfg)
	}
	if cfg.ProbeBudget != 16 || cfg.JitterPct != 25 {
		t.Fatalf("defaults = %+v, want probe budget 16 / jitter 25", cfg)
	}
}

// TestControllerLadder steps occupancy up and down through every level
// and checks the hysteresis gaps: levels are entered at Enter and left
// only below Exit.
func TestControllerLadder(t *testing.T) {
	c := NewController(1000, Watermarks{}) // defaults: 700/600, 850/750, 970/900
	steps := []struct {
		occ  int
		want Level
	}{
		{0, LevelAdmitAll},
		{699, LevelAdmitAll},
		{700, LevelTailDrop}, // enter tail-drop
		{650, LevelTailDrop}, // inside the hysteresis band: hold
		{599, LevelAdmitAll}, // below exit: release
		{849, LevelTailDrop}, // re-enter
		{850, LevelPushOut},  // climb
		{751, LevelPushOut},  // hold above exit
		{749, LevelTailDrop}, // descend one level
		{970, LevelShed},     // multi-step climb in one evaluation
		{901, LevelShed},     // hold
		{899, LevelPushOut},  // descend
		{100, LevelAdmitAll}, // multi-step descent in one evaluation
	}
	for i, s := range steps {
		if got := c.Evaluate(s.occ); got != s.want {
			t.Fatalf("step %d: Evaluate(%d) = %v, want %v", i, s.occ, got, s.want)
		}
	}
	st := c.Stats()
	if st.Evaluations != uint64(len(steps)) {
		t.Fatalf("evaluations = %d, want %d", st.Evaluations, len(steps))
	}
}

// TestControllerNoFlapping is the hysteresis property the ISSUE's
// acceptance criteria name: at ANY constant occupancy — including
// exactly on an enter or exit watermark — the level is stable across
// ≥100 consecutive evaluations after the first.
func TestControllerNoFlapping(t *testing.T) {
	boundaries := []int{0, 599, 600, 699, 700, 749, 750, 849, 850, 899, 900, 969, 970, 1000}
	for _, occ := range boundaries {
		c := NewController(1000, Watermarks{})
		settled := c.Evaluate(occ)
		before := c.Stats().Transitions
		for i := 0; i < 120; i++ {
			if got := c.Evaluate(occ); got != settled {
				t.Fatalf("occ %d: level flapped to %v after settling at %v (eval %d)", occ, got, settled, i)
			}
		}
		if delta := c.Stats().Transitions - before; delta != 0 {
			t.Fatalf("occ %d: %d transitions across constant-load evaluations, want 0", occ, delta)
		}
	}
}

// TestControllerSmallCapacity: rounding on tiny capacities must keep at
// least one unit of hysteresis, or boundary occupancies would flap.
func TestControllerSmallCapacity(t *testing.T) {
	c := NewController(8, Watermarks{})
	for occ := 0; occ <= 8; occ++ {
		settled := c.Evaluate(occ)
		for i := 0; i < 100; i++ {
			if got := c.Evaluate(occ); got != settled {
				t.Fatalf("capacity 8, occ %d: flapped %v → %v", occ, settled, got)
			}
		}
	}
}

// TestLevelPolicyMapping pins the level → admission-policy map.
func TestLevelPolicyMapping(t *testing.T) {
	if LevelAdmitAll.Policy() != backend.AdmitReject ||
		LevelTailDrop.Policy() != backend.AdmitTailDrop ||
		LevelPushOut.Policy() != backend.AdmitPushOut ||
		LevelShed.Policy() != backend.AdmitPushOut {
		t.Fatal("level → policy mapping changed")
	}
}

// TestDeadlineHelpers: budget arithmetic, Never saturation, and the
// WithDeadline loop surfacing core.ErrDeadline.
func TestDeadlineHelpers(t *testing.T) {
	w := &clock.Wall{}
	w.AdvanceTo(100)
	if d := Deadline(w, 50); d != 150 {
		t.Fatalf("Deadline = %v, want 150", d)
	}
	if d := Deadline(w, clock.Never); d != clock.Never {
		t.Fatalf("overflowing Deadline = %v, want Never", d)
	}
	if Expired(w, 0) || Expired(w, clock.Never) || Expired(w, 100) {
		t.Fatal("zero/Never/now deadlines must not read as expired")
	}
	if !Expired(w, 99) {
		t.Fatal("past deadline not expired")
	}

	// The step advances the clock but never completes: the wrapper must
	// return ErrDeadline rather than spin.
	calls := 0
	err := WithDeadline(w, 10, func() (bool, error) {
		calls++
		w.Advance(4)
		return false, nil
	})
	if !errors.Is(err, core.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if calls == 0 || calls > 4 {
		t.Fatalf("step ran %d times under a 10-tick budget at 4 ticks/step", calls)
	}

	// Completion and step errors pass through.
	if err := WithDeadline(w, 10, func() (bool, error) { return true, nil }); err != nil {
		t.Fatalf("completed loop returned %v", err)
	}
	sentinel := errors.New("boom")
	if err := WithDeadline(w, 10, func() (bool, error) { return false, sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("step error lost: %v", err)
	}
}

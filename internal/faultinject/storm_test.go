package faultinject_test

import (
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pieo/internal/clock"
	"pieo/internal/core"
	"pieo/internal/faultinject"
	"pieo/internal/shard"
	"pieo/internal/supervise"
)

// TestStormScheduledWindows pins the storm's window arithmetic on a
// hand-driven clock: faults fire only inside live windows, End() is the
// last close, and the hook is a no-op between windows.
func TestStormScheduledWindows(t *testing.T) {
	clk := &clock.Atomic{}
	storm := faultinject.NewStorm(clk, []faultinject.Window{
		{From: 100, To: 200, Plan: faultinject.Plan{Seed: 1, PanicEvery: 1}},
		{From: 300, To: 400, Plan: faultinject.Plan{Seed: 1, PanicEvery: 1}},
	})
	if storm.End() != 400 {
		t.Fatalf("End = %v, want 400", storm.End())
	}
	hook := storm.ShardHook()
	fire := func() (panicked bool) {
		defer func() { panicked = recover() != nil }()
		hook(0, "enqueue")
		return false
	}
	for _, tc := range []struct {
		at   clock.Time
		want bool
	}{
		{0, false}, {99, false}, {100, true}, {199, true},
		{200, false}, {250, false}, {300, true}, {399, true}, {400, false},
	} {
		clk.AdvanceTo(tc.at)
		if got := fire(); got != tc.want {
			t.Fatalf("at %v: fired=%v, want %v", tc.at, got, tc.want)
		}
		if storm.Active() != tc.want {
			t.Fatalf("at %v: Active=%v, want %v", tc.at, storm.Active(), tc.want)
		}
	}
	if storm.Stats().Panics == 0 {
		t.Fatal("no panics counted across live windows")
	}
	if storm.WindowStats(0).Panics == 0 || storm.WindowStats(1).Panics == 0 {
		t.Fatal("per-window counters missing fires")
	}
}

// TestStormConvergenceConcurrent is the cross-feature -race storm: the
// timewheel eligibility index active (core backend) and SCHEDULED
// quarantine windows on a shared clock, simultaneously. The assertion is recovery
// CONVERGENCE, not forced recovery: after the last window closes, live
// traffic plus the breakers' own clock-driven probes must bring every
// shard back to fully closed within the supervision layer's bounded
// horizon, with exact conservation at the end.
func TestStormConvergenceConcurrent(t *testing.T) {
	runStormConvergence(t, 0)
}

// TestStormConvergenceExtended loops the same storm+convergence cycle
// with fresh seeds for PIEO_STORM_SECONDS of wall time — the scheduled
// CI extended-chaos job's entry point (5 minutes under -race). Skipped
// unless the knob is set, so regular runs stay fast.
func TestStormConvergenceExtended(t *testing.T) {
	secs, _ := strconv.Atoi(os.Getenv("PIEO_STORM_SECONDS"))
	if secs <= 0 {
		t.Skip("set PIEO_STORM_SECONDS to run the extended storm")
	}
	deadline := time.Now().Add(time.Duration(secs) * time.Second)
	for round := uint64(0); time.Now().Before(deadline); round++ {
		t.Logf("extended storm cycle %d", round)
		runStormConvergence(t, 1+round*1000)
	}
}

// runStormConvergence is one full storm-then-converge cycle; seedBase
// phase-shifts both windows' fault schedules so repeated cycles explore
// different interleavings.
func runStormConvergence(t *testing.T, seedBase uint64) {
	const (
		producers  = 3
		consumers  = 2
		capacityN  = 32 * 1024
		shardCount = 8
	)
	clk := &clock.Atomic{}
	e := shard.New(capacityN, shardCount)
	e.SetClock(clk)
	bcfg := supervise.BreakerConfig{BaseBackoff: 64, MaxBackoff: 512, ProbeBudget: 8, JitterPct: 25}
	e.SetBreakerConfig(bcfg)
	storm := faultinject.NewStorm(clk, []faultinject.Window{
		{From: 10, To: 250, Plan: faultinject.Plan{Seed: seedBase + 7, PanicEvery: 97}},
		{From: 450, To: 700, Plan: faultinject.Plan{Seed: seedBase + 13, PanicEvery: 181, LatencyEvery: 41, LatencyNs: 100}},
	})
	e.SetFaultHook(storm.ShardHook())
	if !e.EligIndexActive() {
		t.Fatal("timewheel eligibility index inactive on the core backend")
	}

	var stop atomic.Bool
	var nextID atomic.Uint32
	acceptedCh := make([][]uint32, producers)
	deliveredCh := make([][]core.Entry, consumers)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := lcg(1000 + p)
			var mine []uint32
			for !stop.Load() {
				id := nextID.Add(1)
				ent := core.Entry{ID: id, Rank: rng.next() % 5000, SendTime: clock.Time(rng.next() % 16)}
				if err := e.Enqueue(ent); err == nil {
					mine = append(mine, id)
				}
			}
			acceptedCh[p] = mine
		}(p)
	}
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := lcg(2000 + c)
			var mine []core.Entry
			for !stop.Load() {
				if ent, ok := e.Dequeue(clock.Time(rng.next() % 32)); ok {
					mine = append(mine, ent)
				}
			}
			deliveredCh[c] = mine
		}(c)
	}

	// Phase 1: drive the shared clock through both storm windows while the
	// workers hammer. Small steps keep each window live across thousands
	// of operations so the panic schedules fire.
	for clk.Now() < storm.End() {
		clk.Advance(5)
		time.Sleep(200 * time.Microsecond)
	}
	if storm.Active() {
		t.Fatal("storm still active past End()")
	}

	// Phase 2: convergence. NO Recover() — only live traffic and clock
	// advancement. Every breaker's next probe is due within one Horizon of
	// the last fault, a failed probe backs off by at most another Horizon,
	// and probation needs ProbeBudget real ops; with faults over, probes
	// cannot fail, so a small number of horizon-sized steps must reach
	// all-shards-closed. The round bound is deliberately generous — the
	// assertion is bounded convergence, not a tight constant.
	horizon := supervise.NewBreaker(0, bcfg).Horizon()
	converged := false
	for round := 0; round < 400; round++ {
		fs := e.FaultStats()
		if fs.DownShards == 0 && fs.HalfOpenShards == 0 {
			converged = true
			break
		}
		clk.Advance(horizon)
		time.Sleep(500 * time.Microsecond)
	}
	stop.Store(true)
	wg.Wait()
	if !converged {
		t.Fatalf("engine did not converge to all-shards-closed after the storm: %+v", e.FaultStats())
	}

	if storm.Stats().Panics == 0 || e.FaultStats().Quarantines == 0 {
		t.Fatalf("storm was vacuous: storm=%+v engine=%+v", storm.Stats(), e.FaultStats())
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("post-convergence invariants: %v", err)
	}
	fs := e.FaultStats()
	if fs.Recoveries == 0 {
		t.Fatal("no breaker-close recoveries recorded despite quarantines converging")
	}
	if fs.MTTRMax > fs.MTTRTotal {
		t.Fatalf("MTTR accounting inconsistent: max %v > total %v", fs.MTTRMax, fs.MTTRTotal)
	}
	// MTTR must be computable from the event log alone and agree with the
	// counters (the log is bounded, so it may hold a subset).
	recov, total, max := shard.MTTR(e.FaultEvents())
	if uint64(recov) > fs.Recoveries || total > fs.MTTRTotal || max > fs.MTTRMax {
		t.Fatalf("event-log MTTR (%d/%v/%v) exceeds counters (%d/%v/%v)",
			recov, total, max, fs.Recoveries, fs.MTTRTotal, fs.MTTRMax)
	}

	accepted := make(map[uint32]bool)
	for _, ids := range acceptedCh {
		for _, id := range ids {
			accepted[id] = true
		}
	}
	var delivered []core.Entry
	for _, ents := range deliveredCh {
		delivered = append(delivered, ents...)
	}
	auditConservation(t, e, accepted, delivered)
	drainAll(t, e)
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("post-drain invariants: %v", err)
	}
	if !e.EligIndexActive() {
		t.Fatal("timewheel eligibility index demoted by quarantine rebuilds")
	}
	t.Logf("converged: %d accepted, faults=%+v, storm=%+v", len(accepted), e.FaultStats(), storm.Stats())
}

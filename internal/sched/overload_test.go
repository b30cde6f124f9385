package sched

import (
	"errors"
	"testing"

	"pieo/internal/clock"
	"pieo/internal/core"
	"pieo/internal/flowq"
	"pieo/internal/supervise"
)

// rankedProg gives each flow its ID as rank (always eligible), so
// push-out victims are predictable.
func rankedProg() *Program {
	return &Program{
		Name: "ranked",
		PreEnqueue: func(s *Scheduler, now clock.Time, f *Flow) {
			f.Rank = uint64(f.ID)
			f.SendTime = clock.Always
		},
	}
}

// TestOverloadLadderOnScheduler drives occupancy through every watermark
// and checks the admission behavior the active level implies: admit-all
// rejects nothing, tail-drop absorbs overflow, push-out evicts the worst
// rank, shed drops at the door without touching the list.
func TestOverloadLadderOnScheduler(t *testing.T) {
	const cap = 10
	s := New(rankedProg(), cap, 40)
	s.Overload = supervise.NewController(cap, supervise.Watermarks{})

	// Fill to capacity: the controller climbs as occupancy crosses the
	// enter marks, but nothing is shed until the shed level (97% of 10
	// rounds up to 10).
	for id := flowq.FlowID(1); id <= cap; id++ {
		s.OnArrival(0, flowq.Packet{Flow: id, Size: 100})
	}
	if got := s.List.Len(); got != cap {
		t.Fatalf("list len = %d, want %d (no shedding below the shed mark)", got, cap)
	}

	// At full occupancy the next arrival evaluates into the shed level
	// and is dropped at the door: the list is untouched and the drop is
	// attributed.
	s.OnArrival(0, flowq.Packet{Flow: 99, Size: 100})
	if lvl := s.Overload.Level(); lvl != supervise.LevelShed {
		t.Fatalf("level at full occupancy = %v, want shed", lvl)
	}
	fs := s.FaultStats()
	if fs.AdmissionSheds != 1 || fs.DroppedPackets != 1 {
		t.Fatalf("after shed: sheds=%d drops=%d, want 1/1", fs.AdmissionSheds, fs.DroppedPackets)
	}
	if s.List.Contains(99) {
		t.Fatal("shed arrival reached the ordered list")
	}
	if got := s.Overload.Stats().Sheds; got != 1 {
		t.Fatalf("controller sheds = %d, want 1", got)
	}

	// Drain below the shed-exit mark (90% → 9): the controller descends
	// and arrivals flow again (push-out at level 2: the newcomer with the
	// best rank evicts the worst resident).
	for i := 0; i < 3; i++ {
		if _, ok := s.NextPacket(0); !ok {
			t.Fatalf("drain %d: no packet", i)
		}
	}
	s.OnArrival(0, flowq.Packet{Flow: 100, Size: 100}) // rank 100: worst — dropped by push-out or admitted if room
	if s.List.Len() > cap {
		t.Fatalf("list len %d exceeds capacity", s.List.Len())
	}
	if lvl := s.Overload.Level(); lvl == supervise.LevelShed {
		t.Fatal("controller still at shed after draining below the exit mark")
	}
}

// TestOverloadPushOutEvictsWorst: at the push-out level an arrival that
// outranks the resident maximum evicts it, and the victim's backlog is
// shed as declared drops.
func TestOverloadPushOutEvictsWorst(t *testing.T) {
	const cap = 8
	s := New(rankedProg(), cap, 40)
	// The controller is scaled to a larger aggregate (a shared link whose
	// budget spans more than this one list), so a full list sits in the
	// push-out band rather than the shed band: full + push-out is the
	// configuration where the rank-aware rule actually evicts.
	s.Overload = supervise.NewController(2*cap, supervise.Watermarks{
		EnterTailDrop: 0.20, ExitTailDrop: 0.10,
		EnterPushOut: 0.40, ExitPushOut: 0.30,
		EnterShed: 0.95, ExitShed: 0.90,
	})
	// IDs 10..17 fill the list; push-out is active well below full.
	for id := flowq.FlowID(10); id < 10+cap; id++ {
		s.OnArrival(0, flowq.Packet{Flow: id, Size: 100})
	}
	if got := s.List.Len(); got != cap {
		t.Fatalf("list len = %d, want %d", got, cap)
	}
	// Rank 5 outranks every resident (10..17): 17 is evicted.
	s.OnArrival(0, flowq.Packet{Flow: 5, Size: 100})
	if !s.List.Contains(5) {
		t.Fatal("outranking arrival was not admitted by push-out")
	}
	if s.List.Contains(17) {
		t.Fatal("worst-ranked resident survived push-out")
	}
	fs := s.FaultStats()
	if fs.AdmissionEvictions != 1 || fs.DroppedPackets != 1 {
		t.Fatalf("evictions=%d drops=%d, want 1/1 (victim's backlog shed)", fs.AdmissionEvictions, fs.DroppedPackets)
	}
}

// TestDequeueDeadline: a program that never makes progress (re-enqueues
// without transmitting) trips the deadline on the injected clock instead
// of spinning out the 2^22 guard, and the expiry is typed core.ErrDeadline.
func TestDequeueDeadline(t *testing.T) {
	clk := &clock.Wall{}
	prog := &Program{
		Name: "stuck",
		PreEnqueue: func(s *Scheduler, now clock.Time, f *Flow) {
			f.Rank = 1
			f.SendTime = clock.Always
		},
		PostDequeue: func(s *Scheduler, now clock.Time, f *Flow) []flowq.Packet {
			// Never transmits: re-enqueue and advance the clock so the
			// deadline can expire.
			clk.Advance(7)
			s.EnqueueFlow(now, f)
			return nil
		},
	}
	s := New(prog, 16, 40)
	s.Clock = clk
	s.DequeueBudget = 100
	s.OnArrival(0, flowq.Packet{Flow: 1, Size: 100})

	if _, ok := s.NextPacket(0); ok {
		t.Fatal("stuck program produced a packet")
	}
	fs := s.FaultStats()
	if fs.DeadlineExpiries != 1 {
		t.Fatalf("DeadlineExpiries = %d, want 1", fs.DeadlineExpiries)
	}
	if fs.SpinGuardTrips != 0 {
		t.Fatalf("SpinGuardTrips = %d, want 0 (deadline must fire first)", fs.SpinGuardTrips)
	}
	if err := s.LastFault(); !errors.Is(err, core.ErrDeadline) {
		t.Fatalf("LastFault = %v, want core.ErrDeadline", err)
	}
	// Without a budget the same program runs into the spin guard; with
	// one, the episode was bounded by ~100/7 iterations — sanity-check it
	// stayed tiny via the clock.
	if clk.Now() > 200 {
		t.Fatalf("clock advanced to %v; deadline did not bound the episode", clk.Now())
	}
}

// TestOverloadNoFlappingUnderConstantLoad holds the scheduler at a
// boundary occupancy and checks the controller's level is constant across
// ≥100 consecutive arrival evaluations — the ISSUE's no-flapping gate at
// the integration layer.
func TestOverloadNoFlappingUnderConstantLoad(t *testing.T) {
	const cap = 100
	s := New(rankedProg(), cap, 40)
	s.Overload = supervise.NewController(cap, supervise.Watermarks{})
	// Pin occupancy exactly on the tail-drop enter mark (70).
	for id := flowq.FlowID(1); id <= 70; id++ {
		s.OnArrival(0, flowq.Packet{Flow: id, Size: 100})
	}
	// One settling evaluation at the boundary occupancy, then the level
	// must hold across every subsequent evaluation at the same load.
	settled := s.Overload.Evaluate(s.List.Len())
	before := s.Overload.Stats().Transitions
	for i := 0; i < 120; i++ {
		if got := s.Overload.Evaluate(s.List.Len()); got != settled {
			t.Fatalf("level flapped to %v at constant occupancy (eval %d)", got, i)
		}
	}
	if delta := s.Overload.Stats().Transitions - before; delta != 0 {
		t.Fatalf("%d transitions across constant-load evaluations, want 0", delta)
	}
}

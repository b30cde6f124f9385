package core_test

import (
	"math/rand"
	"testing"

	"pieo/internal/clock"
	"pieo/internal/core"
)

// TestEnqueueSeqOutOfOrderSameRank is the regression test for the
// seq-aware sublist selection: same-rank elements arriving with
// DESCENDING sequence numbers must still land in ascending-seq positions
// even when the run of equal ranks spans multiple sublists. (The sharded
// engine draws sequences outside the shard lock, so producers can reach
// the lock out of sequence order: out-of-order stamped inserts are a live
// input, not a theoretical one.) Before smallestSeq joined the pointer-array
// metadata, the rank-only binary search dumped every equal-rank insert
// at the END of the run regardless of its stamp, violating global FIFO.
func TestEnqueueSeqOutOfOrderSameRank(t *testing.T) {
	const n = 40
	l := core.NewWithSublistSize(64, 4) // rank run spans ~10 sublists
	for i := 0; i < n; i++ {
		// IDs ascend, stamped sequences descend.
		e := core.Entry{ID: uint32(i + 1), Rank: 7, SendTime: clock.Always}
		if err := l.EnqueueSeq(e, uint64(n-i)); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
		if err := l.CheckInvariants(); err != nil {
			t.Fatalf("invariants after insert %d: %v", i, err)
		}
	}
	// Drain order must follow the stamps: seq 1..n, i.e. IDs n..1.
	for want := uint32(n); want >= 1; want-- {
		ent, ok := l.Dequeue(clock.Always)
		if !ok {
			t.Fatalf("list dried up waiting for id %d", want)
		}
		if ent.ID != want {
			t.Fatalf("dequeued id %d, want %d (stamped FIFO violated)", ent.ID, want)
		}
	}
}

// TestEnqueueSeqShuffledSameRank drives the same property with random
// stamp orders and multiple equal-rank runs.
func TestEnqueueSeqShuffledSameRank(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		l := core.NewWithSublistSize(128, 5)
		n := 20 + rng.Intn(60)
		perm := rng.Perm(n)
		for i, p := range perm {
			e := core.Entry{ID: uint32(i + 1), Rank: uint64(p % 3), SendTime: clock.Always}
			if err := l.EnqueueSeq(e, uint64(p+1)); err != nil {
				t.Fatalf("trial %d enqueue %d: %v", trial, i, err)
			}
		}
		if err := l.CheckInvariants(); err != nil {
			t.Fatalf("trial %d invariants: %v", trial, err)
		}
		lastRank, lastSeq := uint64(0), uint64(0)
		_, seqs := l.SnapshotWithSeq()
		ents := l.Snapshot()
		for i := range ents {
			if ents[i].Rank < lastRank || (ents[i].Rank == lastRank && seqs[i] < lastSeq) {
				t.Fatalf("trial %d: snapshot out of (rank, seq) order at %d", trial, i)
			}
			lastRank, lastSeq = ents[i].Rank, seqs[i]
		}
	}
}

// TestDequeueBelowSeqSemantics pins the fused peek-or-extract contract:
// limit 0 is a pure peek, a head at or above the limit peeks, a head
// strictly below it extracts, and an ineligible list reports
// eligible=false.
func TestDequeueBelowSeqSemantics(t *testing.T) {
	l := core.New(64)
	if _, _, elig, taken := l.DequeueBelowSeq(10, ^uint64(0)); elig || taken {
		t.Fatalf("empty list: elig=%v taken=%v, want false/false", elig, taken)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(l.EnqueueSeq(core.Entry{ID: 1, Rank: 5, SendTime: 100}, 1))
	if _, _, elig, _ := l.DequeueBelowSeq(10, ^uint64(0)); elig {
		t.Fatal("future-only list reported an eligible head")
	}
	must(l.EnqueueSeq(core.Entry{ID: 2, Rank: 8, SendTime: 0}, 2))

	ent, seq, elig, taken := l.DequeueBelowSeq(10, 0)
	if !elig || taken || ent.ID != 2 || seq != 2 {
		t.Fatalf("limit 0: ent=%+v seq=%d elig=%v taken=%v, want peek of id 2", ent, seq, elig, taken)
	}
	if l.Len() != 2 {
		t.Fatalf("pure peek mutated the list: len %d", l.Len())
	}
	if _, _, _, taken := l.DequeueBelowSeq(10, 8); taken {
		t.Fatal("head rank 8 extracted under limit 8 (limit must be strict)")
	}
	ent, _, _, taken = l.DequeueBelowSeq(10, 9)
	if !taken || ent.ID != 2 {
		t.Fatalf("limit 9: ent=%+v taken=%v, want extraction of id 2", ent, taken)
	}
	if l.Len() != 1 {
		t.Fatalf("extraction left len %d, want 1", l.Len())
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestDequeueBelowSeqStatsParity drives two identical lists through the
// same workload — one with Dequeue, one with DequeueBelowSeq at an
// unbounded limit — and requires identical §5 hardware counters: the
// fused path must charge exactly what the peek+dequeue pair it replaces
// charged for taken elements, and nothing for misses.
func TestDequeueBelowSeqStatsParity(t *testing.T) {
	build := func() *core.List {
		l := core.NewWithSublistSize(256, 6)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 200; i++ {
			e := core.Entry{ID: uint32(i + 1), Rank: uint64(rng.Intn(50)), SendTime: clock.Time(rng.Intn(8))}
			if err := l.EnqueueSeq(e, uint64(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		return l
	}
	a, b := build(), build()
	for now := clock.Time(0); now < 10; now++ {
		// A miss is where the two paths intentionally differ (Dequeue
		// charges an empty scan; the fused peek is free, matching the
		// PeekSeq probe it replaces), so the stats-free Peek guards the
		// loop and the fused path's miss-freeness is asserted directly.
		before := b.Stats()
		if _, _, elig, taken := b.DequeueBelowSeq(now, 0); taken || (b.Stats() != before && !elig) {
			t.Fatalf("pure peek at now=%v mutated state or charged stats", now)
		}
		for {
			if _, ok := a.Peek(now); !ok {
				break
			}
			ea, oka := a.Dequeue(now)
			eb, _, _, okb := b.DequeueBelowSeq(now, ^uint64(0))
			if oka != okb || (oka && ea != eb) {
				t.Fatalf("divergence at now=%v: %v/%+v vs %v/%+v", now, oka, ea, okb, eb)
			}
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("hardware counters diverge:\n dequeue:  %+v\n belowseq: %+v", a.Stats(), b.Stats())
	}
	miss := b.Stats()
	if _, _, _, taken := b.DequeueBelowSeq(0, ^uint64(0)); taken || b.Stats() != miss {
		t.Fatal("fused miss extracted or charged stats")
	}
}

// TestDequeueRangeBelowSeqStatsParity is the ranged analogue.
func TestDequeueRangeBelowSeqStatsParity(t *testing.T) {
	build := func() *core.List {
		l := core.NewWithSublistSize(256, 6)
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 200; i++ {
			e := core.Entry{ID: uint32(rng.Intn(400) + 1), Rank: uint64(rng.Intn(50)), SendTime: clock.Time(rng.Intn(8))}
			_ = l.EnqueueSeq(e, uint64(i+1)) // duplicates rejected on both sides alike
		}
		return l
	}
	a, b := build(), build()
	const lo, hi = 50, 250
	for now := clock.Time(0); now < 10; now++ {
		for {
			if _, ok := a.PeekRange(now, lo, hi); !ok {
				break
			}
			ea, oka := a.DequeueRange(now, lo, hi)
			eb, _, _, okb := b.DequeueRangeBelowSeq(now, lo, hi, ^uint64(0))
			if oka != okb || (oka && ea != eb) {
				t.Fatalf("divergence at now=%v: %v/%+v vs %v/%+v", now, oka, ea, okb, eb)
			}
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("hardware counters diverge:\n range:    %+v\n belowseq: %+v", a.Stats(), b.Stats())
	}
	miss := b.Stats()
	if _, _, _, taken := b.DequeueRangeBelowSeq(0, lo, hi, ^uint64(0)); taken || b.Stats() != miss {
		t.Fatal("fused ranged miss extracted or charged stats")
	}
}

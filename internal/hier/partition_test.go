package hier

import (
	"errors"
	"math"
	"testing"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/core"
	"pieo/internal/faultinject"
)

func newTestPartitioner() *Partitioner {
	return NewPartitioner(backend.NewCoreList(4096))
}

func mustAlloc(t *testing.T, pt *Partitioner, capacity int, wall bool) *Partition {
	t.Helper()
	p, err := pt.Alloc(capacity, wall)
	if err != nil {
		t.Fatalf("alloc %d: %v", capacity, err)
	}
	return p
}

// TestPartitionAllocErrors covers the allocator's refusal paths: bad
// capacity and ID-space exhaustion.
func TestPartitionAllocErrors(t *testing.T) {
	pt := newTestPartitioner()
	if _, err := pt.Alloc(0, false); err == nil {
		t.Fatal("alloc(0) succeeded")
	}
	if _, err := pt.Alloc(-3, false); err == nil {
		t.Fatal("alloc(-3) succeeded")
	}
	// Two 2^31-wide bands exhaust [0, 2^32); the third must fail.
	mustAlloc(t, pt, 1<<31, false)
	mustAlloc(t, pt, 1<<31, false)
	if _, err := pt.Alloc(1, false); err == nil {
		t.Fatal("alloc beyond 2^32 succeeded")
	}
	if err := pt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionWakeSummaries covers the wall/virtual split of the
// per-range eligibility summary: wall partitions answer MinSendTime and
// NextWakeAfter exactly, virtual partitions decline.
func TestPartitionWakeSummaries(t *testing.T) {
	pt := newTestPartitioner()
	wallP := mustAlloc(t, pt, 5000, true) // also exercises the 4096-slot wheel cap
	virtP := mustAlloc(t, pt, 8, false)
	if !wallP.Wall() || virtP.Wall() {
		t.Fatalf("Wall() flags wrong: %v %v", wallP.Wall(), virtP.Wall())
	}
	if _, ok := virtP.MinSendTime(); ok {
		t.Fatal("virtual partition reported a MinSendTime")
	}
	if got := virtP.NextWakeAfter(0); got != clock.Never {
		t.Fatalf("virtual partition NextWakeAfter = %d, want Never", got)
	}
	if _, ok := wallP.MinSendTime(); ok {
		t.Fatal("empty wall partition reported a MinSendTime")
	}

	for i, st := range []clock.Time{900, 300, 600} {
		id, _ := wallP.NextID()
		if err := pt.Enqueue(wallP, core.Entry{ID: id, Rank: uint64(i), SendTime: st}); err != nil {
			t.Fatal(err)
		}
	}
	if got, ok := wallP.MinSendTime(); !ok || got != 300 {
		t.Fatalf("MinSendTime = %d,%v want 300", got, ok)
	}
	if got := wallP.NextWakeAfter(300); got != 600 {
		t.Fatalf("NextWakeAfter(300) = %d, want 600", got)
	}
	if got := wallP.NextWakeAfter(900); got != clock.Never {
		t.Fatalf("NextWakeAfter(900) = %d, want Never", got)
	}
	if ps := pt.Partitions(); len(ps) != 2 || ps[0] != wallP || ps[1] != virtP {
		t.Fatalf("Partitions() = %v", ps)
	}
}

// TestPartitionEnqueueErrors covers the admission refusals: out-of-band
// IDs, duplicates, and a full shared backend.
func TestPartitionEnqueueErrors(t *testing.T) {
	pt := NewPartitioner(backend.NewCoreList(1))
	p := mustAlloc(t, pt, 4, false)
	if err := pt.Enqueue(p, core.Entry{ID: p.Hi() + 1}); err == nil {
		t.Fatal("out-of-band enqueue succeeded")
	}
	id, _ := p.NextID()
	if err := pt.Enqueue(p, core.Entry{ID: id, Rank: 1}); err != nil {
		t.Fatal(err)
	}
	if err := pt.Enqueue(p, core.Entry{ID: id, Rank: 2}); !errors.Is(err, core.ErrDuplicate) {
		t.Fatalf("duplicate enqueue: %v", err)
	}
	id2, _ := p.NextID()
	if err := pt.Enqueue(p, core.Entry{ID: id2, Rank: 3}); !errors.Is(err, core.ErrFull) {
		t.Fatalf("over-capacity enqueue: %v", err)
	}
	// The failed admissions must not be tracked.
	if p.Len() != 1 {
		t.Fatalf("partition tracks %d residents, want 1", p.Len())
	}
	if _, ok := pt.DequeueID(p, id2); ok {
		t.Fatal("point dequeue hit an element that was never admitted")
	}
}

// TestPartitionNextIDExhaustion covers the band-full NextID path.
func TestPartitionNextIDExhaustion(t *testing.T) {
	pt := newTestPartitioner()
	p := mustAlloc(t, pt, 2, false)
	for i := 0; i < p.Cap(); i++ {
		if _, ok := p.NextID(); !ok {
			t.Fatalf("NextID refused with %d of %d handed out", i, p.Cap())
		}
	}
	if _, ok := p.NextID(); ok {
		t.Fatal("NextID handed out an ID beyond the band")
	}
}

// TestPartitionUpdateRankResync covers UpdateRank's failure handling:
// non-resident IDs miss cleanly, and when the capability fallback drops
// the element mid-flight the partition resyncs its resident set instead
// of tracking a ghost.
func TestPartitionUpdateRankResync(t *testing.T) {
	pt := newTestPartitioner()
	p := mustAlloc(t, pt, 8, true)
	if ok, err := pt.UpdateRank(p, p.Lo(), 1, 2); ok || err != nil {
		t.Fatalf("non-resident UpdateRank = %v, %v", ok, err)
	}

	// A wrapped backend without the RankUpdater capability forces the
	// dequeue+enqueue fallback; the injected error on the re-enqueue
	// loses the element, which UpdateRank must notice and untrack.
	inj := faultinject.NewInjector(faultinject.Plan{Seed: 1, ErrorEvery: 1})
	inj.Disarm()
	ptf := NewPartitioner(faultinject.Wrap(backend.NewCoreList(64), inj))
	pf := mustAlloc(t, ptf, 8, true)
	id, _ := pf.NextID()
	if err := ptf.Enqueue(pf, core.Entry{ID: id, Rank: 5, SendTime: 7}); err != nil {
		t.Fatal(err)
	}
	inj.Arm()
	ok, err := ptf.UpdateRank(pf, id, 9, 11)
	inj.Disarm()
	if err == nil && ok {
		// The injector may have hit the dequeue instead; either way the
		// element must not be double-tracked.
		t.Skip("injection missed the enqueue leg")
	}
	if pf.Len() != ptf.Backend().Len() {
		t.Fatalf("partition tracks %d, backend holds %d after failed update", pf.Len(), ptf.Backend().Len())
	}
	if err := ptf.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionSplitNarrowAndUsed covers Split's refusal on a width-1
// band and the used-counter redistribution when the cursor is past the
// midpoint.
func TestPartitionSplitNarrowAndUsed(t *testing.T) {
	pt := newTestPartitioner()
	p1 := mustAlloc(t, pt, 1, false)
	if _, err := pt.Split(p1); err == nil {
		t.Fatal("split of width-1 band succeeded")
	}

	p := mustAlloc(t, pt, 8, true)
	for i := 0; i < 6; i++ { // cursor past the midpoint (4)
		id, _ := p.NextID()
		if err := pt.Enqueue(p, core.Entry{ID: id, Rank: uint64(i), SendTime: clock.Time(100 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	q, err := pt.Split(p)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 4 || q.Len() != 2 {
		t.Fatalf("split residents %d/%d, want 4/2", p.Len(), q.Len())
	}
	// Both halves may hand out their remaining IDs without collision.
	if _, ok := p.NextID(); ok {
		t.Fatal("lower half handed out an ID past its cursor")
	}
	for {
		id, ok := q.NextID()
		if !ok {
			break
		}
		if err := pt.Enqueue(q, core.Entry{ID: id, Rank: 50}); err != nil {
			t.Fatal(err)
		}
	}
	if err := pt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The wheels migrated: each half answers for exactly its residents.
	if got, ok := q.MinSendTime(); !ok || got != 0 {
		// q inherited send_times 104,105 plus fresh rank-50 entries at 0.
		t.Fatalf("upper half MinSendTime = %d,%v", got, ok)
	}
	if got, ok := p.MinSendTime(); !ok || got != 100 {
		t.Fatalf("lower half MinSendTime = %d,%v want 100", got, ok)
	}
}

// TestPartitionRetiredPanics covers the use-after-retire guard.
func TestPartitionRetiredPanics(t *testing.T) {
	pt := newTestPartitioner()
	p := mustAlloc(t, pt, 4, true)
	id, _ := p.NextID()
	if err := pt.Enqueue(p, core.Entry{ID: id, Rank: 1}); err != nil {
		t.Fatal(err)
	}
	pt.Retire(p)
	if pt.Backend().Len() != 0 {
		t.Fatalf("retire left %d elements in the backend", pt.Backend().Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("enqueue on retired partition did not panic")
		}
	}()
	_ = pt.Enqueue(p, core.Entry{ID: id})
}

// TestPartitionGrowInPlaceAndRelocate covers both Grow paths and the
// no-op when the band is already wide enough.
func TestPartitionGrowInPlaceAndRelocate(t *testing.T) {
	pt := newTestPartitioner()
	p := mustAlloc(t, pt, 4, true)
	for i := 0; i < 3; i++ {
		id, _ := p.NextID()
		if err := pt.Enqueue(p, core.Entry{ID: id, Rank: uint64(10 - i), SendTime: clock.Time(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if remap, err := pt.Grow(p, 2); err != nil || remap != nil {
		t.Fatalf("shrinking grow = %v, %v", remap, err)
	}
	// Nothing above p yet: in-place growth, no remap.
	if remap, err := pt.Grow(p, 16); err != nil || remap != nil {
		t.Fatalf("in-place grow = %v, %v", remap, err)
	} else if p.Cap() != 16 {
		t.Fatalf("cap %d after in-place grow, want 16", p.Cap())
	}
	// A neighbor directly above forces relocation.
	blocker := mustAlloc(t, pt, 16, false)
	if blocker.Lo() != p.Hi()+1 {
		t.Fatalf("blocker not adjacent: %d vs %d", blocker.Lo(), p.Hi())
	}
	remap, err := pt.Grow(p, 64)
	if err != nil {
		t.Fatal(err)
	}
	if remap == nil || len(remap) != 3 {
		t.Fatalf("relocating grow remap = %v", remap)
	}
	if err := pt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Dequeue order survived the move: ranks were 10, 9, 8.
	for want := uint64(8); want <= 10; want++ {
		e, ok := pt.Dequeue(p, clock.Never)
		if !ok || e.Rank != want {
			t.Fatalf("post-relocation dequeue = %+v,%v want rank %d", e, ok, want)
		}
	}
	if err := pt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionReleaseCoalescing drives alloc/retire patterns that force
// both coalescing directions in the free list, including at the 2^32
// boundary.
func TestPartitionReleaseCoalescing(t *testing.T) {
	pt := newTestPartitioner()
	var ps []*Partition
	for i := 0; i < 8; i++ {
		ps = append(ps, mustAlloc(t, pt, 16, false))
	}
	// Retire in an order that exercises left-, right-, and two-sided
	// coalescing: middle, its right neighbor, its left neighbor, rest.
	for _, i := range []int{4, 5, 3, 0, 7, 1, 6, 2} {
		pt.Retire(ps[i])
		if err := pt.CheckInvariants(); err != nil {
			t.Fatalf("after retiring #%d: %v", i, err)
		}
	}
	if len(pt.free) != 1 || pt.free[0].lo != 0 || pt.free[0].hi != math.MaxUint32 {
		t.Fatalf("free list did not re-coalesce: %v", pt.free)
	}
}

// TestPartitionRankFloor checks the rank floor against a model through
// enqueues, rank updates that move residents both up and down, ranged and
// point dequeues, on a seeking backend and on one that falls back to the
// plain ranged dequeue. The floor is the smallest resident rank, or
// math.MaxUint64 for an empty band, after every operation.
func TestPartitionRankFloor(t *testing.T) {
	for _, tc := range []struct {
		name string
		be   backend.Backend
		seek bool
	}{
		{"core", backend.NewCoreList(256), true},
		{"no-seek", faultinject.Wrap(backend.NewCoreList(256), faultinject.NewInjector(faultinject.Plan{Seed: 1})), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pt := NewPartitioner(tc.be)
			if got := pt.seek != nil; got != tc.seek {
				t.Fatalf("partitioner seeks = %v, want %v", got, tc.seek)
			}
			parts := []*Partition{mustAlloc(t, pt, 32, true), mustAlloc(t, pt, 32, false)}
			model := []map[uint32]uint64{{}, {}}
			rng := fuzzLCG(5)
			for op := 0; op < 3000; op++ {
				k := int(rng.next() % 2)
				p, m := parts[k], model[k]
				switch rng.next() % 4 {
				case 0:
					id := p.Lo() + uint32(rng.next()%32)
					if m[id] != 0 {
						continue
					}
					rank := 1 + rng.next()%50
					if err := pt.Enqueue(p, core.Entry{ID: id, Rank: rank, SendTime: clock.Time(rng.next() % 8)}); err != nil {
						t.Fatalf("op %d: %v", op, err)
					}
					m[id] = rank
				case 1:
					for id := range m {
						rank := 1 + rng.next()%50
						if ok, err := pt.UpdateRank(p, id, rank, clock.Time(rng.next()%8)); !ok || err != nil {
							t.Fatalf("op %d: UpdateRank(%d) = %v, %v", op, id, ok, err)
						}
						m[id] = rank
						break
					}
				case 2:
					if e, ok := pt.Dequeue(p, clock.Time(rng.next()%10)); ok {
						delete(m, e.ID)
					}
				case 3:
					for id := range m {
						if _, ok := pt.DequeueID(p, id); !ok {
							t.Fatalf("op %d: DequeueID(%d) missed", op, id)
						}
						delete(m, id)
						break
					}
				}
				for i, q := range parts {
					want := uint64(math.MaxUint64)
					for _, r := range model[i] {
						want = min(want, r)
					}
					if got := q.minRank(); got != want {
						t.Fatalf("op %d: partition %d floor %d, model minimum %d", op, i, got, want)
					}
				}
				if err := pt.CheckInvariants(); err != nil {
					t.Fatalf("op %d: %v", op, err)
				}
			}
		})
	}
}

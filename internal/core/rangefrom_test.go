package core_test

import (
	"math"
	"math/rand"
	"testing"

	"pieo/internal/clock"
	"pieo/internal/core"
)

// TestDequeueRangeFromMatchesDequeueRange drives two identical lists
// through the same seeded traffic. One extracts each band with
// DequeueRange; the other with DequeueRangeFrom at the band's exact
// minimum rank (sometimes a lower floor, which the contract also allows,
// and math.MaxUint64 for an empty band). Every operation must return the
// same entry and leave identical Stats: the floor only moves where the
// software starts scanning, never what the hardware model charges.
func TestDequeueRangeFromMatchesDequeueRange(t *testing.T) {
	for _, tc := range []struct {
		name  string
		wheel bool
		seed  int64
	}{
		{"wheel", true, 1},
		{"summary-scan", false, 2},
		{"wheel-seed3", true, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const (
				bands = 8
				width = 64
				capN  = 384
			)
			// Small sublists so a band's residents spread over many
			// positions and runs of equal ranks cross sublist boundaries.
			a := core.NewWithSublistSize(capN, 5)
			b := core.NewWithSublistSize(capN, 5)
			if !tc.wheel {
				a.DisableEligIndex()
				b.DisableEligIndex()
			}
			rng := rand.New(rand.NewSource(tc.seed))
			model := make(map[uint32]core.Entry)

			floorOf := func(band int) uint64 {
				floor := uint64(math.MaxUint64)
				for id, e := range model {
					if int(id)/width == band && e.Rank < floor {
						floor = e.Rank
					}
				}
				if floor != math.MaxUint64 && rng.Intn(4) == 0 {
					floor = uint64(rng.Int63n(int64(floor) + 1))
				}
				return floor
			}
			ranged := func(op int, band int, now clock.Time) bool {
				lo, hi := uint32(band*width), uint32(band*width+width-1)
				floor := floorOf(band)
				ea, oka := a.DequeueRange(now, lo, hi)
				eb, okb := b.DequeueRangeFrom(now, lo, hi, floor)
				if ea != eb || oka != okb {
					t.Fatalf("op %d band %d now %d floor %d: DequeueRange = %v,%v, DequeueRangeFrom = %v,%v",
						op, band, now, floor, ea, oka, eb, okb)
				}
				if oka {
					delete(model, ea.ID)
				}
				return oka
			}
			check := func(op int) {
				if sa, sb := a.Stats(), b.Stats(); sa != sb {
					t.Fatalf("op %d: stats diverged:\nDequeueRange     %+v\nDequeueRangeFrom %+v", op, sa, sb)
				}
				if a.Len() != len(model) || b.Len() != len(model) {
					t.Fatalf("op %d: lens %d/%d, model %d", op, a.Len(), b.Len(), len(model))
				}
			}

			for op := 0; op < 20000; op++ {
				switch r := rng.Intn(20); {
				case r < 10: // enqueue
					if len(model) >= capN {
						continue
					}
					id := uint32(rng.Intn(bands * width))
					if _, dup := model[id]; dup {
						continue
					}
					band := int(id) / width
					// Bands overlap in rank, so a band's floor lands in
					// the middle of other bands' sublists.
					e := core.Entry{ID: id, Rank: uint64(band*6 + rng.Intn(24)), SendTime: clock.Time(rng.Intn(64))}
					if rng.Intn(16) == 0 {
						e.SendTime = clock.Never
					}
					errA, errB := a.Enqueue(e), b.Enqueue(e)
					if errA != nil || errB != nil {
						t.Fatalf("op %d: enqueue %v: %v / %v", op, e, errA, errB)
					}
					model[id] = e
				case r < 17: // ranged dequeue, empty bands included
					ranged(op, rng.Intn(bands), clock.Time(rng.Intn(80)))
				case r < 19: // point dequeue of a resident
					for id := range model {
						ea, oka := a.DequeueFlow(id)
						eb, okb := b.DequeueFlow(id)
						if ea != eb || !oka || !okb {
							t.Fatalf("op %d: DequeueFlow(%d) = %v,%v / %v,%v", op, id, ea, oka, eb, okb)
						}
						delete(model, id)
						break
					}
				default: // unranged dequeue
					now := clock.Time(rng.Intn(80))
					ea, oka := a.Dequeue(now)
					eb, okb := b.Dequeue(now)
					if ea != eb || oka != okb {
						t.Fatalf("op %d: Dequeue = %v,%v / %v,%v", op, ea, oka, eb, okb)
					}
					if oka {
						delete(model, ea.ID)
					}
				}
				check(op)
				if op%512 == 0 {
					if err := b.CheckInvariants(); err != nil {
						t.Fatalf("op %d: %v", op, err)
					}
				}
			}
			// Drain every band through the floor path, finishing with
			// empty-band calls at floor math.MaxUint64.
			for band := 0; band < bands; band++ {
				for ranged(-1, band, clock.Never) {
					check(-1)
				}
				check(-1)
			}
			if len(model) != 0 {
				t.Fatalf("%d residents left after draining every band", len(model))
			}
		})
	}
}

// TestDequeueRangeFromEqualRankRun pins the tie case of the floor start:
// a band whose only resident shares its rank with a run of other bands'
// elements spanning several sublists must be found when the floor equals
// that rank, even though the resident sits in the sublist before the
// first one whose smallest rank reaches the floor.
func TestDequeueRangeFromEqualRankRun(t *testing.T) {
	l := core.NewWithSublistSize(64, 4)
	for i := uint32(0); i < 6; i++ {
		if err := l.Enqueue(core.Entry{ID: 100 + i, Rank: 1, SendTime: clock.Always}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Enqueue(core.Entry{ID: 7, Rank: 5, SendTime: clock.Always}); err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 8; i++ {
		if err := l.Enqueue(core.Entry{ID: 200 + i, Rank: 5, SendTime: clock.Always}); err != nil {
			t.Fatal(err)
		}
	}
	e, ok := l.DequeueRangeFrom(0, 0, 99, 5)
	if !ok || e.ID != 7 {
		t.Fatalf("DequeueRangeFrom(floor 5) = %v,%v, want id 7", e, ok)
	}
	if e, ok := l.DequeueRangeFrom(0, 0, 99, math.MaxUint64); ok {
		t.Fatalf("empty band returned %v", e)
	}
}

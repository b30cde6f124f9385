package faultinject_test

import (
	"testing"

	"pieo/internal/clock"
	"pieo/internal/core"
	"pieo/internal/faultinject"
	"pieo/internal/shard"
)

// FuzzChaosPlan fuzzes the fault schedule itself: whatever periods the
// fuzzer picks for panics, injected errors, and capacity squeezes, a
// bounded mixed workload over the sharded engine must end with every
// shard recovered, invariants intact, and exact conservation — accepted
// equals delivered plus queued plus declared lost. The corpus seeds cover
// the fault-free plan, a dense all-fault plan, and a sparse one.
func FuzzChaosPlan(f *testing.F) {
	f.Add(uint64(1), uint16(13), uint16(7), uint16(11), uint16(900))
	f.Add(uint64(42), uint16(0), uint16(0), uint16(0), uint16(500))
	f.Add(uint64(7), uint16(97), uint16(3), uint16(5), uint16(1500))
	f.Fuzz(func(t *testing.T, seed uint64, panicEvery, errEvery, squeezeEvery, opsRaw uint16) {
		ops := int(opsRaw)%2000 + 200
		// Panics go through the shard hook only: a wrapper-level panic
		// would unwind the driver, which is API misuse, not a fault the
		// engine is supposed to absorb.
		hookInj := faultinject.NewInjector(faultinject.Plan{Seed: seed, PanicEvery: uint64(panicEvery)})
		wrapInj := faultinject.NewInjector(faultinject.Plan{
			Seed: seed ^ 0x9e3779b97f4a7c15, ErrorEvery: uint64(errEvery), SqueezeEvery: uint64(squeezeEvery),
		})
		inner := shard.New(256, 4)
		inner.SetFaultHook(hookInj.ShardHook())
		b := faultinject.Wrap(inner, wrapInj)

		rng := lcg(seed | 1)
		accepted := make(map[uint32]bool)
		var delivered []core.Entry
		nextID := uint32(1)
		for op := 0; op < ops; op++ {
			switch rng.next() % 4 {
			case 0, 1:
				id := nextID
				nextID++
				ent := core.Entry{ID: id, Rank: rng.next() % 100, SendTime: clock.Time(rng.next() % 8)}
				if err := b.Enqueue(ent); err == nil {
					accepted[id] = true
				}
			case 2:
				if ent, ok := b.Dequeue(clock.Time(rng.next() % 16)); ok {
					delivered = append(delivered, ent)
				}
			case 3:
				if ent, ok := b.DequeueFlow(uint32(rng.next()%uint64(nextID)) + 1); ok {
					delivered = append(delivered, ent)
				}
			}
		}

		hookInj.Disarm()
		wrapInj.Disarm()
		recoverAll(t, inner)
		if err := b.CheckInvariants(); err != nil {
			t.Fatalf("post-recovery invariants: %v", err)
		}
		auditConservation(t, inner, accepted, delivered)
		drainAll(t, inner)
		if err := b.CheckInvariants(); err != nil {
			t.Fatalf("post-drain invariants: %v", err)
		}
	})
}

package faultinject_test

import (
	"fmt"
	"math/rand"
	"testing"

	"pieo/internal/algos"
	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/faultinject"
	"pieo/internal/flowq"
	"pieo/internal/hier"
	"pieo/internal/sched"
	"pieo/internal/shard"
)

// TestSchedulerUnderChaos drives a scheduler over a fault-injecting view
// of the sharded engine: injected enqueue errors and capacity squeezes
// hit the wrapper while induced panics hit the shard critical sections
// underneath. The scheduler must never panic, must count every fault it
// absorbs, and must conserve packets exactly — every arrival is
// eventually transmitted or appears in DroppedPackets. The table covers
// the default post-dequeue and the real §4 post-dequeue hooks, which
// re-enqueue from inside the dequeue path.
func TestSchedulerUnderChaos(t *testing.T) {
	for _, tc := range []struct {
		name string
		prog *sched.Program
	}{
		{"chaos-fifo", &sched.Program{Name: "chaos-fifo", Model: sched.OutputTriggered}},
		{"wf2q", algos.WF2Q()},
		{"wfq", algos.WFQ()},
		{"drr", algos.DRR()},
		{"sfq", algos.SFQ(8)},
	} {
		t.Run(tc.name, func(t *testing.T) { runSchedulerChaos(t, tc.prog) })
	}
}

func runSchedulerChaos(t *testing.T, prog *sched.Program) {
	// Two injectors: the wrapper one must not carry a panic schedule
	// (wrapper panics would unwind the scheduler itself, which is API
	// misuse, not a fault to absorb); the hook one panics inside
	// shard-protected sections where quarantine catches them.
	wrapInj := faultinject.NewInjector(faultinject.Plan{Seed: 3, ErrorEvery: 41, SqueezeEvery: 59, SqueezeLen: 2})
	hookInj := faultinject.NewInjector(faultinject.Plan{Seed: 17, PanicEvery: 149})

	inner := shard.New(1024, 4)
	inner.SetFaultHook(hookInj.ShardHook())
	b := faultinject.Wrap(inner, wrapInj)

	s := sched.NewOn(prog, b, 10)
	s.Admission = backend.AdmitPushOut

	const flows = 64
	rng := lcg(21)
	var arrived, transmitted uint64
	now := clock.Time(0)
	for i := 0; i < 30000; i++ {
		now++
		switch rng.next() % 3 {
		case 0, 1:
			id := flowq.FlowID(rng.next()%flows + 1)
			s.OnArrival(now, flowq.Packet{Flow: id, Size: 64, Arrival: now})
			arrived++
		case 2:
			if _, ok := s.NextPacket(now); ok {
				transmitted++
			}
		}
	}

	// Storm over: disarm, force shard recovery, then run the
	// control-plane repair sweep — a flow whose list entry was declared
	// lost by an abandoned rebuild is stalled until something reinserts
	// it, and EnqueueFlow is idempotent for flows already present.
	wrapInj.Disarm()
	hookInj.Disarm()
	recoverAll(t, inner)
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("post-storm invariants: %v", err)
	}
	for id := flowq.FlowID(1); id <= flows; id++ {
		s.EnqueueFlow(now, s.Flow(id))
	}
	for {
		now++
		if _, ok := s.NextPacket(now); !ok {
			break
		}
		transmitted++
	}

	if got := s.Backlog(); got != 0 {
		t.Fatalf("backlog %d after full drain (last fault: %v)", got, s.LastFault())
	}
	fs := s.FaultStats()
	if transmitted+fs.DroppedPackets != arrived {
		t.Fatalf("conservation violated: %d arrived, %d transmitted + %d declared dropped",
			arrived, transmitted, fs.DroppedPackets)
	}
	if fs.EnqueueFailures == 0 {
		t.Fatalf("injected enqueue errors never reached the scheduler: %+v (injector %+v)", fs, wrapInj.Stats())
	}
	if fs.AdmissionRejects+fs.AdmissionTailDrops+fs.AdmissionEvictions == 0 {
		t.Fatalf("capacity squeezes never exercised admission: %+v (injector %+v)", fs, wrapInj.Stats())
	}
	if inner.FaultStats().Quarantines == 0 {
		t.Fatalf("shard panic schedule never fired: %+v", hookInj.Stats())
	}
	t.Logf("chaos sched %s: arrived=%d transmitted=%d faults=%+v shard=%+v",
		prog.Name, arrived, transmitted, fs, inner.FaultStats())
}

// TestHierarchyUnderChaos drives a hierarchy whose physical PIEO fails
// every 7th mutation and squeezes its capacity, in both the per-level
// and the partitioned (§4.2) layout. A child that cannot enter its
// parent's logical PIEO must have its whole backlog shed as declared
// drops: after the injector is disarmed the drain must empty every leaf
// queue and every physical list, with arrived = sent + DroppedPackets.
func TestHierarchyUnderChaos(t *testing.T) {
	topologies := []struct {
		name  string
		root  func() *hier.Policy
		build func(h *hier.Hierarchy) int // returns the flow count
	}{
		{"rr-5x4", hier.RoundRobin, func(h *hier.Hierarchy) int {
			id := flowq.FlowID(0)
			for v := 0; v < 5; v++ {
				vm := h.Root().AddNode(fmt.Sprintf("vm%d", v), hier.RoundRobin())
				for f := 0; f < 4; f++ {
					vm.AddFlow(id)
					id++
				}
			}
			return int(id)
		}},
		// Three levels, so a failed insert sheds a subtree whose own
		// children are interior nodes.
		{"wf2q-drr-rr-3x2x3", hier.WF2Q, func(h *hier.Hierarchy) int {
			id := flowq.FlowID(0)
			for g := 0; g < 3; g++ {
				grp := h.Root().AddNode(fmt.Sprintf("g%d", g), hier.DRR())
				for v := 0; v < 2; v++ {
					vm := grp.AddNode(fmt.Sprintf("g%dvm%d", g, v), hier.RoundRobin())
					for f := 0; f < 3; f++ {
						vm.AddFlow(id)
						id++
					}
				}
			}
			return int(id)
		}},
	}
	for _, topo := range topologies {
		for _, partitioned := range []bool{false, true} {
			name := topo.name + "/per-level"
			if partitioned {
				name = topo.name + "/partitioned"
			}
			t.Run(name, func(t *testing.T) {
				inj := faultinject.NewInjector(faultinject.Plan{Seed: 42, ErrorEvery: 7, SqueezeEvery: 31, SqueezeLen: 2})
				wrap := func(n int) backend.Backend { return faultinject.Wrap(backend.NewCoreList(n), inj) }
				h := hier.NewOn(40, topo.root(), wrap)
				if partitioned {
					h = hier.NewPartitionedOn(40, topo.root(), wrap)
				}
				flows := topo.build(h)
				h.Build()
				runHierarchyChaos(t, h, flows, inj)
			})
		}
	}
}

func runHierarchyChaos(t *testing.T, h *hier.Hierarchy, flows int, inj *faultinject.Injector) {
	rng := rand.New(rand.NewSource(9))
	var arrived, sent uint64
	now := clock.Time(0)
	for i := 0; i < 2000; i++ {
		now += clock.Time(rng.Intn(50))
		if rng.Intn(2) == 0 {
			f := flowq.FlowID(rng.Intn(flows))
			h.OnArrival(now, flowq.Packet{Flow: f, Size: 1500, Seq: uint64(i)})
			arrived++
		} else if _, ok := h.NextPacket(now); ok {
			sent++
		}
	}
	inj.Disarm()
	for {
		now += 300
		if _, ok := h.NextPacket(now); !ok {
			break
		}
		sent++
	}

	fs := h.FaultStats()
	if got := h.Backlog(); got != 0 {
		t.Fatalf("backlog %d stranded after drain: arrived %d, sent %d, dropped %d (last fault: %v)",
			got, arrived, sent, fs.DroppedPackets, h.LastFault())
	}
	if sent+fs.DroppedPackets != arrived {
		t.Fatalf("conservation violated: %d arrived, %d sent + %d declared dropped", arrived, sent, fs.DroppedPackets)
	}
	for d := 0; d < h.Levels(); d++ {
		if n := h.Level(d).Len(); n != 0 {
			t.Fatalf("level %d holds %d entries with no backlog left", d, n)
		}
		if err := backend.CheckInvariants(h.Level(d)); err != nil {
			t.Fatalf("level %d: %v", d, err)
		}
	}
	if pt := h.Partitioner(); pt != nil {
		if err := pt.CheckInvariants(); err != nil {
			t.Fatalf("partitioner invariants: %v", err)
		}
	}
	var sum backend.FaultStats
	for _, n := range h.Nodes() {
		sum.Add(n.FaultStats())
	}
	if sum != fs {
		t.Fatalf("per-node faults %+v do not sum to hierarchy faults %+v", sum, fs)
	}
	if fs.EnqueueFailures == 0 || fs.DroppedPackets == 0 {
		t.Fatalf("injector %+v never forced a shed: %+v", inj.Stats(), fs)
	}
	t.Logf("chaos hier: arrived=%d sent=%d faults=%+v", arrived, sent, fs)
}

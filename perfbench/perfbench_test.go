package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"pieo/internal/backend"
	"pieo/internal/flowq"
	"pieo/internal/shard"
)

var (
	nicTiny       = nicConfig{flows: 64, depth: 4, linkGbps: 100, refPkts: 512, jainPkts: 4096}
	hierTiny      = hierConfig{vms: 4, flowsPerVM: 8, linkGbps: 40, sampledGbps: 8, gatePkts: 1024}
	contendedTiny = contendedConfig{workers: 2, capacity: 1 << 12, shards: 4, prefill: 256, replayOps: 512}
	tinyRun       = runOpts{seed: 3, seconds: 0.3}
)

// checkOutcome fails t unless every gate passed and every metric the
// mode reports is present.
func checkOutcome(t *testing.T, out *outcome, trace bool) {
	t.Helper()
	for _, g := range out.gates {
		if g.violations != 0 {
			t.Errorf("gate %s: %d violations: %v", g.name, g.violations, g.details)
		}
	}
	if out.failed != 0 || out.attempted == 0 {
		t.Errorf("attempted %d, failed %d", out.attempted, out.failed)
	}
	if trace {
		if out.trace == nil || out.traceUnits == 0 {
			t.Errorf("traced run recorded no trace")
		}
		return
	}
	for _, d := range endToEnd {
		if v, ok := out.metrics[d.name]; !ok || v <= 0 {
			t.Errorf("%s = %v, %v; want a positive value", d.name, v, ok)
		}
	}
}

func TestWorkloadsTiny(t *testing.T) {
	for _, trace := range []bool{false, true} {
		o := tinyRun
		o.trace = trace
		nic, err := runNic(o, nicTiny)
		if err != nil {
			t.Fatal(err)
		}
		checkOutcome(t, nic, trace)
		h, err := runHier(o, hierTiny)
		if err != nil {
			t.Fatal(err)
		}
		checkOutcome(t, h, trace)
		c, err := runContended(o, contendedTiny)
		if err != nil {
			t.Fatal(err)
		}
		checkOutcome(t, c, trace)
		if trace {
			for name, out := range map[string]*outcome{"nic": nic, "hier": h, "contended": c} {
				for _, m := range []string{"op_p50_ns", "op_p99_ns", "core.enqueue_ns_p50", "core.hw_cycles_per_op", "trace.overhead_ns_per_op"} {
					if _, ok := out.metrics[m]; !ok {
						t.Errorf("%s: traced run lacks %s", name, m)
					}
				}
			}
			for _, m := range []string{"wire.decode_ns", "sched.next_packet.self_ns", "core.dequeue_ns_p99"} {
				if nic.metrics[m] <= 0 {
					t.Errorf("nic: %s = %v", m, nic.metrics[m])
				}
			}
			for _, m := range []string{"hier.next_packet.self_ns", "core.dequeue_range_ns", "hier.rate_err_pct"} {
				if h.metrics[m] <= 0 {
					t.Errorf("hier: %s = %v", m, h.metrics[m])
				}
			}
			for _, m := range []string{"shard.enqueue.self_ns", "shard.dequeue.self_ns", "shard.backend_calls_per_dequeue"} {
				if c.metrics[m] <= 0 {
					t.Errorf("contended: %s = %v", m, c.metrics[m])
				}
			}
		}
	}
}

// Planted faults: each gate must fail on one.

func TestNicGateFailsOnApproximateBackend(t *testing.T) {
	_, gates, err := nicGates(genNicInputs(nicTiny, 1), "approx")
	if err != nil {
		t.Fatal(err)
	}
	if gates[0].violations == 0 {
		t.Fatalf("gate %q passed on the approx backend", gates[0].name)
	}
}

func TestNicLedgerFailsOnBadFrameAndPhantomPacket(t *testing.T) {
	in := genNicInputs(nicTiny, 1)
	in.frames[5][0] = in.frames[5][0][:20] // truncated: fails decode
	in.frames[5][1] = in.frames[5][1][:20]
	s, err := newNicSystem(in, backend.NewCoreList(nicTiny.flows), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.runUntilSent(256)
	if g := s.ledger(); g.violations == 0 {
		t.Fatal("ledger passed with undecodable frames")
	}

	s, err = newNicSystem(genNicInputs(nicTiny, 1), backend.NewCoreList(nicTiny.flows), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.runUntilSent(256)
	s.sched.OnArrival(s.sim.Now(), flowq.Packet{Flow: 0, Size: 64, Seq: 1 << 40})
	if g := s.ledger(); g.violations == 0 {
		t.Fatal("ledger passed with a packet that was never injected")
	}
}

func TestHierGateFailsOnApproximateBackend(t *testing.T) {
	_, _, gates, err := hierGates(genHierInputs(hierTiny, 1), "approx")
	if err != nil {
		t.Fatal(err)
	}
	if gates[0].violations == 0 {
		t.Fatalf("gate %q passed on the approx backend", gates[0].name)
	}
}

func TestHierLedgerFailsOnPhantomPacket(t *testing.T) {
	in := genHierInputs(hierTiny, 1)
	s, err := newHierSystem(in, partitionedOn(hierTiny.linkGbps, backend.NewCoreList(64)), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.runUntilSent(256)
	if g := s.ledger(); g.violations != 0 {
		t.Fatalf("clean run failed the ledger: %v", g.details)
	}
	s.h.OnArrival(s.sim.Now(), flowq.Packet{Flow: 3, Size: hierMTU, Seq: 1 << 40})
	if g := s.ledger(); g.violations == 0 {
		t.Fatal("ledger passed with a packet that was never injected")
	}
}

func TestTraceDigestGateFailsOnSwappedPair(t *testing.T) {
	want := []uint64{1, 2, 3, 4}
	if g := traceDigestGate("x", []uint64{1, 2, 3, 4}, want); g.violations != 0 {
		t.Fatalf("equal schedules: %v", g.details)
	}
	if g := traceDigestGate("x", []uint64{1, 3, 2, 4}, want); g.violations != 2 {
		t.Fatalf("swapped pair: %d violations, want 2", g.violations)
	}
}

func TestContendedConservationFailsOnLostEntry(t *testing.T) {
	in := &contendedInputs{cfg: contendedTiny, salt: 7}
	eng := shard.New(contendedTiny.capacity, contendedTiny.shards)
	if err := prefill(eng, in); err != nil {
		t.Fatal(err)
	}
	r := newContendedRun(in, eng, nil)
	if g := r.conservation(); g.violations != 0 {
		t.Fatalf("clean engine: %v", g.details)
	}
	if _, ok := eng.DequeueFlow(prefillIDBase + 3); !ok {
		t.Fatal("planted loss: entry not found")
	}
	if g := r.conservation(); g.violations == 0 {
		t.Fatal("conservation passed with an entry removed behind the counters")
	}
}

func TestDrainOrderFailsOnSwappedPair(t *testing.T) {
	in := &contendedInputs{cfg: contendedTiny, salt: 7}
	eng := shard.New(contendedTiny.capacity, contendedTiny.shards)
	if err := prefill(eng, in); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := eng.Enqueue(in.entry(uint32(i*2 + 1))); err != nil {
			t.Fatal(err)
		}
	}
	d := drain(eng)
	if bad := checkDrainOrder(in, d); bad != 0 {
		t.Fatalf("quiescent drain: %d violations", bad)
	}
	i := 0
	for d[i].rank == d[i+1].rank {
		i++
	}
	d[i], d[i+1] = d[i+1], d[i]
	if checkDrainOrder(in, d) == 0 {
		t.Fatal("drain order check passed with a swapped pair")
	}
	// Equal ranks: a worker's later entry ahead of its earlier one.
	same := []drained{{id: 5, rank: 9}, {id: 3, rank: 9}}
	if checkDrainOrder(in, same) == 0 {
		t.Fatal("drain order check passed with a FIFO inversion")
	}
}

// dropsCaps is a wrapper that forwards only the Backend methods.
type dropsCaps struct{ backend.Backend }

func TestCapabilityCheck(t *testing.T) {
	inner := backend.NewCoreList(8)
	if err := checkCaps(inner, dropsCaps{inner}, backendCaps); err == nil || !strings.Contains(err.Error(), "EligIndexed") {
		t.Fatalf("dropped capabilities not reported: %v", err)
	}
	if _, err := newTracedBackend(inner, newTracer(time.Now(), 0)); err != nil {
		t.Fatal(err)
	}
	sess := &shardTraceSession{epoch: time.Now(), owner: func(uint32) int { return -1 }}
	if _, err := tracedEngine(contendedTiny, sess); err != nil {
		t.Fatal(err)
	}
	if len(sess.shards) != contendedTiny.shards {
		t.Fatalf("%d traced shards, want %d", len(sess.shards), contendedTiny.shards)
	}
	if _, ok := any(sess.shards[0]).(backend.EligIndexed); !ok {
		t.Fatal("traced shard dropped EligIndexed")
	}
}

func TestSelfTimeExcludesChildren(t *testing.T) {
	tr := newTracer(time.Now(), 0)
	tr.begin(lSchedNext, 1)
	tr.begin(lCoreDequeue, 0)
	tr.end()
	tr.addRemoteChild(0)
	tr.end()
	a, c := tr.aggs[lSchedNext], tr.aggs[lCoreDequeue]
	if a.calls != 1 || c.calls != 1 || a.self != a.total-c.total {
		t.Fatalf("parent %+v, child %+v", a, c)
	}
	if tr.log[0].parent != tr.log[1].id || tr.log[0].op != 1 {
		t.Fatalf("child span %+v, parent %+v", tr.log[0], tr.log[1])
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and this program in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s not implemented", w.Name)
		}
	}
	for _, c := range []struct {
		declared []struct{ Name, Unit string }
		defs     []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.declared) != len(c.defs) {
			t.Errorf("%d metrics declared, %d reported", len(c.declared), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.declared[i].Name != d.name || c.declared[i].Unit != d.unit {
				t.Errorf("metric %d: declared %v, reported %v", i, c.declared[i], d)
			}
		}
	}
}

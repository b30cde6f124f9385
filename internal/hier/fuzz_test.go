package hier

import (
	"fmt"
	"math/rand"
	"testing"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/flowq"
)

// buildRandomTreeOn grows a random 2-4 level hierarchy with mixed
// policies into a hierarchy produced by mk. The rng fully determines the
// topology, so two calls with identically-seeded generators build the
// same tree — the differential suite's oracle pairing relies on this.
func buildRandomTreeOn(rng *rand.Rand, mk func(rootPolicy *Policy) *Hierarchy) (*Hierarchy, []flowq.FlowID) {
	policies := []func() *Policy{RoundRobin, StrictPriority, WFQ, WF2Q, DRR}
	pick := func() *Policy { return policies[rng.Intn(len(policies))]() }

	h := mk(pick())
	var flows []flowq.FlowID
	nextFlow := flowq.FlowID(0)

	var grow func(n *Node, depth int)
	grow = func(n *Node, depth int) {
		kids := 1 + rng.Intn(3)
		for i := 0; i < kids; i++ {
			if depth >= 3 || rng.Intn(2) == 0 {
				n.AddFlow(nextFlow)
				flows = append(flows, nextFlow)
				nextFlow++
			} else {
				grow(n.AddNode(fmt.Sprintf("n%d", nextFlow), pick()), depth+1)
			}
		}
	}
	grow(h.Root(), 1)
	h.Build()
	// Give every child sane control-plane state for every policy.
	var fix func(n *Node)
	fix = func(n *Node) {
		for _, c := range n.children {
			c.Weight = uint64(1 + rng.Intn(4))
			c.Priority = uint64(rng.Intn(4))
			c.Quantum = 1500 * uint64(1+rng.Intn(2))
			if c.Node != nil {
				fix(c.Node)
			}
		}
	}
	fix(h.Root())
	return h, flows
}

// assertNoFaults fails the test if a fault-free run charged any fault:
// with every failure counted rather than panicked, a clean run must say
// so explicitly.
func assertNoFaults(t *testing.T, ctx string, h *Hierarchy) {
	t.Helper()
	if fs := h.FaultStats(); fs != (backend.FaultStats{}) || h.LastFault() != nil {
		t.Fatalf("%s: unexpected faults %+v (last: %v)", ctx, fs, h.LastFault())
	}
}

// buildRandomTree grows a random 2-4 level hierarchy with mixed policies
// over the default per-level layout.
func buildRandomTree(rng *rand.Rand) (*Hierarchy, []flowq.FlowID) {
	return buildRandomTreeOn(rng, func(p *Policy) *Hierarchy { return New(40, p) })
}

// TestRandomTopologyConservation drives random trees with random
// arrivals and checks packet conservation, per-level list invariants,
// and that every transmitted packet belonged to a real backlogged flow.
func TestRandomTopologyConservation(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h, flows := buildRandomTree(rng)
		if len(flows) == 0 {
			continue
		}
		injected := 0
		for i := 0; i < 200; i++ {
			f := flows[rng.Intn(len(flows))]
			h.OnArrival(clock.Time(i), flowq.Packet{Flow: f, Size: uint32(64 + rng.Intn(1437)), Seq: uint64(i)})
			injected++
		}
		transmitted := 0
		for i := 0; i < injected; i++ {
			_, ok := h.NextPacket(clock.Time(1000 + i))
			if !ok {
				break
			}
			transmitted++
			for d := 0; d < h.Levels(); d++ {
				if err := backend.CheckInvariants(h.Level(d)); err != nil {
					t.Fatalf("seed %d: level %d after %d: %v", seed, d, i, err)
				}
			}
		}
		if transmitted+h.Backlog() != injected {
			t.Fatalf("seed %d: %d transmitted + %d backlog != %d injected",
				seed, transmitted, h.Backlog(), injected)
		}
		// All policies here are work-conserving: everything must drain.
		if h.Backlog() != 0 {
			t.Fatalf("seed %d: %d packets stuck", seed, h.Backlog())
		}
		assertNoFaults(t, fmt.Sprintf("seed %d", seed), h)
	}
}

// TestRandomTopologyInterleavedArrivals interleaves arrivals and
// dequeues (the live pattern) instead of a fill-then-drain phase split.
func TestRandomTopologyInterleavedArrivals(t *testing.T) {
	for seed := int64(100); seed < 115; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h, flows := buildRandomTree(rng)
		if len(flows) == 0 {
			continue
		}
		injected, transmitted := 0, 0
		now := clock.Time(0)
		for i := 0; i < 600; i++ {
			now += clock.Time(rng.Intn(100))
			if rng.Intn(2) == 0 {
				f := flows[rng.Intn(len(flows))]
				h.OnArrival(now, flowq.Packet{Flow: f, Size: 1500, Seq: uint64(i)})
				injected++
			} else if _, ok := h.NextPacket(now); ok {
				transmitted++
			}
		}
		for {
			if _, ok := h.NextPacket(now); !ok {
				break
			}
			transmitted++
		}
		if transmitted != injected || h.Backlog() != 0 {
			t.Fatalf("seed %d: transmitted %d, injected %d, backlog %d",
				seed, transmitted, injected, h.Backlog())
		}
		assertNoFaults(t, fmt.Sprintf("seed %d", seed), h)
		for d := 0; d < h.Levels(); d++ {
			if err := backend.CheckInvariants(h.Level(d)); err != nil {
				t.Fatalf("seed %d: level %d: %v", seed, d, err)
			}
		}
	}
}

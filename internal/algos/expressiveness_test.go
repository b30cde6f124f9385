package algos

import (
	"math/rand"
	"testing"

	"pieo/internal/flowq"
	"pieo/internal/oracle"
	"pieo/internal/sched"
)

// These tests validate §4's expressiveness claim literally: a
// PIEO-programmed scheduler must produce the *exact same transmission
// sequence* as an independent textbook implementation of the same
// algorithm, not merely similar long-run shares.

// drainScheduler feeds the configs into a framework scheduler at t=0 and
// drains it decision by decision.
func drainScheduler(t *testing.T, prog *sched.Program, cfgs []oracle.Config, linkGbps float64, configure func(*sched.Scheduler)) []oracle.Decision {
	t.Helper()
	s := sched.New(prog, len(cfgs)+1, linkGbps)
	for _, c := range cfgs {
		f := s.Flow(c.ID)
		if c.Weight > 0 {
			s.SetWeight(c.ID, c.Weight)
		}
		if c.Quantum > 0 {
			f.Quantum = c.Quantum
		}
	}
	if configure != nil {
		configure(s)
	}
	var seq uint64
	for _, c := range cfgs {
		for _, size := range c.Packets {
			seq++
			s.OnArrival(0, flowq.Packet{Flow: c.ID, Size: size, Seq: seq})
		}
	}
	var out []oracle.Decision
	for {
		p, ok := s.NextPacket(0)
		if !ok {
			assertNoFaults(t, s)
			return out
		}
		out = append(out, oracle.Decision{Flow: p.Flow, Size: p.Size})
		if len(out) > 100000 {
			t.Fatal("scheduler did not drain")
		}
	}
}

func assertSameSequence(t *testing.T, name string, got, want []oracle.Decision) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d decisions, oracle made %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: decision %d = %+v, oracle %+v\n got: %v\nwant: %v",
				name, i, got[i], want[i], got[:i+1], want[:i+1])
		}
	}
}

func randomConfigs(rng *rand.Rand, nFlows, maxPkts int, varySizes bool) []oracle.Config {
	cfgs := make([]oracle.Config, nFlows)
	for i := range cfgs {
		n := rng.Intn(maxPkts) + 1
		pkts := make([]uint32, n)
		for j := range pkts {
			if varySizes {
				pkts[j] = uint32(64 + rng.Intn(1437))
			} else {
				pkts[j] = 1500
			}
		}
		cfgs[i] = oracle.Config{ID: flowq.FlowID(i + 1), Packets: pkts}
	}
	return cfgs
}

func TestDRRMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		cfgs := randomConfigs(rng, 2+rng.Intn(6), 8, true)
		for i := range cfgs {
			cfgs[i].Quantum = uint64(500 + rng.Intn(3000))
		}
		got := drainScheduler(t, DRR(), cfgs, 40, nil)
		want := oracle.Drain(oracle.NewDRR(cfgs), 100000)
		assertSameSequence(t, "drr", got, want)
	}
}

func TestWFQMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 30; trial++ {
		cfgs := randomConfigs(rng, 2+rng.Intn(6), 8, true)
		for i := range cfgs {
			cfgs[i].Weight = uint64(1 + rng.Intn(5))
		}
		got := drainScheduler(t, WFQ(), cfgs, 40, nil)
		want := oracle.Drain(oracle.NewWFQ(cfgs, 40), 100000)
		assertSameSequence(t, "wfq", got, want)
	}
}

func TestWF2QMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 30; trial++ {
		cfgs := randomConfigs(rng, 2+rng.Intn(6), 8, true)
		for i := range cfgs {
			cfgs[i].Weight = uint64(1 + rng.Intn(5))
		}
		got := drainScheduler(t, WF2Q(), cfgs, 40, nil)
		want := oracle.Drain(oracle.NewWF2Q(cfgs, 40), 100000)
		assertSameSequence(t, "wf2q+", got, want)
	}
}

func TestStrictPriorityMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 30; trial++ {
		cfgs := randomConfigs(rng, 2+rng.Intn(6), 8, false)
		prio := map[flowq.FlowID]uint64{}
		for _, c := range cfgs {
			prio[c.ID] = uint64(rng.Intn(4))
		}
		got := drainScheduler(t, StrictPriority(), cfgs, 40, func(s *sched.Scheduler) {
			for id, p := range prio {
				s.Flow(id).Priority = p
			}
		})
		want := oracle.Drain(oracle.NewStrictPriority(cfgs, prio), 100000)
		assertSameSequence(t, "strict-priority", got, want)
	}
}

func TestTokenBucketMatchesClosedForm(t *testing.T) {
	// A single backlogged flow's packet release times must match the
	// closed-form token-bucket solution exactly.
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(20)
		sizes := make([]uint32, n)
		for i := range sizes {
			sizes[i] = uint32(200 + rng.Intn(1301))
		}
		rate := []float64{1, 2.5, 10}[rng.Intn(3)]
		burst := float64(3000 + rng.Intn(9000))

		s := sched.New(TokenBucket(), 2, 40)
		f := s.Flow(1)
		f.RateGbps = rate
		f.Burst = burst
		f.Tokens = burst

		var seq uint64
		for _, size := range sizes {
			seq++
			s.OnArrival(0, flowq.Packet{Flow: 1, Size: size, Seq: seq})
		}
		want := oracle.TokenBucketTimes(sizes, rate, burst, burst)

		// Drain by always asking "what is the earliest time the next
		// packet may go"; the scheduler's wake hint is that time.
		for i := range sizes {
			// Not eligible one tick before the oracle's release time
			// (skipped at t=0 where there is no earlier tick).
			if want[i] > 0 {
				if _, ok := s.NextPacket(want[i] - 1); ok {
					t.Fatalf("trial %d: packet %d released before oracle time %v", trial, i, want[i])
				}
				at, ok := s.NextWake(0)
				if !ok || at != want[i] {
					t.Fatalf("trial %d: wake hint = %v,%v, oracle %v", trial, at, ok, want[i])
				}
			}
			p, ok := s.NextPacket(want[i])
			if !ok || p.Size != sizes[i] {
				t.Fatalf("trial %d: packet %d = %+v ok=%v at oracle time %v", trial, i, p, ok, want[i])
			}
		}
	}
}

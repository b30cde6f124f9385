package hier

import (
	"errors"
	"math"
	"testing"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/core"
	"pieo/internal/flowq"
	"pieo/internal/netsim"
	"pieo/internal/stats"
)

const linkGbps = 40

// twoLevel builds the paper's §6.3 topology scaled down: nVMs interior
// nodes under a root policy, nFlows flows per VM under a per-VM policy.
func twoLevel(rootPolicy, vmPolicy *Policy, nVMs, nFlows int) (*Hierarchy, []*Node) {
	h := New(linkGbps, rootPolicy)
	var vms []*Node
	id := flowq.FlowID(0)
	for v := 0; v < nVMs; v++ {
		vm := h.Root().AddNode("vm", vmPolicy)
		for f := 0; f < nFlows; f++ {
			vm.AddFlow(id)
			id++
		}
		vms = append(vms, vm)
	}
	h.Build()
	return h, vms
}

func TestBuildAssignsContiguousRanges(t *testing.T) {
	h, vms := twoLevel(RoundRobin(), RoundRobin(), 3, 4)
	if h.Levels() != 2 {
		t.Fatalf("Levels = %d, want 2", h.Levels())
	}
	for i, vm := range vms {
		if vm.lo != uint32(i*4) || vm.hi != uint32(i*4+3) {
			t.Fatalf("vm %d range = [%d,%d], want [%d,%d]", i, vm.lo, vm.hi, i*4, i*4+3)
		}
	}
	if h.Root().lo != 0 || h.Root().hi != 2 {
		t.Fatalf("root range = [%d,%d], want [0,2]", h.Root().lo, h.Root().hi)
	}
}

func TestBuildValidation(t *testing.T) {
	h := New(linkGbps, RoundRobin())
	h.Root().AddNode("empty", RoundRobin()) // node with no children
	defer func() {
		if recover() == nil {
			t.Fatal("Build accepted a childless node")
		}
	}()
	h.Build()
}

func TestAddAfterBuildPanics(t *testing.T) {
	h, _ := twoLevel(RoundRobin(), RoundRobin(), 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("AddNode after Build did not panic")
		}
	}()
	h.Root().AddNode("late", RoundRobin())
}

func TestDuplicateFlowPanics(t *testing.T) {
	h := New(linkGbps, RoundRobin())
	vm := h.Root().AddNode("vm", RoundRobin())
	vm.AddFlow(1)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddFlow did not panic")
		}
	}()
	vm.AddFlow(1)
}

func TestSinglePathDelivery(t *testing.T) {
	h, _ := twoLevel(RoundRobin(), RoundRobin(), 2, 2)
	h.OnArrival(0, flowq.Packet{Flow: 3, Size: 100})
	p, ok := h.NextPacket(0)
	if !ok || p.Flow != 3 {
		t.Fatalf("NextPacket = flow %d ok=%v, want 3", p.Flow, ok)
	}
	if _, ok := h.NextPacket(0); ok {
		t.Fatal("NextPacket succeeded on drained hierarchy")
	}
	if h.Backlog() != 0 {
		t.Fatalf("Backlog = %d, want 0", h.Backlog())
	}
}

func TestRoundRobinAcrossVMs(t *testing.T) {
	h, _ := twoLevel(RoundRobin(), RoundRobin(), 2, 1)
	// Flows 0 (vm0) and 1 (vm1), both backlogged: strict alternation.
	for i := 0; i < 4; i++ {
		h.OnArrival(0, flowq.Packet{Flow: 0, Size: 100, Seq: uint64(i)})
		h.OnArrival(0, flowq.Packet{Flow: 1, Size: 100, Seq: uint64(10 + i)})
	}
	want := []flowq.FlowID{0, 1, 0, 1, 0, 1, 0, 1}
	for i, w := range want {
		p, ok := h.NextPacket(0)
		if !ok || p.Flow != w {
			t.Fatalf("NextPacket #%d = flow %d ok=%v, want %d", i, p.Flow, ok, w)
		}
	}
}

func TestStrictPriorityAtRoot(t *testing.T) {
	h := New(linkGbps, StrictPriority())
	hi := h.Root().AddNode("hi", RoundRobin())
	lo := h.Root().AddNode("lo", RoundRobin())
	hi.AddFlow(1)
	lo.AddFlow(2)
	h.Build()
	hi.Self().Priority = 1
	lo.Self().Priority = 2

	h.OnArrival(0, flowq.Packet{Flow: 2, Size: 100})
	h.OnArrival(0, flowq.Packet{Flow: 1, Size: 100})
	p, _ := h.NextPacket(0)
	if p.Flow != 1 {
		t.Fatalf("first = flow %d, want 1 (high-priority VM)", p.Flow)
	}
}

func TestThreeLevelHierarchy(t *testing.T) {
	// root -> tenants -> VMs -> flows: three physical PIEOs.
	h := New(linkGbps, RoundRobin())
	id := flowq.FlowID(0)
	for tn := 0; tn < 2; tn++ {
		tenant := h.Root().AddNode("tenant", RoundRobin())
		for v := 0; v < 2; v++ {
			vm := tenant.AddNode("vm", RoundRobin())
			for f := 0; f < 2; f++ {
				vm.AddFlow(id)
				id++
			}
		}
	}
	h.Build()
	if h.Levels() != 3 {
		t.Fatalf("Levels = %d, want 3", h.Levels())
	}
	for fid := flowq.FlowID(0); fid < 8; fid++ {
		h.OnArrival(0, flowq.Packet{Flow: fid, Size: 100})
	}
	seen := map[flowq.FlowID]bool{}
	for i := 0; i < 8; i++ {
		p, ok := h.NextPacket(0)
		if !ok {
			t.Fatalf("drained early at %d", i)
		}
		seen[p.Flow] = true
	}
	if len(seen) != 8 {
		t.Fatalf("served %d distinct flows, want 8", len(seen))
	}
	// Round-robin at every level: tenants alternate.
	if _, ok := h.NextPacket(0); ok {
		t.Fatal("extra packet after drain")
	}
}

func TestTokenBucketRateLimitAtRoot(t *testing.T) {
	// The Fig 11 shape in miniature: one VM limited to 10 Gbps with 10
	// backlogged flows fair-queued inside.
	h, vms := twoLevel(TokenBucket(), WF2Q(), 1, 10)
	vm := vms[0]
	vm.Self().RateGbps = 10
	vm.Self().Burst = 1500
	vm.Self().Tokens = 1500

	sim := netsim.New(netsim.Link{RateGbps: linkGbps}, h)
	meter := stats.NewRateMeter(0)
	perFlow := map[flowq.FlowID]uint64{}
	var seq uint64
	sim.OnTransmit = func(now clock.Time, p flowq.Packet) {
		meter.Record(now, p.Size)
		perFlow[p.Flow] += uint64(p.Size)
		seq++
		sim.InjectOne(now, flowq.Packet{Flow: p.Flow, Size: p.Size, Seq: seq})
	}
	for f := flowq.FlowID(0); f < 10; f++ {
		seq++
		sim.InjectOne(0, flowq.Packet{Flow: f, Size: 1500, Seq: seq})
	}
	duration := clock.Time(10_000_000)
	sim.Run(duration)
	meter.CloseAt(duration)

	if got := meter.Gbps(); math.Abs(got-10) > 0.4 {
		t.Fatalf("VM rate = %.2f Gbps, want ~10", got)
	}
	// Fair queueing inside the VM: all 10 flows share equally.
	var shares []float64
	for f := flowq.FlowID(0); f < 10; f++ {
		shares = append(shares, float64(perFlow[f]))
	}
	if j := stats.JainIndex(shares); j < 0.99 {
		t.Fatalf("intra-VM Jain index = %v (%v)", j, perFlow)
	}
}

func TestTwoVMsIndependentLimits(t *testing.T) {
	h, vms := twoLevel(TokenBucket(), WF2Q(), 2, 2)
	limits := []float64{4, 12}
	for i, vm := range vms {
		vm.Self().RateGbps = limits[i]
		vm.Self().Burst = 1500
		vm.Self().Tokens = 1500
	}
	sim := netsim.New(netsim.Link{RateGbps: linkGbps}, h)
	perVM := map[int]*stats.RateMeter{0: stats.NewRateMeter(0), 1: stats.NewRateMeter(0)}
	var seq uint64
	sim.OnTransmit = func(now clock.Time, p flowq.Packet) {
		perVM[int(p.Flow)/2].Record(now, p.Size)
		seq++
		sim.InjectOne(now, flowq.Packet{Flow: p.Flow, Size: p.Size, Seq: seq})
	}
	for f := flowq.FlowID(0); f < 4; f++ {
		seq++
		sim.InjectOne(0, flowq.Packet{Flow: f, Size: 1500, Seq: seq})
	}
	duration := clock.Time(10_000_000)
	sim.Run(duration)
	for i, m := range perVM {
		m.CloseAt(duration)
		if got := m.Gbps(); math.Abs(got-limits[i]) > 0.5 {
			t.Fatalf("VM %d rate = %.2f, want ~%.0f", i, got, limits[i])
		}
	}
}

func TestWFQPolicyWeightedSharing(t *testing.T) {
	h, vms := twoLevel(WFQ(), RoundRobin(), 2, 1)
	vms[0].Self().Weight = 3
	vms[1].Self().Weight = 1

	sim := netsim.New(netsim.Link{RateGbps: linkGbps}, h)
	bytes := map[flowq.FlowID]uint64{}
	var seq uint64
	sim.OnTransmit = func(now clock.Time, p flowq.Packet) {
		bytes[p.Flow] += uint64(p.Size)
		seq++
		sim.InjectOne(now, flowq.Packet{Flow: p.Flow, Size: p.Size, Seq: seq})
	}
	// Seed a few packets per flow so a queue never empties in the gap
	// between a transmission completing and its closed-loop replacement
	// arrival being processed.
	for f := flowq.FlowID(0); f < 2; f++ {
		for k := 0; k < 4; k++ {
			seq++
			sim.InjectOne(0, flowq.Packet{Flow: f, Size: 1500, Seq: seq})
		}
	}
	sim.Run(4_000_000)
	r := float64(bytes[0]) / float64(bytes[1])
	if math.Abs(r-3) > 0.25 {
		t.Fatalf("WFQ 3:1 ratio = %v (%v)", r, bytes)
	}
}

func TestShapedBranchDoesNotBlockSiblings(t *testing.T) {
	// VM0 is rate-limited to a trickle; VM1 is unlimited... under a
	// round-robin root both VMs' eligibility lives at the root level via
	// TokenBucket, so use TB root with very different rates and verify
	// VM1 is not starved while VM0 waits for tokens.
	h, vms := twoLevel(TokenBucket(), RoundRobin(), 2, 1)
	vms[0].Self().RateGbps = 0.1
	vms[0].Self().Burst = 1500
	vms[1].Self().RateGbps = 30
	vms[1].Self().Burst = 1500
	vms[1].Self().Tokens = 1500

	sim := netsim.New(netsim.Link{RateGbps: linkGbps}, h)
	bytes := map[flowq.FlowID]uint64{}
	var seq uint64
	sim.OnTransmit = func(now clock.Time, p flowq.Packet) {
		bytes[p.Flow] += uint64(p.Size)
		seq++
		sim.InjectOne(now, flowq.Packet{Flow: p.Flow, Size: p.Size, Seq: seq})
	}
	for f := flowq.FlowID(0); f < 2; f++ {
		seq++
		sim.InjectOne(0, flowq.Packet{Flow: f, Size: 1500, Seq: seq})
	}
	sim.Run(2_000_000)
	if bytes[1] == 0 {
		t.Fatal("unlimited VM starved behind the shaped VM")
	}
	if bytes[1] < 50*bytes[0] {
		t.Fatalf("share skew too small: %v", bytes)
	}
}

func TestDRRPolicyQuantumRatio(t *testing.T) {
	// Two VMs with 2:1 quanta under a DRR root split the link 2:1.
	h, vms := twoLevel(DRR(), RoundRobin(), 2, 2)
	vms[0].Self().Quantum = 3000
	vms[1].Self().Quantum = 1500

	sim := netsim.New(netsim.Link{RateGbps: linkGbps}, h)
	bytes := map[int]uint64{}
	var seq uint64
	sim.OnTransmit = func(now clock.Time, p flowq.Packet) {
		bytes[int(p.Flow)/2] += uint64(p.Size)
		seq++
		sim.InjectOne(now, flowq.Packet{Flow: p.Flow, Size: p.Size, Seq: seq})
	}
	for f := flowq.FlowID(0); f < 4; f++ {
		for k := 0; k < 4; k++ {
			seq++
			sim.InjectOne(0, flowq.Packet{Flow: f, Size: 1500, Seq: seq})
		}
	}
	sim.Run(4_000_000)
	r := float64(bytes[0]) / float64(bytes[1])
	if math.Abs(r-2) > 0.1 {
		t.Fatalf("DRR 2:1 quanta ratio = %v (%v)", r, bytes)
	}
}

func TestDRRPolicyNoStarvation(t *testing.T) {
	// Sub-MTU quantum still makes progress across rounds.
	h, vms := twoLevel(DRR(), RoundRobin(), 3, 1)
	for _, vm := range vms {
		vm.Self().Quantum = 700
	}
	for f := flowq.FlowID(0); f < 3; f++ {
		h.OnArrival(0, flowq.Packet{Flow: f, Size: 1500})
		h.OnArrival(0, flowq.Packet{Flow: f, Size: 1500})
	}
	seen := map[flowq.FlowID]int{}
	for i := 0; i < 6; i++ {
		p, ok := h.NextPacket(clock.Time(i))
		if !ok {
			t.Fatalf("drained early at %d", i)
		}
		seen[p.Flow]++
	}
	for f := flowq.FlowID(0); f < 3; f++ {
		if seen[f] != 2 {
			t.Fatalf("flow %d served %d times, want 2 (%v)", f, seen[f], seen)
		}
	}
}

func TestNextWakeFromRootShaper(t *testing.T) {
	h, vms := twoLevel(TokenBucket(), RoundRobin(), 1, 1)
	vms[0].Self().RateGbps = 1
	vms[0].Self().Burst = 1500
	// Bucket starts empty: the head packet is deferred.
	h.OnArrival(0, flowq.Packet{Flow: 0, Size: 1500})
	if _, ok := h.NextPacket(0); ok {
		t.Fatal("packet sent with empty bucket")
	}
	at, ok := h.NextWake(0)
	if !ok {
		t.Fatal("no wake hint from wall-domain root level")
	}
	// 1500 bytes at 1 Gbps = 12000 ns to fill the bucket.
	if at != 12000 {
		t.Fatalf("wake at %v, want 12000", at)
	}
	if p, ok := h.NextPacket(12000); !ok || p.Flow != 0 {
		t.Fatalf("NextPacket(12000) = %+v ok=%v", p, ok)
	}
}

func TestHierarchyThirtyThousandFlows(t *testing.T) {
	if testing.Short() {
		t.Skip("30K-flow hierarchy")
	}
	// The scalability claim at the hierarchy level: 300 VMs x 100 flows
	// = 30K leaves across two physical PIEOs, one service round each.
	const (
		nVMs  = 300
		perVM = 100
	)
	h, _ := twoLevel(RoundRobin(), WF2Q(), nVMs, perVM)
	for f := 0; f < nVMs*perVM; f++ {
		h.OnArrival(0, flowq.Packet{Flow: flowq.FlowID(f), Size: 1500, Seq: uint64(f)})
	}
	served := make(map[flowq.FlowID]bool, nVMs*perVM)
	for i := 0; i < nVMs*perVM; i++ {
		p, ok := h.NextPacket(0)
		if !ok {
			t.Fatalf("drained early at %d", i)
		}
		if served[p.Flow] {
			t.Fatalf("flow %d served twice in one round", p.Flow)
		}
		served[p.Flow] = true
	}
	for d := 0; d < h.Levels(); d++ {
		if err := backend.CheckInvariants(h.Level(d)); err != nil {
			t.Fatalf("level %d: %v", d, err)
		}
	}
}

func TestLeafAccessors(t *testing.T) {
	h, _ := twoLevel(RoundRobin(), RoundRobin(), 1, 2)
	if c := h.Leaf(1); c == nil || !c.IsLeaf() || c.Flow != 1 {
		t.Fatalf("Leaf(1) = %+v", c)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Leaf(99) did not panic")
		}
	}()
	h.Leaf(99)
}

// TestOnArrivalUnknownFlow: a packet for a flow the topology does not
// hold comes from outside the program (a classifier result), so it is a
// declared drop charged to the root, not a panic, and traffic for real
// flows keeps flowing.
func TestOnArrivalUnknownFlow(t *testing.T) {
	for _, h := range []*Hierarchy{New(linkGbps, RoundRobin()), NewPartitioned(linkGbps, RoundRobin())} {
		diffTwoLevelRR(h, 2, 2)
		h.OnArrival(0, flowq.Packet{Flow: 99, Size: 100})
		want := backend.FaultStats{UnknownFlows: 1, DroppedPackets: 1}
		if got := h.FaultStats(); got != want {
			t.Fatalf("partitioned=%v: FaultStats = %+v, want %+v", h.Partitioned(), got, want)
		}
		if got := h.Root().FaultStats(); got != want {
			t.Fatalf("partitioned=%v: root FaultStats = %+v, want %+v", h.Partitioned(), got, want)
		}
		if !errors.Is(h.LastFault(), core.ErrUnknownFlow) {
			t.Fatalf("partitioned=%v: LastFault = %v, want ErrUnknownFlow", h.Partitioned(), h.LastFault())
		}
		if h.Backlog() != 0 {
			t.Fatalf("partitioned=%v: backlog %d after a dropped packet", h.Partitioned(), h.Backlog())
		}
		h.OnArrival(0, flowq.Packet{Flow: 3, Size: 100})
		if p, ok := h.NextPacket(0); !ok || p.Flow != 3 {
			t.Fatalf("partitioned=%v: NextPacket = flow %d ok=%v, want 3", h.Partitioned(), p.Flow, ok)
		}
	}
}

func TestLevelListInvariants(t *testing.T) {
	h, _ := twoLevel(RoundRobin(), WF2Q(), 3, 3)
	for f := flowq.FlowID(0); f < 9; f++ {
		h.OnArrival(0, flowq.Packet{Flow: f, Size: 100})
		h.OnArrival(0, flowq.Packet{Flow: f, Size: 100})
	}
	for i := 0; i < 18; i++ {
		if _, ok := h.NextPacket(clock.Time(i)); !ok {
			t.Fatalf("drained early at %d", i)
		}
		for d := 0; d < h.Levels(); d++ {
			if err := backend.CheckInvariants(h.Level(d)); err != nil {
				t.Fatalf("level %d after packet %d: %v", d, i, err)
			}
		}
	}
}

// bandBlindList is a faulty level list whose ranged dequeue ignores the
// band and extracts the globally smallest eligible element.
type bandBlindList struct{ *backend.CoreList }

func (b bandBlindList) DequeueRange(now clock.Time, _, _ uint32) (core.Entry, bool) {
	return b.Dequeue(now)
}

// TestDescendRejectsForeignChild: a winner whose ID lies outside the
// extracting node's child range is a fault charged to that node, even
// when the ID names a real child of a sibling node at the same depth.
func TestDescendRejectsForeignChild(t *testing.T) {
	h := NewOn(linkGbps, RoundRobin(), func(n int) backend.Backend {
		return bandBlindList{backend.NewCoreList(n)}
	})
	vm0, vm1 := h.Root().AddNode("vm0", RoundRobin()), h.Root().AddNode("vm1", RoundRobin())
	vm0.AddFlow(0)
	foreign := vm1.AddFlow(1)
	h.Build()
	// vm1's idle flow appears in the depth-1 list ahead of everything.
	if err := h.Level(1).Enqueue(core.Entry{ID: foreign.ID, Rank: 0, SendTime: clock.Always}); err != nil {
		t.Fatal(err)
	}
	h.OnArrival(0, flowq.Packet{Flow: 0, Size: 100})
	p, ok := h.NextPacket(0)
	if !ok || p.Flow != 0 {
		t.Fatalf("NextPacket = flow %d ok=%v, want 0", p.Flow, ok)
	}
	if got := vm0.FaultStats().UnknownFlows; got != 1 {
		t.Fatalf("vm0 UnknownFlows = %d, want 1", got)
	}
	if got := h.FaultStats().UnknownFlows; got != 1 {
		t.Fatalf("hierarchy UnknownFlows = %d, want 1", got)
	}
	// The foreign element never counted toward vm0's active children, so
	// vm0 is idle again and must not be put back into the root's PIEO.
	if n := h.Level(0).Len(); n != 0 {
		t.Fatalf("root list holds %d entries after its only backlog was sent", n)
	}
}

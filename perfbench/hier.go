package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/flowq"
	"pieo/internal/hier"
	"pieo/internal/netsim"
)

// hier-10k: §4.2 logical partitioning at Fig 11/12 ×100. Token Bucket
// over WF²Q+ with vms × flowsPerVM leaves, every logical PIEO a band of
// one shared core list (hier.NewPartitionedOn). A 40 Gbps link carries
// MTU packets; the sampled VM is limited to sampledGbps and the others
// split 90% of the rest. Each transmission re-injects one packet of the
// same flow, keeping four queued per flow.
type hierConfig struct {
	vms, flowsPerVM int
	linkGbps        float64
	sampledGbps     float64
	gatePkts        int // schedule prefix compared with the per-level oracle
}

var hierDefault = hierConfig{vms: 100, flowsPerVM: 100, linkGbps: 40, sampledGbps: 8, gatePkts: 16384}

const (
	hierMTU     = 1500
	hierDepth   = 4
	hierSliceNs = 3_000 // about 10 MTU packets at 40 Gbps
)

// hierInputs is everything the seed decides.
type hierInputs struct {
	cfg     hierConfig
	weights []uint64 // per leaf flow, from {1,2,4,8}
	sampled int      // the rate-limited VM whose enforcement is checked
	order   []int    // order in which flows first arrive
}

func genHierInputs(cfg hierConfig, seed int64) *hierInputs {
	rng := rand.New(rand.NewSource(seed))
	n := cfg.vms * cfg.flowsPerVM
	in := &hierInputs{cfg: cfg, weights: make([]uint64, n), sampled: rng.Intn(cfg.vms), order: rng.Perm(n)}
	for i := range in.weights {
		in.weights[i] = 1 << rng.Intn(4)
	}
	return in
}

type hierSystem struct {
	in   *hierInputs
	h    *hier.Hierarchy
	shim *schedShim
	sim  *netsim.Sim
	tr   *tracer

	until    clock.Time
	injected uint64
	tx       uint64

	record    uint64
	sent      []uint64
	vmBytes   uint64     // sampled VM, over the recorded transmissions
	flowBytes []uint64   // sampled VM's flows, same window
	recordEnd clock.Time // simulated time of the last recorded transmission
}

// newHierSystem builds the §6.3 tree on the hierarchy mk returns and
// queues hierDepth MTU packets per flow.
func newHierSystem(in *hierInputs, mk func(root *hier.Policy) *hier.Hierarchy, tr *tracer, record uint64) (*hierSystem, error) {
	cfg := in.cfg
	h := mk(hier.TokenBucket())
	var vms []*hier.Node
	id := flowq.FlowID(0)
	for v := 0; v < cfg.vms; v++ {
		vm := h.Root().AddNode(fmt.Sprintf("vm%d", v), hier.WF2Q())
		for f := 0; f < cfg.flowsPerVM; f++ {
			vm.AddFlow(id)
			id++
		}
		vms = append(vms, vm)
	}
	h.Build()
	for f, w := range in.weights {
		h.Leaf(flowq.FlowID(f)).Weight = w
	}
	otherRate := (cfg.linkGbps - cfg.sampledGbps) * 0.9 / float64(cfg.vms-1)
	for v, vm := range vms {
		self := vm.Self()
		self.RateGbps = otherRate
		if v == in.sampled {
			self.RateGbps = cfg.sampledGbps
		}
		// As in the hierscale experiment: a bucket deep enough to absorb
		// the tokens a VM accrues while the other VMs transmit, starting
		// shallow so the first milliseconds are not a credit storm.
		self.Burst = float64(2*cfg.vms) * hierMTU
		self.Tokens = 8 * hierMTU
	}
	s := &hierSystem{in: in, h: h, tr: tr, record: record,
		sent: make([]uint64, 0, record), flowBytes: make([]uint64, cfg.flowsPerVM)}
	var err error
	if s.shim, err = newSchedShim(h, tr, 1, lHierArrival, lHierNext, lHierWake); err != nil {
		return nil, err
	}
	s.sim = netsim.New(netsim.Link{RateGbps: cfg.linkGbps}, s.shim)
	s.sim.OnTransmit = s.onTransmit
	for k := 0; k < hierDepth; k++ {
		for _, f := range in.order {
			s.inject(0, flowq.FlowID(f))
		}
	}
	return s, nil
}

func (s *hierSystem) inject(at clock.Time, f flowq.FlowID) {
	s.injected++
	p := flowq.Packet{Flow: f, Size: hierMTU, Seq: s.injected}
	if s.tr != nil {
		s.tr.begin(lNetsimInject, p.Seq)
		s.sim.InjectOne(at, p)
		s.tr.end()
		return
	}
	s.sim.InjectOne(at, p)
}

func (s *hierSystem) onTransmit(now clock.Time, p flowq.Packet) {
	if s.tr != nil {
		s.tr.begin(lBenchIngest, p.Seq)
		defer s.tr.end()
	}
	s.tx++
	if s.tx <= s.record {
		s.sent = append(s.sent, schedEntry(uint32(p.Flow), p.Size, p.Seq))
		if int(p.Flow)/s.in.cfg.flowsPerVM == s.in.sampled {
			s.vmBytes += uint64(p.Size)
			s.flowBytes[int(p.Flow)%s.in.cfg.flowsPerVM] += uint64(p.Size)
		}
		s.recordEnd = now
	}
	s.inject(now, p.Flow)
}

func (s *hierSystem) step() {
	s.until += hierSliceNs
	if s.tr != nil {
		s.tr.begin(lNetsimRun, 0)
		s.sim.Run(s.until)
		s.tr.end()
		return
	}
	s.sim.Run(s.until)
}

// runUntilSent steps until n packets were sent, or until the link has
// sent nothing for stallSteps steps.
func (s *hierSystem) runUntilSent(n uint64) {
	for idle, last := 0, s.tx; s.tx < n && idle < stallSteps; {
		s.step()
		if s.tx == last {
			idle++
		} else {
			idle, last = 0, s.tx
		}
	}
}

func (s *hierSystem) runFor(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
		s.step()
	}
}

// counts reports transmitted packets and NextPacket decisions (which
// include the ones that find every eligible VM rate-limited).
func (s *hierSystem) counts() (units, ops uint64) { return s.tx, s.shim.decisions }

// ledger checks the closed loop's conservation, zero drops and zero
// faults.
func (s *hierSystem) ledger() gate {
	g := s.shim.ledgerGate("hier", s.injected, s.tx, s.h.Backlog())
	var drops uint64
	for f := range s.in.weights {
		drops += s.h.Leaf(flowq.FlowID(f)).Queue.Drops()
	}
	if drops != 0 {
		g.fail(int64(drops), fmt.Sprintf("%d drops", drops))
	}
	if f := s.h.FaultStats(); f != (backend.FaultStats{}) {
		g.fail(1, fmt.Sprintf("faults %+v", f))
	}
	return g
}

// rateErrPct is |measured − configured| / configured for the sampled VM
// over the recorded window, in percent.
func (s *hierSystem) rateErrPct() float64 {
	gbps := float64(s.vmBytes) * 8 / float64(s.recordEnd)
	return 100 * math.Abs(gbps-s.in.cfg.sampledGbps) / s.in.cfg.sampledGbps
}

// vmJain is the fairness index of bytes per unit weight across the
// sampled VM's flows, over the recorded window.
func (s *hierSystem) vmJain() float64 {
	base := s.in.sampled * s.in.cfg.flowsPerVM
	xs := make([]float64, len(s.flowBytes))
	for i, b := range s.flowBytes {
		xs[i] = float64(b) / float64(s.in.weights[base+i])
	}
	return jain(xs)
}

// partitionedOn returns a constructor of partitioned hierarchies whose
// shared physical PIEO is be.
func partitionedOn(linkGbps float64, be backend.Backend) func(*hier.Policy) *hier.Hierarchy {
	return func(root *hier.Policy) *hier.Hierarchy {
		return hier.NewPartitionedOn(linkGbps, root, func(int) backend.Backend { return be })
	}
}

// hierGates runs the seeded schedule prefix on the partitioned hierarchy
// over the named backend and on the per-level oracle (one core list per
// depth), compares them, and returns the partitioned run.
func hierGates(in *hierInputs, listName string) (*hierSystem, backend.Backend, []gate, error) {
	cfg := in.cfg
	n := uint64(cfg.gatePkts)
	be, err := backend.New(listName, cfg.vms*cfg.flowsPerVM+cfg.vms)
	if err != nil {
		return nil, nil, nil, err
	}
	sys, err := newHierSystem(in, partitionedOn(cfg.linkGbps, be), nil, n)
	if err != nil {
		return nil, nil, nil, err
	}
	sys.runUntilSent(n)
	oracle, err := newHierSystem(in, func(root *hier.Policy) *hier.Hierarchy {
		return hier.New(cfg.linkGbps, root)
	}, nil, n)
	if err != nil {
		return nil, nil, nil, err
	}
	oracle.runUntilSent(n)
	g := gate{name: "hier schedule = per-level oracle", ops: int64(n)}
	if bad := mismatches(sys.sent, oracle.sent); bad != 0 {
		g.fail(int64(bad), fmt.Sprintf("%d of %d transmissions differ (digest %016x, oracle %016x)",
			bad, n, digestOf(sys.sent), digestOf(oracle.sent)))
	}
	return sys, be, []gate{g, sys.ledger(), oracle.ledger()}, nil
}

func runHier(o runOpts, cfg hierConfig) (*outcome, error) {
	in := genHierInputs(cfg, o.seed)
	heapBase := liveHeap()
	out := newOutcome()
	capacity := cfg.vms*cfg.flowsPerVM + cfg.vms

	gateSys, gateBE, gates, err := hierGates(in, "core")
	if err != nil {
		return nil, err
	}
	out.addGates(gates...)
	jainIdx, rateErr := gateSys.vmJain(), gateSys.rateErrPct()
	hw := gateBE.(backend.HardwareModeled).HardwareStats()
	gateSched := gateSys.sent
	out.note("sampled VM %d: %.4f%% rate error, Jain %.6f over %d packets", in.sampled, rateErr, jainIdx, cfg.gatePkts)
	gateSys, gateBE = nil, nil

	build := func() (*hierSystem, error) {
		return newHierSystem(in, partitionedOn(cfg.linkGbps, backend.NewCoreList(capacity)), nil, 0)
	}
	sys, setup, err := timedSetup(setupReps, build)
	if err != nil {
		return nil, err
	}

	if !o.trace {
		sys.runFor(o.warmup())
		m := measureLoop(o.measure(), sys.step, sys.counts, &sys.shim.lat)
		out.addGates(sys.ledger(), progressGate("hier", m))
		out.note("%s", m.describe("NextPacket calls"))
		out.set("setup_s", setup.Seconds())
		out.set("pkts_per_s", m.unitRate)
		out.set("ops_per_s", m.opRate)
		out.note("op_p50_ns %.1f ns, op_p99_ns %.1f ns (reported as metrics by --trace 1)", m.p50, m.p99)
		out.set("heap_mb", m.heapMB(heapBase))
		out.set("jain", jainIdx)
		return out, nil
	}

	tr := newTracer(time.Now(), 0)
	tb, err := newTracedBackend(backend.NewCoreList(capacity), tr)
	if err != nil {
		return nil, err
	}
	tsys, err := newHierSystem(in, partitionedOn(cfg.linkGbps, tb), tr, uint64(cfg.gatePkts))
	if err != nil {
		return nil, err
	}
	tsys.runUntilSent(uint64(cfg.gatePkts))
	out.addGates(traceDigestGate("hier", tsys.sent, gateSched))

	sys.runFor(o.warmup())
	um := measureLoop(o.measure()/2, sys.step, sys.counts, &sys.shim.lat)
	tsys.runFor(o.warmup())
	tr.reset()
	calls0 := tb.calls
	tm := measureLoop(o.measure()/2, tsys.step, tsys.counts, &tsys.shim.lat)
	out.addGates(sys.ledger(), tsys.ledger(), progressGate("hier untraced", um), progressGate("hier traced", tm))

	tt := &traceTotals{}
	tt.addTracer(tr)
	pkts := float64(tm.units)
	a := &tt.aggs
	out.set("netsim.self_ns_per_pkt", float64(a[lNetsimRun].self+a[lNetsimInject].self)/pkts)
	setUntracedLayers(out, um)
	out.set("hier.next_packet.self_ns", a[lHierNext].selfPerCall())
	out.set("hier.next_wake.self_ns", a[lHierWake].selfPerCall())
	out.set("hier.list_calls_per_pkt", float64(tb.calls-calls0)/pkts)
	out.set("hier.rate_err_pct", rateErr)
	setCoreLayers(out, tt, hw)
	out.set("trace.overhead_ns_per_op", 1e9/tm.opRate-1e9/um.opRate)
	out.trace = tt
	out.traceUnits, out.unitName = tm.units, "pkt"
	return out, nil
}

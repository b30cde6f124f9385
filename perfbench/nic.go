package main

import (
	"fmt"
	"math/rand"
	"time"

	"pieo/internal/algos"
	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/flowq"
	"pieo/internal/netsim"
	"pieo/internal/sched"
	"pieo/internal/wire"

	_ "pieo/internal/refmodel" // registers the "ref" backend the gate compares against
)

// nic-wf2q: the Fig 1 NIC path on one goroutine. Pre-built frames are
// decoded and classified by wire, queued per flow in a WF²Q+ sched over
// the default core list, and sent on a netsim link. Each transmission
// re-injects one frame of the same flow, so every flow keeps depth
// packets queued (a closed loop).
type nicConfig struct {
	flows    int
	depth    int
	linkGbps float64
	refPkts  int // schedule prefix compared against the ref backend
	jainPkts int // transmissions the fairness index covers
}

var nicDefault = nicConfig{flows: 16384, depth: 4, linkGbps: 100, refPkts: 4096, jainPkts: 1 << 18}

// nicSliceNs is the simulated time one step advances: about 50 packets at
// 100 Gbps.
const nicSliceNs = 3_000

// nicLatEvery times one NextPacket in this many.
const nicLatEvery = 2

// Frame sizes of the bimodal mix, bytes on the wire.
const (
	smallFrame = 64
	largeFrame = 1500
)

// nicInputs is everything the seed decides.
type nicInputs struct {
	cfg     nicConfig
	weights []uint64    // per input flow, from {1,2,4,8}
	frames  [][2][]byte // per input flow: a small and a large frame
	sizes   []uint64    // per input flow: bit i%64 picks the size of its i-th frame
	order   []int       // order in which flows first arrive
}

func genNicInputs(cfg nicConfig, seed int64) *nicInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &nicInputs{
		cfg:     cfg,
		weights: make([]uint64, cfg.flows),
		frames:  make([][2][]byte, cfg.flows),
		sizes:   make([]uint64, cfg.flows),
		order:   rng.Perm(cfg.flows),
	}
	for f := 0; f < cfg.flows; f++ {
		t := wire.FiveTuple{
			SrcIP:    [4]byte{10, byte(f >> 16), byte(f >> 8), byte(f)},
			DstIP:    [4]byte{192, 168, byte(rng.Intn(256)), byte(rng.Intn(256))},
			SrcPort:  uint16(1024 + rng.Intn(60000)),
			DstPort:  []uint16{53, 80, 443, 8080}[rng.Intn(4)],
			Protocol: []uint8{wire.ProtoUDP, wire.ProtoTCP}[rng.Intn(2)],
		}
		hdr := 14 + 20 + 8
		if t.Protocol == wire.ProtoTCP {
			hdr = 14 + 20 + 20
		}
		in.frames[f] = [2][]byte{wire.BuildFrame(t, smallFrame-hdr), wire.BuildFrame(t, largeFrame-hdr)}
		in.weights[f] = 1 << rng.Intn(4)
		in.sizes[f] = rng.Uint64()
	}
	return in
}

// nicSystem is one instance of the NIC path under test.
type nicSystem struct {
	in    *nicInputs
	sched *sched.Scheduler
	shim  *schedShim
	be    backend.Backend
	sim   *netsim.Sim
	cls   *wire.Classifier
	dec   wire.Decoder
	tr    *tracer

	flowOf   []int32 // flow id -> input flow, -1 before first sight
	cursor   []uint8
	until    clock.Time
	injected uint64
	tx       uint64
	bad      int64 // frames that failed decode or classification

	record uint64   // transmissions recorded into sched and bytes
	sent   []uint64 // the recorded schedule
	bytes  []uint64 // per input flow, over the recorded transmissions
}

// newNicSystem builds the path over be (tr nil: untraced) and queues
// depth frames per flow.
func newNicSystem(in *nicInputs, be backend.Backend, tr *tracer, record uint64) (*nicSystem, error) {
	cfg := in.cfg
	s := &nicSystem{
		in:     in,
		sched:  sched.NewOn(algos.WF2Q(), be, cfg.linkGbps),
		be:     be,
		cls:    wire.NewClassifier(cfg.flows),
		tr:     tr,
		flowOf: make([]int32, cfg.flows),
		cursor: make([]uint8, cfg.flows),
		record: record,
		sent:   make([]uint64, 0, record),
		bytes:  make([]uint64, cfg.flows),
	}
	for i := range s.flowOf {
		s.flowOf[i] = -1
	}
	var err error
	if s.shim, err = newSchedShim(s.sched, tr, nicLatEvery, lSchedArrival, lSchedNext, lSchedWake); err != nil {
		return nil, err
	}
	s.sim = netsim.New(netsim.Link{RateGbps: cfg.linkGbps}, s.shim)
	s.sim.OnTransmit = s.onTransmit
	for k := 0; k < cfg.depth; k++ {
		for _, f := range in.order {
			s.ingest(0, f)
		}
	}
	return s, nil
}

// ingest takes input flow f's next frame through decode and classify and
// hands it to the simulator as an arrival at `at`.
func (s *nicSystem) ingest(at clock.Time, f int) {
	frame := s.in.frames[f][s.in.sizes[f]>>(s.cursor[f]&63)&1]
	s.cursor[f]++
	op := s.injected + 1
	if s.tr != nil {
		s.tr.begin(lWireDecode, op)
	}
	tuple, err := s.dec.Decode(frame)
	if s.tr != nil {
		s.tr.end()
	}
	if err != nil {
		s.bad++
		return
	}
	if s.tr != nil {
		s.tr.begin(lWireClassify, op)
	}
	id, ok := s.cls.Classify(tuple)
	if s.tr != nil {
		s.tr.end()
	}
	if !ok || int(id) >= len(s.flowOf) {
		s.bad++
		return
	}
	switch s.flowOf[id] {
	case -1:
		s.flowOf[id] = int32(f)
		s.sched.SetWeight(id, s.in.weights[f])
	case int32(f):
	default:
		s.bad++
		return
	}
	s.injected++
	p := flowq.Packet{Flow: id, Size: uint32(len(frame)), Seq: s.injected}
	if s.tr != nil {
		s.tr.begin(lNetsimInject, op)
		s.sim.InjectOne(at, p)
		s.tr.end()
		return
	}
	s.sim.InjectOne(at, p)
}

func (s *nicSystem) onTransmit(now clock.Time, p flowq.Packet) {
	if s.tr != nil {
		s.tr.begin(lBenchIngest, p.Seq)
		defer s.tr.end()
	}
	s.tx++
	f := s.flowOf[p.Flow]
	if s.tx <= s.record {
		s.sent = append(s.sent, schedEntry(uint32(p.Flow), p.Size, p.Seq))
		s.bytes[f] += uint64(p.Size)
	}
	s.ingest(now, int(f))
}

// schedEntry packs one transmission for schedule comparison.
func schedEntry(flow, size uint32, seq uint64) uint64 {
	return uint64(flow)<<32 | uint64(size)<<20 | seq&(1<<20-1)
}

// step advances simulated time by one slice.
func (s *nicSystem) step() {
	s.until += nicSliceNs
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
func (s *nicSystem) runUntilSent(n uint64) {
	for idle, last := 0, s.tx; s.tx < n && idle < stallSteps; {
		s.step()
		if s.tx == last {
			idle++
		} else {
			idle, last = 0, s.tx
		}
	}
}

// ledger checks the closed loop's conservation after a run, that nothing
// was dropped or faulted, and that every frame decoded and classified.
func (s *nicSystem) ledger() gate {
	g := s.shim.ledgerGate("nic", s.injected, s.tx, s.sched.Backlog())
	if d := s.sched.Drops(); d != 0 {
		g.fail(int64(d), fmt.Sprintf("%d tail drops", d))
	}
	if f := s.sched.FaultStats(); f != (backend.FaultStats{}) {
		g.fail(1, fmt.Sprintf("faults %+v", f))
	}
	if s.bad != 0 {
		g.fail(s.bad, fmt.Sprintf("%d frames failed decode or classify", s.bad))
	}
	return g
}

// weightedJain is the fairness index of bytes per unit weight over the
// recorded transmissions, across all flows.
func (s *nicSystem) weightedJain() float64 {
	xs := make([]float64, len(s.bytes))
	for f, b := range s.bytes {
		xs[f] = float64(b) / float64(s.in.weights[f])
	}
	return jain(xs)
}

// nicGates runs the seeded schedule prefix on the core list and on the
// ref backend and compares them, and returns the core run for the
// fairness index and hardware counts.
func nicGates(in *nicInputs, listName string) (*nicSystem, []gate, error) {
	cfg := in.cfg
	mk := func(name string, record int) (*nicSystem, error) {
		be, err := backend.New(name, cfg.flows)
		if err != nil {
			return nil, err
		}
		s, err := newNicSystem(in, be, nil, uint64(record))
		if err != nil {
			return nil, err
		}
		s.runUntilSent(uint64(record))
		return s, nil
	}
	sys, err := mk(listName, max(cfg.jainPkts, cfg.refPkts))
	if err != nil {
		return nil, nil, err
	}
	ref, err := mk("ref", cfg.refPkts)
	if err != nil {
		return nil, nil, err
	}
	g := gate{name: "nic schedule = ref", ops: int64(cfg.refPkts)}
	got := prefix(sys.sent, cfg.refPkts)
	if bad := mismatches(got, ref.sent); bad != 0 {
		g.fail(int64(bad), fmt.Sprintf("%d of %d transmissions differ from ref (digest %016x, ref %016x)",
			bad, cfg.refPkts, digestOf(got), digestOf(ref.sent)))
	}
	return sys, []gate{g, sys.ledger()}, nil
}

func runNic(o runOpts, cfg nicConfig) (*outcome, error) {
	in := genNicInputs(cfg, o.seed)
	heapBase := liveHeap()
	out := newOutcome()

	gateSys, gates, err := nicGates(in, "core")
	if err != nil {
		return nil, err
	}
	out.addGates(gates...)
	jainIdx := gateSys.weightedJain()
	hw := gateSys.be.(backend.HardwareModeled).HardwareStats()
	gateSched := prefix(gateSys.sent, cfg.refPkts)
	gateSys = nil

	build := func() (*nicSystem, error) {
		return newNicSystem(in, backend.NewCoreList(cfg.flows), nil, 0)
	}
	sys, setup, err := timedSetup(setupReps, build)
	if err != nil {
		return nil, err
	}

	if !o.trace {
		sys.runFor(o.warmup())
		m := measureLoop(o.measure(), sys.step, sys.counts, &sys.shim.lat)
		out.addGates(sys.ledger(), progressGate("nic", m))
		out.note("%s", m.describe("NextPacket calls"))
		out.set("setup_s", setup.Seconds())
		out.set("pkts_per_s", m.unitRate)
		out.set("ops_per_s", m.opRate)
		out.note("op_p50_ns %.1f ns, op_p99_ns %.1f ns (reported as metrics by --trace 1)", m.p50, m.p99)
		out.set("heap_mb", m.heapMB(heapBase))
		out.set("jain", jainIdx)
		return out, nil
	}

	// Traced run: the same seed untraced, then traced, each for half the
	// time; the traced schedule prefix must equal the untraced one.
	tr := newTracer(time.Now(), 0)
	tb, err := newTracedBackend(backend.NewCoreList(cfg.flows), tr)
	if err != nil {
		return nil, err
	}
	tsys, err := newNicSystem(in, tb, tr, uint64(cfg.refPkts))
	if err != nil {
		return nil, err
	}
	tsys.runUntilSent(uint64(cfg.refPkts))
	out.addGates(traceDigestGate("nic", tsys.sent, gateSched))

	sys.runFor(o.warmup())
	um := measureLoop(o.measure()/2, sys.step, sys.counts, &sys.shim.lat)
	tsys.runFor(o.warmup())
	tr.reset()
	calls0 := tb.calls
	tm := measureLoop(o.measure()/2, tsys.step, tsys.counts, &tsys.shim.lat)
	out.addGates(sys.ledger(), tsys.ledger(), progressGate("nic untraced", um), progressGate("nic traced", tm))

	tt := &traceTotals{}
	tt.addTracer(tr)
	pkts := float64(tm.units)
	a := &tt.aggs
	out.set("wire.decode_ns", a[lWireDecode].selfPerCall())
	out.set("wire.classify_ns", a[lWireClassify].selfPerCall())
	out.set("netsim.self_ns_per_pkt", float64(a[lNetsimRun].self+a[lNetsimInject].self)/pkts)
	setUntracedLayers(out, um)
	out.set("sched.next_packet.self_ns", a[lSchedNext].selfPerCall())
	out.set("sched.on_arrival.self_ns", a[lSchedArrival].selfPerCall())
	out.set("sched.list_calls_per_pkt", float64(tb.calls-calls0)/pkts)
	setCoreLayers(out, tt, hw)
	out.set("trace.overhead_ns_per_op", 1e9/tm.opRate-1e9/um.opRate)
	out.trace = tt
	out.traceUnits, out.unitName = tm.units, "pkt"
	return out, nil
}

// runFor steps the simulation for d of host time.
func (s *nicSystem) runFor(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
		s.step()
	}
}

// counts reports transmitted packets and NextPacket decisions.
func (s *nicSystem) counts() (units, ops uint64) { return s.tx, s.shim.decisions }

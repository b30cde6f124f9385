// Package sched implements the PIEO programming framework of §3.2: a
// scheduler built around a PIEO ordered list whose behavior is programmed
// through pre-enqueue and post-dequeue functions, a choice of
// input-triggered or output-triggered enqueue model, and asynchronous
// alarm functions that can pull specific flows out of the list, update
// their attributes, and push them back.
//
// Each element of the ordered list is a flow; scheduling a flow transmits
// the packet(s) at the head of its FIFO queue (Fig 3). All scheduling
// state lives either per flow (the Flow struct, which doubles as the
// control-plane surface: weights, rate limits, priorities) or globally on
// the Scheduler (the fair-queueing virtual clock), exactly as the paper
// prescribes.
package sched

import (
	"errors"
	"fmt"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/core"
	"pieo/internal/flowq"
	"pieo/internal/supervise"
)

// TriggerModel selects when the pre-enqueue function runs (§3.2.1).
type TriggerModel int

const (
	// OutputTriggered runs PreEnqueue whenever a packet is dequeued from
	// a flow queue (at flow re-enqueue) or arrives into an empty flow
	// queue. Rank/predicate computation sits on the critical scheduling
	// path but reflects the freshest state; shaping policies get more
	// precise guarantees.
	OutputTriggered TriggerModel = iota
	// InputTriggered runs PrePacket whenever a packet is enqueued into a
	// flow queue; the flow adopts its head packet's precomputed rank and
	// send time at re-enqueue, keeping the dequeue path minimal.
	InputTriggered
)

// String names the model.
func (m TriggerModel) String() string {
	switch m {
	case OutputTriggered:
		return "output-triggered"
	case InputTriggered:
		return "input-triggered"
	default:
		return fmt.Sprintf("TriggerModel(%d)", int(m))
	}
}

// Flow carries all per-flow scheduling state: the FIFO queue, the current
// rank and eligibility time, the control-plane configuration (weight,
// rate limit, priority, DRR quantum), and the algorithm scratch fields
// the §4 programs use. The control plane mutates the configuration
// fields directly; the programming functions own the rest.
type Flow struct {
	ID    flowq.FlowID
	Queue flowq.Queue

	// Scheduling attributes assigned by PreEnqueue (§3.1).
	Rank     uint64
	SendTime clock.Time

	// Control-plane configuration.
	Weight   uint64  // fair-queueing weight (WFQ/WF²Q+), default 1
	Quantum  uint64  // DRR quantum in bytes, default MTU-sized
	Priority uint64  // strict/static priority, smaller is better
	RateGbps float64 // token-bucket rate in Gbps (= bits per simulated ns)
	Burst    float64 // token-bucket depth in bytes

	// NewlyBacklogged is set by the framework when a packet arrives into
	// an empty queue and cleared after the next PreEnqueue runs.
	// Fair-queueing programs use it to apply Fig 2(a)'s
	// start = max(finish, V) only at busy-period starts; a continuously
	// backlogged flow's next start is exactly its previous finish.
	NewlyBacklogged bool

	// Algorithm scratch state.
	VirtualStart  uint64     // WF²Q+ per-flow virtual start time
	VirtualFinish uint64     // WFQ/WF²Q+ per-flow virtual finish time
	Deficit       uint64     // DRR deficit counter in bytes
	Tokens        float64    // token bucket level in bytes
	LastRefill    clock.Time // token bucket last update
	LastScheduled clock.Time // for starvation detection (§4.4)
	Blocked       bool       // paused by network feedback (§4.4 D3)
}

// Program is a scheduling algorithm expressed against the framework: a
// bundle of programming functions with paper-faithful defaults. Any nil
// hook uses the default behavior of §3.2.1.
type Program struct {
	Name  string
	Model TriggerModel

	// DequeueTime maps the wall clock to the monotonic time function the
	// predicate compares against (§3.1): identity (wall clock) when nil;
	// fair-queueing programs return the scheduler's virtual time.
	DequeueTime func(s *Scheduler, now clock.Time) clock.Time

	// PreEnqueue assigns f.Rank and f.SendTime before the flow enters
	// the ordered list (output-triggered model). Default: rank 1,
	// predicate always true.
	PreEnqueue func(s *Scheduler, now clock.Time, f *Flow)

	// PrePacket assigns p.Rank and p.SendAt when a packet arrives
	// (input-triggered model). Default: rank 1, predicate always true.
	PrePacket func(s *Scheduler, now clock.Time, f *Flow, p *flowq.Packet)

	// PostDequeue transmits from the dequeued flow and updates state.
	// It returns the packets to put on the wire and normally re-enqueues
	// the flow via s.EnqueueFlow when it stays backlogged. Default: pop
	// one packet, re-enqueue if the queue is not empty.
	PostDequeue func(s *Scheduler, now clock.Time, f *Flow) []flowq.Packet

	// Wake returns the wall time at which the next element could become
	// eligible, for non-work-conserving programs. Default: the list's
	// minimum send_time when DequeueTime is nil (wall-clock domain),
	// nothing otherwise.
	Wake func(s *Scheduler, now clock.Time) (clock.Time, bool)

	// OnArrival, if set, runs after every packet lands in its flow
	// queue. Algorithms whose rank depends on queue contents (SJF/SRTF)
	// use it to refresh the flow's list entry via Scheduler.Alarm — the
	// §4.4 "dynamically update the scheduling attributes" pattern.
	OnArrival func(s *Scheduler, now clock.Time, f *Flow)

	// OnIdle, if set, runs when the list holds elements but none is
	// eligible at the program's dequeue time. Returning true means the
	// program changed state (e.g. WF²Q+ jumped its virtual clock to the
	// minimum start time, the Fig 2(a) idle-link rule) and the dequeue
	// should be retried once.
	OnIdle func(s *Scheduler, now clock.Time) bool
}

// Scheduler is a flat (single-level) PIEO scheduler: one ordered list, a
// set of flows, and a program. It implements netsim.Scheduler and
// netsim.WakeHinter.
type Scheduler struct {
	Prog *Program
	// List is the ordered-list backend the scheduler extracts from. It
	// defaults to the paper-exact sublist implementation (core.List via
	// backend.CoreList); NewOn swaps in any other backend — sharded,
	// PIFO, approximate — without touching the programming framework.
	List         backend.Backend
	LinkRateGbps float64

	// V is the global fair-queueing virtual time (§4.1), maintained by
	// the WFQ-family programs. Time unit: scaled wire-nanoseconds.
	V clock.Virtual

	// SumWeights is the total weight of all configured flows, used to
	// convert packet wire time into per-flow virtual service (WF²Q+).
	SumWeights uint64

	// Admission selects what happens when the ordered list is full and a
	// flow must enter it (see backend.AdmissionPolicy): reject, tail-drop,
	// or rank-aware push-out. Whichever party is refused has its backlog
	// shed as declared drops (FaultStats.DroppedPackets).
	Admission backend.AdmissionPolicy

	// Overload, when set, is the graduated overload controller
	// (supervise.Controller): each flow admission evaluates
	// the list occupancy against its watermark ladder and runs under the
	// level's admission policy — admit-all → tail-drop → rank-aware
	// push-out → shed — instead of the static Admission field. At the
	// shed level arrivals are dropped at the door (counted in
	// FaultStats.AdmissionSheds) without touching the list.
	Overload *supervise.Controller

	// Clock and DequeueBudget bound NextPacket's extract-retry loop by
	// time instead of the raw spin guard: when both are set, a dequeue
	// episode that exceeds DequeueBudget ticks on Clock returns no packet
	// with core.ErrDeadline recorded (FaultStats.DeadlineExpiries) — the
	// graceful alternative to spinning until the guard counter trips.
	Clock         clock.Source
	DequeueBudget clock.Time

	flows   map[flowq.FlowID]*Flow
	pending []flowq.Packet // burst left over from a multi-packet PostDequeue
	drops   uint64         // packets tail-dropped at full flow queues

	faults  backend.FaultStats // fault and admission counters
	lastErr error              // most recent fault, for diagnosis

	arrivalBatch []core.Entry // OnArrivalBatch scratch, reused across calls
}

// New creates a scheduler for up to capacity concurrent flows on a link
// of the given rate, over the default paper-exact list backend.
func New(prog *Program, capacity int, linkRateGbps float64) *Scheduler {
	return NewOn(prog, backend.NewCoreList(capacity), linkRateGbps)
}

// NewNamed creates a scheduler over the named registered backend — the
// same registry pieosim's -backend flag consults, so "cffs" or
// "sharded+cffs" drop in without the caller touching internal/backend
// constructors.
func NewNamed(prog *Program, name string, capacity int, linkRateGbps float64) (*Scheduler, error) {
	b, err := backend.New(name, capacity)
	if err != nil {
		return nil, err
	}
	return NewOn(prog, b, linkRateGbps), nil
}

// NewOn creates a scheduler over an explicit ordered-list backend. The
// programming framework is backend-agnostic: any backend.Backend can
// carry the §3.2 functions, though approximate backends weaken the
// scheduling guarantees exactly as §2.3 predicts.
func NewOn(prog *Program, b backend.Backend, linkRateGbps float64) *Scheduler {
	if prog == nil {
		panic("sched: program must not be nil")
	}
	if b == nil {
		panic("sched: backend must not be nil")
	}
	if linkRateGbps <= 0 {
		panic(fmt.Sprintf("sched: link rate must be positive, got %v", linkRateGbps))
	}
	return &Scheduler{
		Prog:         prog,
		List:         b,
		LinkRateGbps: linkRateGbps,
		flows:        make(map[flowq.FlowID]*Flow),
	}
}

// FaultStats returns the fault and admission counters.
func (s *Scheduler) FaultStats() backend.FaultStats { return s.faults }

// LastFault returns the most recent fault, nil if none.
func (s *Scheduler) LastFault() error { return s.lastErr }

// fault records a fault for diagnosis.
func (s *Scheduler) fault(err error) { s.lastErr = err }

// flushFlow sheds f's entire queued backlog as declared drops — the
// overload/fault response when f cannot (re-)enter the ordered list: a
// flow outside the list is never scheduled, so keeping its packets would
// stall them silently; dropping them keeps conservation auditable.
func (s *Scheduler) flushFlow(f *Flow) {
	for {
		if _, ok := f.Queue.Pop(); !ok {
			break
		}
		s.faults.DroppedPackets++
	}
}

// BackendStats returns the ordered-list backend's operation counters, for
// netsim reporting and the cmd/ tools.
func (s *Scheduler) BackendStats() backend.Stats { return s.List.Stats() }

// Flow returns the per-flow state for id, creating it with default
// control-plane settings (weight 1, MTU quantum) on first use.
func (s *Scheduler) Flow(id flowq.FlowID) *Flow {
	f := s.flows[id]
	if f == nil {
		f = &Flow{ID: id, Weight: 1, Quantum: 1500}
		s.flows[id] = f
		s.SumWeights += f.Weight
	}
	return f
}

// SetWeight updates a flow's fair-queueing weight, keeping SumWeights
// coherent. Control-plane use.
func (s *Scheduler) SetWeight(id flowq.FlowID, w uint64) {
	if w == 0 {
		panic("sched: weight must be positive")
	}
	f := s.Flow(id)
	s.SumWeights += w - f.Weight
	f.Weight = w
}

// Flows returns the number of flows ever seen.
func (s *Scheduler) Flows() int { return len(s.flows) }

// WireTime returns the wire time of size bytes on this scheduler's link,
// in simulated nanoseconds.
func (s *Scheduler) WireTime(size uint32) clock.Time {
	ns := float64(size) * 8 / s.LinkRateGbps
	if ns < 1 {
		ns = 1
	}
	return clock.Time(ns)
}

// OnArrival implements netsim.Scheduler: deliver p to its flow queue and
// enqueue the flow into the ordered list if the queue was empty.
func (s *Scheduler) OnArrival(now clock.Time, p flowq.Packet) {
	f := s.Flow(p.Flow)
	if s.Prog.Model == InputTriggered {
		if s.Prog.PrePacket != nil {
			s.Prog.PrePacket(s, now, f, &p)
		} else {
			p.Rank = 1
			p.SendAt = clock.Always
		}
	}
	wasEmpty := f.Queue.Empty()
	if !f.Queue.TryPush(p) {
		s.drops++ // tail drop: the flow queue is at its configured limit
		return
	}
	if wasEmpty {
		f.NewlyBacklogged = true
		s.EnqueueFlow(now, f)
	}
	if s.Prog.OnArrival != nil {
		s.Prog.OnArrival(s, now, f)
	}
}

// OnArrivalBatch delivers ps in arrival order with the exact state
// evolution of per-packet OnArrival calls, but collects the ordered-list
// inserts of newly-backlogged flows and issues them as one batch through
// the backend's batch path (one lock acquisition on SyncList, one
// per-shard fan-out on the sharded engine). This is sound because the
// pre-enqueue functions compute each flow's rank inline at its arrival
// point — only the already-computed list inserts are deferred — and no
// §3.2.1 pre-enqueue/pre-packet hook reads the ordered list (the §4
// programs read it only from PostDequeue/OnIdle/OnArrival). Programs
// with an OnArrival hook fall back to per-packet delivery: the hook may
// inspect or rewrite the list between arrivals (SJF re-ranks via Alarm),
// so deferring inserts would change what it observes.
func (s *Scheduler) OnArrivalBatch(now clock.Time, ps []flowq.Packet) {
	if s.Prog.OnArrival != nil {
		for _, p := range ps {
			s.OnArrival(now, p)
		}
		return
	}
	batch := s.arrivalBatch[:0]
	for _, p := range ps {
		f := s.Flow(p.Flow)
		if s.Prog.Model == InputTriggered {
			if s.Prog.PrePacket != nil {
				s.Prog.PrePacket(s, now, f, &p)
			} else {
				p.Rank = 1
				p.SendAt = clock.Always
			}
		}
		wasEmpty := f.Queue.Empty()
		if !f.Queue.TryPush(p) {
			s.drops++
			continue
		}
		if wasEmpty {
			f.NewlyBacklogged = true
			// A flow can become newly backlogged at most once per batch
			// (no dequeues run in between), so the batch holds no
			// duplicate IDs beyond what the list already rejects.
			if ent, ok := s.prepareEntry(now, f); ok {
				batch = append(batch, ent)
			}
		}
	}
	s.arrivalBatch = batch[:0] // keep the grown capacity, not the entries
	if len(batch) == 0 {
		return
	}
	if _, err := backend.EnqueueBatch(s.List, batch); err != nil {
		// At least one insert failed. Re-check each batched flow: one
		// whose entry did not land would stall outside the list, so its
		// backlog is shed as declared drops (full lists go through the
		// per-flow admission path for policy handling).
		s.faults.BatchEnqueueFailures++
		s.fault(fmt.Errorf("sched: batch enqueue: %w", err))
		for _, ent := range batch {
			if s.List.Contains(ent.ID) {
				continue
			}
			f := s.flows[flowq.FlowID(ent.ID)]
			if f == nil {
				continue
			}
			if errors.Is(err, core.ErrFull) {
				// Retry through the admission policy, which decides
				// between reject, tail-drop, and push-out per flow.
				s.EnqueueFlow(now, f)
				continue
			}
			s.flushFlow(f)
		}
	}
}

// Drops returns the number of packets tail-dropped across all flows.
func (s *Scheduler) Drops() uint64 { return s.drops }

// NextPacket implements netsim.Scheduler: extract the smallest-ranked
// eligible flow, run the post-dequeue function, and hand the first packet
// of the resulting burst to the link. Remaining burst packets (DRR) are
// returned on subsequent calls before the list is consulted again.
func (s *Scheduler) NextPacket(now clock.Time) (flowq.Packet, bool) {
	if len(s.pending) > 0 {
		p := s.pending[0]
		s.pending = s.pending[1:]
		return p, true
	}
	t := now
	if s.Prog.DequeueTime != nil {
		t = s.Prog.DequeueTime(s, now)
	}
	// A post-dequeue may legitimately transmit nothing and re-enqueue the
	// flow (DRR whose deficit does not yet cover the head packet); keep
	// extracting until a packet emerges. Progress is guaranteed by the
	// program (DRR's deficit grows each visit), but a hard cap turns a
	// misbehaving program into a counted fault and an idle link instead
	// of a hang.
	// When a clock and budget are configured, the whole extract-retry
	// episode runs under a deadline: expiry surfaces as core.ErrDeadline
	// and an idle link instead of spinning the guard counter out.
	var deadline clock.Time
	if s.Clock != nil && s.DequeueBudget > 0 {
		deadline = supervise.Deadline(s.Clock, s.DequeueBudget)
	}
	retriedIdle := false
	for spins := 0; ; spins++ {
		if deadline != 0 && spins > 0 && supervise.Expired(s.Clock, deadline) {
			s.faults.DeadlineExpiries++
			s.fault(fmt.Errorf("sched: program %q: %w after %v budget (%d dequeues)",
				s.Prog.Name, core.ErrDeadline, s.DequeueBudget, spins))
			return flowq.Packet{}, false
		}
		if spins > 1<<22 {
			s.faults.SpinGuardTrips++
			s.fault(fmt.Errorf("sched: program %q made no progress after %d dequeues", s.Prog.Name, spins))
			return flowq.Packet{}, false
		}
		e, ok := s.List.Dequeue(t)
		if !ok {
			if !retriedIdle && s.List.Len() > 0 && s.Prog.OnIdle != nil && s.Prog.OnIdle(s, now) {
				retriedIdle = true
				if s.Prog.DequeueTime != nil {
					t = s.Prog.DequeueTime(s, now)
				}
				continue
			}
			return flowq.Packet{}, false
		}
		f := s.flows[flowq.FlowID(e.ID)]
		if f == nil {
			// The extracted element references no flow state (a
			// core.ErrUnknownFlow condition): discard it and keep
			// scheduling — the list is already consistent again.
			s.faults.UnknownFlows++
			s.fault(fmt.Errorf("%w: list returned id %d", core.ErrUnknownFlow, e.ID))
			continue
		}
		var burst []flowq.Packet
		if s.Prog.PostDequeue != nil {
			burst = s.Prog.PostDequeue(s, now, f)
		} else {
			burst = s.DefaultPostDequeue(now, f)
		}
		if len(burst) == 0 {
			continue
		}
		s.pending = burst[1:]
		return burst[0], true
	}
}

// DefaultPostDequeue is the §3.2.1 default: transmit the head packet and
// re-enqueue the flow if it stays backlogged. Custom post-dequeue hooks
// can call it after updating algorithm state.
func (s *Scheduler) DefaultPostDequeue(now clock.Time, f *Flow) []flowq.Packet {
	p, ok := f.Queue.Pop()
	if !ok {
		// A fault path (admission flush, chaotic backend) emptied the
		// queue while the flow's entry was still in flight: a phantom
		// extraction, counted like an unknown flow.
		s.faults.UnknownFlows++
		s.fault(fmt.Errorf("%w: flow %d scheduled with empty queue", core.ErrUnknownFlow, f.ID))
		return nil
	}
	if !f.Queue.Empty() {
		s.EnqueueFlow(now, f)
	}
	f.LastScheduled = now
	return []flowq.Packet{p}
}

// outranksWorst reports whether ent strictly outranks the worst resident
// of the ordered list — the shed level's premium carve-out. A read-only
// PeekMax costs far less than the insert the door-drop avoids, and a
// backend without eviction support reports false (nothing outranks, so
// shed stays unconditional — the conservative direction).
func (s *Scheduler) outranksWorst(ent core.Entry) bool {
	ev, ok := s.List.(backend.Evictor)
	if !ok {
		return false
	}
	worst, ok := ev.PeekMax()
	return ok && ent.Rank < worst.Rank
}

// EnqueueFlow (re-)inserts f into the ordered list: under the
// output-triggered model it runs the pre-enqueue function to assign rank
// and send time; under the input-triggered model the flow adopts its head
// packet's precomputed attributes. Blocked flows (§4.4) and flows already
// in the list are left alone.
//
// A full list is resolved by the Admission policy — the rejected party's
// backlog (the arriving flow's, or under push-out the evicted victim's)
// is shed as declared drops — and any other insert failure is counted in
// FaultStats with the arriving flow's backlog shed, so a flow never
// silently stalls outside the list.
func (s *Scheduler) EnqueueFlow(now clock.Time, f *Flow) {
	newly := f.NewlyBacklogged // prepareEntry clears it; the shed gate needs it
	ent, ok := s.prepareEntry(now, f)
	if !ok {
		return
	}
	pol := s.Admission
	if s.Overload != nil {
		// Graduated overload control: the controller steps the admission
		// policy through its watermark ladder on the observed occupancy.
		// Its hysteresis guarantees the level is stable at any constant
		// occupancy, so policy cannot flap between consecutive arrivals.
		lvl := s.Overload.Evaluate(s.List.Len())
		if lvl == supervise.LevelShed && newly && !s.outranksWorst(ent) {
			// Critical occupancy: drop NEW admissions at the door unless the
			// arrival outranks the worst resident. Two carve-outs keep the
			// last level from inverting the priority order it exists to
			// protect: re-enqueues from the dequeue path carry
			// already-admitted backlog (shedding those would punish exactly
			// the flows being served most — the best-ranked ones, which
			// cycle through dequeue/re-enqueue fastest), and an outranking
			// arrival is premium work the rank-aware policy would admit
			// anyway. Both compete under push-out; everything else is
			// dropped before it touches the list.
			s.Overload.NoteShed()
			s.faults.AdmissionSheds++
			s.flushFlow(f)
			return
		}
		pol = lvl.Policy()
	}
	out, err := backend.Admit(s.List, pol, ent)
	switch {
	case err == nil:
		if out.DidEvict {
			s.faults.AdmissionEvictions++
			if vf := s.flows[flowq.FlowID(out.Evicted.ID)]; vf != nil {
				s.flushFlow(vf)
			}
		}
		if out.DroppedArrival {
			s.faults.AdmissionTailDrops++
			s.flushFlow(f)
		}
	case errors.Is(err, core.ErrFull): // AdmitReject surfaced the full list
		s.faults.AdmissionRejects++
		s.flushFlow(f)
	case errors.Is(err, core.ErrDuplicate):
		// Benign: the flow is already queued (an idempotent re-enqueue
		// race the Contains pre-check missed).
	default:
		s.faults.EnqueueFailures++
		s.fault(fmt.Errorf("sched: enqueue flow %d: %w", f.ID, err))
		s.flushFlow(f)
	}
}

// prepareEntry runs EnqueueFlow's guard and attribute assignment —
// everything except the list insert itself — and returns the entry to
// insert. ok is false when the flow must stay out of the list (blocked,
// empty queue, already present). OnArrivalBatch uses it to compute each
// flow's attributes at its exact arrival point while deferring the
// inserts into one batch.
func (s *Scheduler) prepareEntry(now clock.Time, f *Flow) (core.Entry, bool) {
	if f.Blocked || f.Queue.Empty() || s.List.Contains(uint32(f.ID)) {
		return core.Entry{}, false
	}
	switch s.Prog.Model {
	case OutputTriggered:
		if s.Prog.PreEnqueue != nil {
			s.Prog.PreEnqueue(s, now, f)
		} else {
			f.Rank = 1
			f.SendTime = clock.Always
		}
	case InputTriggered:
		head, _ := f.Queue.Head()
		f.Rank = head.Rank
		f.SendTime = head.SendAt
	}
	f.NewlyBacklogged = false
	return core.Entry{ID: uint32(f.ID), Rank: f.Rank, SendTime: f.SendTime}, true
}

// Alarm implements the §3.2/§4.4 asynchronous path: extract flow id from
// the ordered list if present, apply update, and re-enqueue it (unless
// the update blocked the flow or the flow has nothing to send). It
// reports whether the flow existed.
func (s *Scheduler) Alarm(now clock.Time, id flowq.FlowID, update func(f *Flow)) bool {
	f := s.flows[id]
	if f == nil {
		return false
	}
	s.List.DequeueFlow(uint32(id))
	update(f)
	s.EnqueueFlow(now, f)
	return true
}

// NextWake implements netsim.WakeHinter.
func (s *Scheduler) NextWake(now clock.Time) (clock.Time, bool) {
	if s.Prog.Wake != nil {
		return s.Prog.Wake(s, now)
	}
	if s.Prog.DequeueTime != nil {
		// Non-wall predicate domain: no wall-clock mapping is known.
		return 0, false
	}
	if t, ok := backend.NextWakeAfter(s.List, now); ok {
		// The eligibility index answers the WakeHinter contract directly:
		// the exact earliest FUTURE eligibility instant, with elements
		// eligible already excluded (the simulator polls those without a
		// hint) and all-Never backlogs reported as "no wake known"
		// instead of an arm-at-infinity hint.
		return t, t != clock.Never
	}
	return s.List.MinSendTime()
}

// Backlog returns the total packets queued across all flows.
func (s *Scheduler) Backlog() int {
	total := len(s.pending)
	for _, f := range s.flows {
		total += f.Queue.Len()
	}
	return total
}

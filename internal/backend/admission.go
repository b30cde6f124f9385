package backend

import (
	"errors"
	"fmt"

	"pieo/internal/core"
)

// AdmissionPolicy selects what happens when an Enqueue meets a full
// ordered list. The paper's hardware provisions the list for the worst
// case and never overflows; a software deployment shared by untrusted
// tenants cannot, so saturation behavior becomes part of the scheduling
// contract (Eiffel makes the same observation for software schedulers,
// and RIFO shows rank-aware push-out is the principled shedding rule for
// a bounded programmable scheduler).
type AdmissionPolicy int

const (
	// AdmitReject refuses the arrival: the caller gets core.ErrFull and
	// decides what to shed. This is the zero value and matches the
	// historical behavior of every backend.
	AdmitReject AdmissionPolicy = iota
	// AdmitTailDrop absorbs the overflow silently: the arrival is
	// dropped, the resident set is untouched, and the caller sees
	// success-with-drop rather than an error.
	AdmitTailDrop
	// AdmitPushOut applies RIFO's rank-aware rule: if the arrival
	// outranks (has a strictly smaller rank than) the largest-ranked
	// resident element, that element is evicted to make room; otherwise
	// the arrival itself is dropped. Requires the Evictor capability;
	// backends without it degrade to AdmitTailDrop.
	AdmitPushOut
)

// String names the policy.
func (p AdmissionPolicy) String() string {
	switch p {
	case AdmitReject:
		return "reject"
	case AdmitTailDrop:
		return "tail-drop"
	case AdmitPushOut:
		return "push-out"
	default:
		return fmt.Sprintf("AdmissionPolicy(%d)", int(p))
	}
}

// Evictor is implemented by backends that can identify and remove their
// largest-ranked resident element — the victim a rank-aware push-out
// admission policy sheds. Among equal maximal ranks the newest arrival
// is the victim, so eviction undoes the most recent low-priority
// admission first.
type Evictor interface {
	// PeekMax reports the current push-out victim without removing it.
	PeekMax() (core.Entry, bool)
	// EvictMax removes and returns the current push-out victim.
	EvictMax() (core.Entry, bool)
}

// AdmitOutcome reports what an Admit call did with the arrival.
type AdmitOutcome struct {
	// Admitted is true when the arrival entered the list (directly or
	// after a push-out eviction).
	Admitted bool
	// DroppedArrival is true when the policy shed the arrival itself
	// (tail-drop, or push-out where the arrival did not outrank the
	// resident maximum).
	DroppedArrival bool
	// Evicted is the resident element push-out removed; valid only when
	// DidEvict is true.
	Evicted  core.Entry
	DidEvict bool
}

// Admit inserts e into b under the given admission policy. On a full
// list the policy decides between rejecting (core.ErrFull), dropping the
// arrival, and evicting the largest-ranked resident; every other error
// (duplicate, shard down, injected faults) passes through unchanged so
// callers keep their typed-error handling.
func Admit(b Backend, pol AdmissionPolicy, e core.Entry) (AdmitOutcome, error) {
	err := b.Enqueue(e)
	if err == nil {
		return AdmitOutcome{Admitted: true}, nil
	}
	if !errors.Is(err, core.ErrFull) {
		return AdmitOutcome{}, err
	}
	switch pol {
	case AdmitTailDrop:
		return AdmitOutcome{DroppedArrival: true}, nil
	case AdmitPushOut:
		ev, ok := b.(Evictor)
		if !ok {
			// No eviction capability: degrade to tail-drop rather than
			// failing — the policy is a shedding preference, not a
			// correctness requirement.
			return AdmitOutcome{DroppedArrival: true}, nil
		}
		victim, ok := ev.PeekMax()
		if !ok || e.Rank >= victim.Rank {
			// The arrival does not outrank the resident maximum (or the
			// full signal raced an empty list): shed the arrival.
			return AdmitOutcome{DroppedArrival: true}, nil
		}
		victim, ok = ev.EvictMax()
		if !ok {
			return AdmitOutcome{DroppedArrival: true}, nil
		}
		if err := b.Enqueue(e); err != nil {
			// The freed slot vanished (injected fault or a concurrent
			// producer). Put the victim back on a best-effort basis so
			// push-out never loses two elements for one arrival.
			if rerr := b.Enqueue(victim); rerr != nil {
				return AdmitOutcome{}, fmt.Errorf(
					"pieo: push-out re-enqueue failed (%w) and victim %d restore failed (%v)", err, victim.ID, rerr)
			}
			return AdmitOutcome{}, err
		}
		return AdmitOutcome{Admitted: true, Evicted: victim, DidEvict: true}, nil
	default: // AdmitReject
		return AdmitOutcome{}, err
	}
}

// FaultStats is the resilience counter block scheduler layers expose
// (sched.Scheduler, hier.Hierarchy) and netsim surfaces through its
// FaultReporter hook. Each counter is a fault or admission outcome the
// layer absorbed instead of panicking; the layer also retains the most
// recent fault error for diagnosis.
type FaultStats struct {
	// SpinGuardTrips counts dequeue loops abandoned by the no-progress
	// guard instead of panicking.
	SpinGuardTrips uint64
	// EnqueueFailures counts flow (re-)enqueues that failed with an
	// error other than capacity — injected faults, shard-down, or
	// unexpected duplicates.
	EnqueueFailures uint64
	// BatchEnqueueFailures counts batch enqueue calls that reported at
	// least one failed entry.
	BatchEnqueueFailures uint64
	// UnknownFlows counts ordered-list extractions whose ID had no
	// registered flow state (core.ErrUnknownFlow conditions).
	UnknownFlows uint64
	// AdmissionRejects, AdmissionTailDrops, and AdmissionEvictions count
	// full-list admission outcomes per policy decision.
	AdmissionRejects   uint64
	AdmissionTailDrops uint64
	AdmissionEvictions uint64
	// DroppedPackets counts packets shed by admission decisions and
	// fault handling — the scheduler's declared drops, disjoint from
	// per-flow-queue tail drops.
	DroppedPackets uint64
	// AdmissionSheds counts arrivals dropped at the door by the graduated
	// overload controller's shed level, before touching the ordered list.
	AdmissionSheds uint64
	// DeadlineExpiries counts deadline-wrapped blocking operations that
	// returned core.ErrDeadline instead of spinning out their budget.
	DeadlineExpiries uint64
}

// Add accumulates other into s, for aggregating per-level counters.
func (s *FaultStats) Add(other FaultStats) {
	s.SpinGuardTrips += other.SpinGuardTrips
	s.EnqueueFailures += other.EnqueueFailures
	s.BatchEnqueueFailures += other.BatchEnqueueFailures
	s.UnknownFlows += other.UnknownFlows
	s.AdmissionRejects += other.AdmissionRejects
	s.AdmissionTailDrops += other.AdmissionTailDrops
	s.AdmissionEvictions += other.AdmissionEvictions
	s.DroppedPackets += other.DroppedPackets
	s.AdmissionSheds += other.AdmissionSheds
	s.DeadlineExpiries += other.DeadlineExpiries
}

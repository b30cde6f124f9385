// Package backend defines the pluggable ordered-list contract every PIEO
// consumer programs against. The paper scales past a single physical list
// by instantiating "multiple physical PIEOs" and partitioning flows across
// them (§4.3); related designs trade exactness for throughput with bucketed
// or approximate list organizations (Eiffel's FFS-based queues, RIFO).
// Pinning every layer of this repo to *core.List would make each such
// organization a cross-cutting rewrite, so the scheduler framework
// (internal/sched), the hierarchy (internal/hier), the concurrency wrappers
// (SyncList, internal/shard), and the tools all speak this interface
// instead and any backend can drive the full §3.2 programming framework.
//
// The contract is the PIEO operation set of §3.1:
//
//   - Enqueue ("Push-In"): insert at the rank position, FIFO among equal
//     ranks, ErrFull at capacity, ErrDuplicate for a queued ID.
//   - Dequeue ("Extract-Out"): remove the smallest-ranked element whose
//     eligibility predicate (send_time <= now) holds.
//   - DequeueFlow (dequeue(f)): remove a specific element regardless of
//     eligibility — the asynchronous alarm path of §4.4.
//   - DequeueRange: Extract-Out restricted to IDs in [lo, hi] — the
//     logical-PIEO extraction hierarchical scheduling builds on (§4.3).
//
// Exact backends (core.List, the sharded engine when quiescent) implement
// the contract bit-for-bit and are differentially tested against
// internal/refmodel; approximate backends (PIFO head-of-line, multi-band
// FIFO) document where they relax it. Optional capabilities — peeking,
// atomic re-ranking, invariant checking, hardware cost counters — are
// expressed as extension interfaces so consumers degrade gracefully.
package backend

import (
	"fmt"
	"sort"
	"sync"

	"pieo/internal/clock"
	"pieo/internal/core"
)

// Stats is the backend-independent operation summary. Unlike core.Stats it
// carries no hardware-model counters (cycles, SRAM ports) — those stay
// specific to backends that model a datapath and are reachable through the
// HardwareModeled extension.
type Stats struct {
	Enqueues      uint64
	Dequeues      uint64 // successful Dequeue
	EmptyDequeues uint64 // Dequeue that found no eligible element
	FlowDequeues  uint64 // successful DequeueFlow
	RangeDequeues uint64 // successful DequeueRange
}

// Add accumulates other into s, for aggregating per-shard counters.
func (s *Stats) Add(other Stats) {
	s.Enqueues += other.Enqueues
	s.Dequeues += other.Dequeues
	s.EmptyDequeues += other.EmptyDequeues
	s.FlowDequeues += other.FlowDequeues
	s.RangeDequeues += other.RangeDequeues
}

// Backend is the ordered-list contract of §3.1 plus the queries the
// scheduler framework needs (Contains for idempotent re-enqueue,
// MinSendTime for WF²Q+ virtual-time updates and wake hints, Snapshot for
// tests and reporting).
type Backend interface {
	// Enqueue inserts e at its rank position (FIFO among equal ranks).
	// It returns core.ErrFull at capacity and core.ErrDuplicate when
	// e.ID is already queued.
	Enqueue(e core.Entry) error
	// Dequeue extracts the smallest-ranked element eligible at now.
	Dequeue(now clock.Time) (core.Entry, bool)
	// DequeueFlow extracts the element with the given id regardless of
	// eligibility.
	DequeueFlow(id uint32) (core.Entry, bool)
	// DequeueRange extracts the smallest-ranked element eligible at now
	// whose ID lies in [lo, hi].
	DequeueRange(now clock.Time, lo, hi uint32) (core.Entry, bool)
	// Len returns the number of queued elements.
	Len() int
	// Contains reports whether id is currently queued.
	Contains(id uint32) bool
	// MinSendTime returns the smallest send_time across queued elements;
	// ok is false when the backend is empty.
	MinSendTime() (clock.Time, bool)
	// Snapshot returns every queued entry in increasing (rank, FIFO)
	// order — or the backend's best approximation of it.
	Snapshot() []core.Entry
	// Stats returns the accumulated operation counters.
	Stats() Stats
}

// Peeker is implemented by backends that can report what Dequeue or
// DequeueRange would extract without removing it.
type Peeker interface {
	Peek(now clock.Time) (core.Entry, bool)
	PeekRange(now clock.Time, lo, hi uint32) (core.Entry, bool)
}

// RankUpdater is implemented by backends that can atomically re-rank a
// queued element — the dequeue(f)+enqueue(f) pattern of §3.1 fused into
// one operation so concurrent readers never observe the element missing.
type RankUpdater interface {
	UpdateRank(id uint32, rank uint64, sendTime clock.Time) bool
}

// RankRanger is implemented by backends that additionally support the §8
// dictionary queries — successor lookup by rank and destructive
// extraction within a rank interval. core.List provides both; backends
// without total rank order (multi-band FIFOs) cannot.
type RankRanger interface {
	Backend
	MinRankAtLeast(lo uint64) (core.Entry, bool)
	DequeueRankRange(lo, hi uint64) (core.Entry, bool)
}

// RangeSeeker is implemented by backends whose ranged dequeue can start
// at a caller-supplied rank floor instead of at the head of the rank
// order. The caller guarantees that no queued element with ID in [lo, hi]
// ranks below floor; the result is then the one DequeueRange returns. A
// logical-PIEO partitioner that tracks its band's minimum rank passes it
// as the floor. core.List provides it.
type RangeSeeker interface {
	DequeueRangeFrom(now clock.Time, lo, hi uint32, floor uint64) (core.Entry, bool)
}

// EligIndexed is implemented by backends that keep a timing-wheel
// eligibility index over send_time (internal/timewheel): an exact O(1)
// answer to "when does the next currently-ineligible element become
// eligible", independent of how many elements are queued. The sharded
// engine uses it to keep per-shard minSend summaries exact after every
// mutation (including removals) and to publish exact nextElig bounds;
// netsim's wake hinting uses it to sleep to the precise next release.
type EligIndexed interface {
	// NextWakeAfter returns the exact smallest send_time strictly
	// greater than now among queued elements, or clock.Never when no
	// such element exists. Elements already eligible at now do not
	// contribute: the caller polls Dequeue for those.
	NextWakeAfter(now clock.Time) clock.Time
	// EligIndexActive reports whether the index is live. When false
	// (see DisableEligIndex), NextWakeAfter still answers exactly but
	// by scanning — the configuration the pacing experiments use as
	// the recorded non-wheel baseline.
	EligIndexActive() bool
	// DisableEligIndex drops the index permanently for this instance;
	// the backend falls back to its summary-scan paths. Safe at any
	// point in the lifecycle (the index is advisory, never
	// authoritative).
	DisableEligIndex()
}

// NextWakeAfter consults b's eligibility index, reporting ok=false when
// b does not implement the capability.
func NextWakeAfter(b Backend, now clock.Time) (clock.Time, bool) {
	if ix, ok := b.(EligIndexed); ok {
		return ix.NextWakeAfter(now), true
	}
	return 0, false
}

// InvariantChecker is implemented by backends with internal structure
// worth validating after mutations (the sublist geometry of core.List,
// the shard partitioning of internal/shard).
type InvariantChecker interface {
	CheckInvariants() error
}

// HardwareModeled is implemented by backends that model a hardware
// datapath and count its work in core.Stats terms.
type HardwareModeled interface {
	HardwareStats() core.Stats
}

// CombiningStats is what the removed flat-combining ingress layer used
// to report. RingOps is always zero.
//
// Deprecated: kept only because the perfbench module still reads
// RingOps (its shard.ring_frac metric); remove together with that metric.
type CombiningStats struct {
	RingOps uint64
}

// Combining names the removed flat-combining capability.
//
// Deprecated: kept only because the perfbench module still lists it
// among the capabilities its wrappers must forward; remove together with
// that entry.
type Combining interface {
	CombiningStats() CombiningStats
}

// CheckInvariants validates b's internal structure when it supports
// checking, and reports nil otherwise.
func CheckInvariants(b Backend) error {
	if c, ok := b.(InvariantChecker); ok {
		return c.CheckInvariants()
	}
	return nil
}

// UpdateRank atomically re-ranks id on backends that support it; on other
// backends it falls back to DequeueFlow + Enqueue (not atomic with respect
// to concurrent readers, which is fine for single-threaded consumers).
// When the re-enqueue half fails (an injected fault, or a concurrent
// producer stealing the freed slot on a racy backend), the dequeued
// element is restored with its original attributes and the failure is
// returned as an error instead of panicking; the element is lost only if
// the restore fails too, and the error says so explicitly.
func UpdateRank(b Backend, id uint32, rank uint64, sendTime clock.Time) (bool, error) {
	if u, ok := b.(RankUpdater); ok {
		return u.UpdateRank(id, rank, sendTime), nil
	}
	orig, ok := b.DequeueFlow(id)
	if !ok {
		return false, nil
	}
	e := orig
	e.Rank = rank
	e.SendTime = sendTime
	if err := b.Enqueue(e); err != nil {
		if rerr := b.Enqueue(orig); rerr != nil {
			return false, fmt.Errorf(
				"backend: UpdateRank re-enqueue failed (%w) and restore of %d failed (%v): element lost", err, id, rerr)
		}
		return false, fmt.Errorf("backend: UpdateRank re-enqueue failed: %w", err)
	}
	return true, nil
}

// --- Registry ---
//
// Backends register a constructor under a short name so tools (pieosim
// -backend, the differential harness) can be parameterized without linking
// package identities into every consumer. Registration happens in init
// functions; internal/shard registers itself, so a caller that wants the
// sharded engine available must import it (the facade does).

var (
	regMu    sync.RWMutex
	registry = map[string]func(capacity int) Backend{}
)

// Register binds name to a constructor. It panics on duplicates: two
// packages claiming one name is a wiring bug.
func Register(name string, factory func(capacity int) Backend) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("backend: %q registered twice", name))
	}
	registry[name] = factory
}

// New constructs the backend registered under name with the given
// capacity.
func New(name string, capacity int) (Backend, error) {
	regMu.RLock()
	factory := registry[name]
	regMu.RUnlock()
	if factory == nil {
		return nil, fmt.Errorf("backend: unknown backend %q (have %v)", name, Names())
	}
	return factory(capacity), nil
}

// Names returns the registered backend names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

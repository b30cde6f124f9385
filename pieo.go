// Package pieo is a Go implementation of PIEO (Push-In-Extract-Out), the
// programmable packet scheduling primitive of "Fast, Scalable, and
// Programmable Packet Scheduler in Hardware" (Vishal Shrivastav, SIGCOMM
// 2019), together with the scheduler framework, algorithm catalogue,
// hierarchical composition, hardware cost model, and evaluation harness
// that reproduce the paper.
//
// A PIEO list keeps elements ordered by a programmable rank and attaches
// to each element an eligibility predicate encoded as a send time; a
// dequeue extracts the smallest-ranked element whose predicate holds
// ("schedule the smallest ranked eligible element"). Unlike a PIFO
// priority queue, which can only pop its head, PIEO can dequeue from
// arbitrary positions via the predicate filter — which is exactly what
// algorithms such as WF²Q+ and all non-work-conserving shapers need.
//
// The package re-exports the core types so applications depend only on
// the module root:
//
//	l := pieo.NewList(1024)
//	l.Enqueue(pieo.Entry{ID: 7, Rank: 42, SendTime: 1000})
//	e, ok := l.Dequeue(now) // smallest-ranked eligible element
//
// Higher layers:
//
//   - NewScheduler + a Program (DRR, WFQ, WF2Q, TokenBucket, …) runs the
//     §3.2 programming framework over per-flow FIFO queues.
//   - NewHierarchy composes per-node policies into the §4.3 multi-level
//     scheduler (e.g. per-VM rate limits with per-flow fair queueing).
//   - NewSim drives any scheduler on a simulated link at nanosecond
//     granularity.
//   - RunExperiment regenerates the paper's tables and figures.
package pieo

import (
	"fmt"

	"pieo/internal/algos"
	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/core"
	"pieo/internal/experiments"
	"pieo/internal/flowq"
	"pieo/internal/hier"
	"pieo/internal/hwmodel"
	"pieo/internal/netsim"
	"pieo/internal/sched"
	"pieo/internal/shard"
	"pieo/internal/supervise"
	"pieo/internal/wire"

	// Linked for its backend registration only: keeps the flat executable
	// spec selectable as "ref" wherever the facade's registry is used
	// (NewBackend, pieosim -backend), not just in the test binaries that
	// import it directly.
	_ "pieo/internal/refmodel"
)

// Core list types (§3.1, §5).
type (
	// Time is an opaque monotonic tick; algorithms choose the unit.
	Time = clock.Time
	// Entry is one element of a PIEO ordered list.
	Entry = core.Entry
	// List is the PIEO ordered list, implemented with the paper's
	// sublist architecture.
	List = core.List
	// ListStats counts hardware work (cycles, SRAM accesses) per list.
	ListStats = core.Stats
)

// Predicate sentinels (§5.2): Always encodes an eligibility predicate
// that is always true, Never one that is always false.
const (
	Always = clock.Always
	Never  = clock.Never
)

// Typed errors. Every backend and layer reports failure through these
// (DESIGN.md §8) instead of panicking; strict-mode scheduler layers
// re-panic on them for the historical contract.
var (
	ErrFull      = core.ErrFull
	ErrDuplicate = core.ErrDuplicate
	// ErrShardDown reports an operation the sharded engine refused
	// because every shard that could serve it is quarantined.
	ErrShardDown = core.ErrShardDown
	// ErrUnknownFlow reports an ordered-list extraction whose ID has no
	// registered flow state.
	ErrUnknownFlow = core.ErrUnknownFlow
	// ErrDeadline reports a blocking operation that exceeded its
	// configured time budget on the supervision clock (DESIGN.md §12).
	ErrDeadline = core.ErrDeadline
)

// NewList creates a PIEO ordered list with capacity n using the paper's
// √n sublist geometry.
func NewList(n int) *List { return core.New(n) }

// NewListWithSublistSize creates a PIEO list with an explicit sublist
// size (geometry ablations).
func NewListWithSublistSize(n, s int) *List { return core.NewWithSublistSize(n, s) }

// Pluggable ordered-list backends.
type (
	// Backend is the ordered-list contract every consumer (scheduler,
	// hierarchy, SyncList, tools) programs against; core.List, the PIFO
	// baseline, the multi-band approximation, and the sharded engine all
	// satisfy it.
	Backend = backend.Backend
	// BackendStats counts backend operations (enqueues, dequeues, …).
	BackendStats = backend.Stats
	// Optional backend capabilities, discovered by type assertion: a
	// backend implements what it honestly can, callers degrade
	// gracefully. Aliased here because internal/backend is unimportable
	// from outside the module.
	Peeker           = backend.Peeker
	RankUpdater      = backend.RankUpdater
	RankRanger       = backend.RankRanger
	InvariantChecker = backend.InvariantChecker
	HardwareModeled  = backend.HardwareModeled
	// EligIndexed is the timing-wheel eligibility-index capability: an
	// exact O(1) "when does the next ineligible element become eligible"
	// answer (internal/timewheel), with a switch to drop the index for
	// baseline measurements.
	EligIndexed = backend.EligIndexed
	// Batcher is the batch-operation capability: EnqueueBatch/DequeueUpTo
	// with exact sequential semantics but amortized per-op overhead.
	Batcher = backend.Batcher
	// ShardedList is the concurrent PIEO engine: flows hash-partitioned
	// across independently-locked lists, dequeue as a tournament over
	// per-shard summaries.
	ShardedList = shard.Engine
	// AdmissionPolicy selects what a full list does with an arrival in
	// non-strict mode: reject, tail-drop, or rank-aware push-out
	// (DESIGN.md §8).
	AdmissionPolicy = backend.AdmissionPolicy
	// AdmitOutcome reports what an admission decision did with the
	// arrival (admitted, dropped, or admitted-by-eviction).
	AdmitOutcome = backend.AdmitOutcome
	// Evictor is the push-out capability: backends that can identify and
	// shed their largest-ranked resident element.
	Evictor = backend.Evictor
	// FaultStats counts the non-strict faults and admission decisions a
	// scheduler layer absorbed instead of panicking.
	FaultStats = backend.FaultStats
	// ShardFaultStats counts quarantine/rebuild/loss activity inside the
	// sharded engine.
	ShardFaultStats = shard.FaultStats
	// ShardFaultEvent is one entry of the sharded engine's fault log,
	// stamped with its supervision-clock instant; recovery events carry
	// the episode's downtime, so MTTR is computable from the log alone
	// (MTTRFromEvents).
	ShardFaultEvent = shard.FaultEvent
)

// Self-healing supervision surface (DESIGN.md §12).
type (
	// Health is the capability health-aware backends implement: a
	// point-in-time report of occupancy plus per-partition circuit-breaker
	// state. The sharded engine and SyncList both implement it.
	Health = backend.Health
	// HealthReport is the point-in-time backend health snapshot.
	HealthReport = backend.HealthReport
	// ShardHealth is one partition's health entry in a HealthReport.
	ShardHealth = backend.ShardHealth
	// BreakerPhase is a partition's circuit-breaker state
	// (closed / open / half-open).
	BreakerPhase = backend.BreakerPhase
	// BreakerConfig tunes the sharded engine's per-shard circuit breakers
	// (backoff schedule, probation budget, jitter); see
	// ShardedList.SetBreakerConfig.
	BreakerConfig = supervise.BreakerConfig
	// OverloadController steps admission through the graduated overload
	// ladder (admit-all → tail-drop → push-out → shed) on occupancy
	// watermarks with hysteresis; attach one to Scheduler.Overload.
	OverloadController = supervise.Controller
	// OverloadControllerStats is a controller counter snapshot
	// (level, evaluations, transitions, sheds).
	OverloadControllerStats = supervise.ControllerStats
	// OverloadLevel is one rung of the graduated overload ladder.
	OverloadLevel = supervise.Level
	// Watermarks are the enter/exit occupancy fractions of each overload
	// level; the enter/exit gap is the no-flapping hysteresis.
	Watermarks = supervise.Watermarks
)

// Circuit-breaker phases (DESIGN.md §12).
const (
	BreakerClosed   = backend.BreakerClosed
	BreakerOpen     = backend.BreakerOpen
	BreakerHalfOpen = backend.BreakerHalfOpen
)

// Graduated overload levels (DESIGN.md §12).
const (
	LevelAdmitAll = supervise.LevelAdmitAll
	LevelTailDrop = supervise.LevelTailDrop
	LevelPushOut  = supervise.LevelPushOut
	LevelShed     = supervise.LevelShed
)

// HealthOf returns b's health report when the backend implements the
// Health capability.
func HealthOf(b Backend) (HealthReport, bool) { return backend.HealthOf(b) }

// NewOverloadController builds a graduated overload controller for a
// backend of the given capacity; a zero Watermarks selects the default
// ladder (tail-drop 70/60, push-out 85/75, shed 97/90).
func NewOverloadController(capacity int, wm Watermarks) *OverloadController {
	return supervise.NewController(capacity, wm)
}

// MTTRFromEvents computes recovery statistics from a sharded engine's
// fault log alone: the number of completed outage episodes and their
// total and maximum downtime on the supervision clock.
func MTTRFromEvents(events []ShardFaultEvent) (recoveries int, total, max Time) {
	return shard.MTTR(events)
}

// Admission policies for full lists (DESIGN.md §8).
const (
	AdmitReject   = backend.AdmitReject
	AdmitTailDrop = backend.AdmitTailDrop
	AdmitPushOut  = backend.AdmitPushOut
)

// Admit inserts e into b under the given admission policy: a full list
// is resolved by the policy (reject / drop arrival / evict the
// largest-ranked resident), every other error passes through unchanged.
func Admit(b Backend, pol AdmissionPolicy, e Entry) (AdmitOutcome, error) {
	return backend.Admit(b, pol, e)
}

// WrapList adapts a core List to the Backend interface.
func WrapList(l *List) Backend { return backend.WrapCore(l) }

// NewShardedList creates a sharded concurrent PIEO engine with capacity
// n split across k independently-locked shards (k <= 0 selects the
// default shard count) over the paper-exact core list in each shard.
func NewShardedList(n, k int) *ShardedList { return shard.New(n, k) }

// NewShardedListOn creates a sharded engine whose shards run the named
// registered shard backend ("core", "cffs", ...) — the engine's
// tournament, per-shard locking, and quarantine machinery are
// backend-generic, so any shard backend inherits them unchanged.
func NewShardedListOn(n, k int, backendName string) (*ShardedList, error) {
	return shard.NewNamed(n, k, backendName)
}

// ShardBackendNames lists the registered per-shard backend names
// accepted by NewShardedListOn.
func ShardBackendNames() []string { return backend.ShardNames() }

// NewBackend constructs a registered backend by name ("core", "pifo",
// "approx", "sharded", "cffs", "sharded+cffs", "ref") with the given
// capacity.
func NewBackend(name string, capacity int) (Backend, error) {
	return backend.New(name, capacity)
}

// BackendNames lists the registered backend names.
func BackendNames() []string { return backend.Names() }

// EnqueueBatch inserts es in order through b's native batch path when it
// has one (SyncList under one lock hold, the sharded engine as a
// per-shard fan-out), else through sequential Enqueue calls. It returns
// the number accepted and the first error encountered.
func EnqueueBatch(b Backend, es []Entry) (int, error) { return backend.EnqueueBatch(b, es) }

// DequeueUpTo extracts up to k eligible elements at now, appending them
// to out (which may be nil) and returning the extended slice.
func DequeueUpTo(b Backend, now Time, k int, out []Entry) []Entry {
	return backend.DequeueUpTo(b, now, k, out)
}

// Scheduler framework types (§3.2).
type (
	// FlowID identifies a flow (traffic class).
	FlowID = flowq.FlowID
	// Packet is a packet in a per-flow FIFO queue.
	Packet = flowq.Packet
	// Flow is per-flow scheduling and control-plane state.
	Flow = sched.Flow
	// Program is a scheduling algorithm expressed as programming
	// functions over the framework.
	Program = sched.Program
	// Scheduler is a flat single-level PIEO scheduler.
	Scheduler = sched.Scheduler
	// TriggerModel selects input- vs output-triggered enqueue.
	TriggerModel = sched.TriggerModel
)

// Trigger models (§3.2.1).
const (
	OutputTriggered = sched.OutputTriggered
	InputTriggered  = sched.InputTriggered
)

// NewScheduler creates a flat scheduler running prog for up to capacity
// flows on a link of the given rate.
func NewScheduler(prog *Program, capacity int, linkRateGbps float64) *Scheduler {
	return sched.New(prog, capacity, linkRateGbps)
}

// NewSchedulerOn creates a flat scheduler running prog over an explicit
// ordered-list backend.
func NewSchedulerOn(prog *Program, b Backend, linkRateGbps float64) *Scheduler {
	return sched.NewOn(prog, b, linkRateGbps)
}

// Algorithm catalogue (§4). Each constructor returns a Program for
// NewScheduler.
var (
	// FIFO schedules flows in arrival order (§2.3).
	FIFO = algos.FIFO
	// DRR is Deficit Round Robin (§4.1).
	DRR = algos.DRR
	// WFQ is Weighted Fair Queuing (§4.1).
	WFQ = algos.WFQ
	// WF2Q is Worst-case Fair Weighted Fair Queuing, WF²Q+ (§4.1) — the
	// algorithm PIFO cannot express.
	WF2Q = algos.WF2Q
	// TokenBucket is the classic non-work-conserving rate limiter (§4.2).
	TokenBucket = algos.TokenBucket
	// RCSP is Rate-Controlled Static-Priority queuing (§4.2).
	RCSP = algos.RCSP
	// StrictPriority schedules by static priority (§4.4, §4.5).
	StrictPriority = algos.StrictPriority
	// SJF is Shortest Job First (§4.5).
	SJF = algos.SJF
	// SRTF is Shortest Remaining Time First (§4.5).
	SRTF = algos.SRTF
	// EDF is Earliest Deadline First (§4.5).
	EDF = algos.EDF
	// LSTF is Least Slack Time First (§4.5).
	LSTF = algos.LSTF
	// Pacer releases each packet at its precomputed time (§1).
	Pacer = algos.Pacer

	// AgeStarvedFlows is the §4.4 starvation-avoidance alarm.
	AgeStarvedFlows = algos.AgeStarvedFlows
	// PauseFlow blocks a flow on asynchronous network feedback (§4.4).
	PauseFlow = algos.Pause
	// ResumeFlow unblocks a paused flow.
	ResumeFlow = algos.Resume
)

// Hierarchical scheduling (§4.3).
type (
	// Hierarchy is an n-level tree of PIEO schedulers.
	Hierarchy = hier.Hierarchy
	// Node is a non-leaf vertex whose Policy schedules its children.
	Node = hier.Node
	// ChildState is the per-child control-plane and scheduling state.
	ChildState = hier.Child
	// Policy is a per-node scheduling algorithm.
	Policy = hier.Policy
)

// NewHierarchy creates a hierarchy whose root schedules its children
// with rootPolicy. Add nodes/flows, then call Build before traffic.
func NewHierarchy(linkRateGbps float64, rootPolicy *Policy) *Hierarchy {
	return hier.New(linkRateGbps, rootPolicy)
}

// NewHierarchyOn creates a hierarchy whose per-level physical PIEOs are
// built by factory (one call per level, sized to that level's child
// count).
func NewHierarchyOn(linkRateGbps float64, rootPolicy *Policy, factory func(capacity int) Backend) *Hierarchy {
	return hier.NewOn(linkRateGbps, rootPolicy, factory)
}

// NewHierOn creates a hierarchy in logical-partitioned mode (§4.2): ALL
// tree nodes multiplex onto ONE shared physical PIEO of the named
// registered backend ("core", "cffs", "sharded", "sharded+cffs", ...),
// each node owning a contiguous ID band extracted with ranged dequeues.
// This is the mode that scales to tens of thousands of logical
// schedulers; the per-level constructors above keep the paper's original
// one-list-per-level layout.
func NewHierOn(linkRateGbps float64, rootPolicy *Policy, backendName string) (*Hierarchy, error) {
	// Resolve the name up front so a typo fails at construction, not at
	// Build (the factory itself cannot return an error).
	if _, err := backend.New(backendName, 1); err != nil {
		return nil, err
	}
	return hier.NewPartitionedOn(linkRateGbps, rootPolicy, func(n int) Backend {
		b, err := backend.New(backendName, n)
		if err != nil {
			panic(fmt.Sprintf("pieo: backend %q: %v", backendName, err))
		}
		return b
	}), nil
}

// Per-node policies for hierarchies.
var (
	// RoundRobinPolicy rotates through children.
	RoundRobinPolicy = hier.RoundRobin
	// StrictPriorityPolicy schedules children by static priority.
	StrictPriorityPolicy = hier.StrictPriority
	// WFQPolicy is per-node Weighted Fair Queuing.
	WFQPolicy = hier.WFQ
	// WF2QPolicy is per-node WF²Q+.
	WF2QPolicy = hier.WF2Q
	// TokenBucketPolicy rate-limits each child independently.
	TokenBucketPolicy = hier.TokenBucket
)

// Simulation substrate.
type (
	// Link models a fixed-rate transmit link.
	Link = netsim.Link
	// Sim is the discrete-event simulation loop.
	Sim = netsim.Sim
	// SimScheduler is the contract schedulers offer the simulator.
	SimScheduler = netsim.Scheduler
)

// NewSim creates a simulation over the given link and scheduler.
func NewSim(link Link, s SimScheduler) *Sim { return netsim.New(link, s) }

// Hardware cost model (§5, §6.1-6.2).
type (
	// Device is a hardware resource budget (e.g. StratixV).
	Device = hwmodel.Device
	// Geometry is a PIEO sublist shape.
	Geometry = hwmodel.Geometry
	// Resources is an estimated hardware footprint.
	Resources = hwmodel.Resources
)

// StratixV is the paper's prototype FPGA.
var StratixV = hwmodel.StratixV

// Hardware model entry points.
var (
	// PIEOGeometry returns the √n geometry for capacity n.
	PIEOGeometry = hwmodel.PIEOGeometry
	// PIEOResources estimates a PIEO instance's hardware footprint.
	PIEOResources = hwmodel.PIEOResources
	// PIFOResources estimates the PIFO baseline's footprint.
	PIFOResources = hwmodel.PIFOResources
	// PIEOClockMHz estimates the synthesized clock rate.
	PIEOClockMHz = hwmodel.PIEOClockMHz
)

// Wire-facing edge (Fig 1's ingress): frame decoding and flow
// classification.
type (
	// FiveTuple identifies a flow on the wire.
	FiveTuple = wire.FiveTuple
	// FrameDecoder decodes Ethernet/IPv4/{TCP,UDP} frames without
	// per-packet allocation.
	FrameDecoder = wire.Decoder
	// Classifier assigns stable FlowIDs to 5-tuples.
	Classifier = wire.Classifier
)

// NewClassifier creates a flow classifier admitting up to maxFlows flows.
func NewClassifier(maxFlows int) *Classifier { return wire.NewClassifier(maxFlows) }

// BuildFrame serializes a minimal Ethernet/IPv4/{TCP,UDP} frame, for
// tests and traffic generators.
var BuildFrame = wire.BuildFrame

// ExperimentTable is one reproduced figure or table.
type ExperimentTable = experiments.Table

// RunExperiment regenerates a paper table/figure by id (fig2, fig8,
// fig9, fig10, fig11, fig12, rate, scale, deviation, ablation).
func RunExperiment(id string) (*ExperimentTable, error) { return experiments.Run(id) }

// ExperimentIDs lists the available experiment ids.
func ExperimentIDs() []string { return experiments.IDs() }

package main

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/core"
	"pieo/internal/flowq"
	"pieo/internal/netsim"
)

// The wrappers below sit at the layer boundaries the traced run times:
// a netsim.Scheduler shim around sched or hier, a backend.Backend around
// the core list they extract from, and a backend.ShardBackend around each
// shard of the sharded engine. Each must offer exactly the optional
// capabilities of the object it wraps: sched, hier and the engine pick
// their code path by type assertion (sched.NextWake by EligIndexed, the
// engine's summaries by EligIndexed, admission by Evictor), so a dropped
// capability would time a different program. checkCaps enforces that at
// construction, and the traced run's schedule digest must equal the
// untraced one's.

// capability is one optional interface a wrapper may have to forward.
type capability struct {
	name string
	has  func(any) bool
}

func capOf[T any](name string) capability {
	return capability{name, func(x any) bool { _, ok := x.(T); return ok }}
}

var (
	schedCaps = []capability{
		capOf[netsim.WakeHinter]("netsim.WakeHinter"),
		capOf[netsim.BackendReporter]("netsim.BackendReporter"),
		capOf[netsim.FaultReporter]("netsim.FaultReporter"),
	}
	backendCaps = []capability{
		capOf[backend.Peeker]("Peeker"),
		capOf[backend.RankUpdater]("RankUpdater"),
		capOf[backend.RankRanger]("RankRanger"),
		capOf[backend.EligIndexed]("EligIndexed"),
		capOf[backend.InvariantChecker]("InvariantChecker"),
		capOf[backend.HardwareModeled]("HardwareModeled"),
		capOf[backend.Combining]("Combining"),
		capOf[backend.Batcher]("Batcher"),
		capOf[backend.Evictor]("Evictor"),
		capOf[backend.Health]("Health"),
	}
	shardCaps = append([]capability{capOf[backend.ShardBackend]("ShardBackend")}, backendCaps...)
)

// checkCaps reports every capability that inner and outer do not share.
func checkCaps(inner, outer any, caps []capability) error {
	var diff []string
	for _, c := range caps {
		if hi, ho := c.has(inner), c.has(outer); hi != ho {
			diff = append(diff, fmt.Sprintf("%s (wrapped %v, wrapper %v)", c.name, hi, ho))
		}
	}
	if len(diff) > 0 {
		return fmt.Errorf("wrapper %T of %T differs in %s", outer, inner, strings.Join(diff, ", "))
	}
	return nil
}

// simScheduler is what sched.Scheduler and hier.Hierarchy both offer the
// simulator.
type simScheduler interface {
	netsim.Scheduler
	netsim.WakeHinter
	netsim.BackendReporter
	netsim.FaultReporter
}

// schedShim sits between netsim and the scheduler under test. Untraced it
// times a sample of NextPacket calls (the unit op's host latency);
// traced it records a span around every call.
type schedShim struct {
	inner               simScheduler
	tr                  *tracer
	arrival, next, wake layer
	latEvery            uint64 // untraced: time one NextPacket in latEvery
	lat                 meter
	decisions           uint64 // NextPacket calls
	served              uint64 // packets NextPacket handed to the link
}

func newSchedShim(inner netsim.Scheduler, tr *tracer, latEvery uint64, arrival, next, wake layer) (*schedShim, error) {
	s, ok := inner.(simScheduler)
	if !ok {
		return nil, fmt.Errorf("scheduler %T lacks a capability the shim forwards", inner)
	}
	sh := &schedShim{inner: s, tr: tr, latEvery: latEvery, arrival: arrival, next: next, wake: wake}
	return sh, checkCaps(inner, sh, schedCaps)
}

func (s *schedShim) OnArrival(now clock.Time, p flowq.Packet) {
	if s.tr == nil {
		s.inner.OnArrival(now, p)
		return
	}
	s.tr.begin(s.arrival, p.Seq)
	s.inner.OnArrival(now, p)
	s.tr.end()
}

func (s *schedShim) NextPacket(now clock.Time) (flowq.Packet, bool) {
	s.decisions++
	var p flowq.Packet
	var ok bool
	switch {
	case s.tr != nil:
		s.tr.begin(s.next, s.decisions)
		p, ok = s.inner.NextPacket(now)
		s.tr.end()
	case s.decisions%s.latEvery == 0 && s.lat.on:
		start := time.Now()
		p, ok = s.inner.NextPacket(now)
		s.lat.addLat(int64(time.Since(start)))
	default:
		p, ok = s.inner.NextPacket(now)
	}
	if ok {
		s.served++
	}
	return p, ok
}

// ledgerGate checks a closed loop's conservation: every packet injected
// is still queued (backlog) or was handed to the link, and of those at
// most the one on the wire has not finished sending (sent).
func (s *schedShim) ledgerGate(name string, injected, sent uint64, backlog int) gate {
	g := gate{name: name + " ledger", ops: int64(injected)}
	if injected != s.served+uint64(backlog) || s.served < sent || s.served > sent+1 {
		g.fail(1, fmt.Sprintf("injected %d, queued %d, served %d, sent %d", injected, backlog, s.served, sent))
	}
	return g
}

func (s *schedShim) NextWake(now clock.Time) (clock.Time, bool) {
	if s.tr == nil {
		return s.inner.NextWake(now)
	}
	s.tr.begin(s.wake, 0)
	t, ok := s.inner.NextWake(now)
	s.tr.end()
	return t, ok
}

func (s *schedShim) BackendStats() backend.Stats    { return s.inner.BackendStats() }
func (s *schedShim) FaultStats() backend.FaultStats { return s.inner.FaultStats() }

// tracedBackend wraps the core list under sched or hier and records a
// span per call, counting every call.
type tracedBackend struct {
	inner *backend.CoreList
	tr    *tracer
	calls uint64
}

func newTracedBackend(inner *backend.CoreList, tr *tracer) (*tracedBackend, error) {
	b := &tracedBackend{inner: inner, tr: tr}
	return b, checkCaps(inner, b, backendCaps)
}

func (b *tracedBackend) enter(l layer) {
	b.calls++
	b.tr.begin(l, 0)
}

func (b *tracedBackend) Enqueue(e core.Entry) error {
	b.enter(lCoreEnqueue)
	defer b.tr.end()
	return b.inner.Enqueue(e)
}

func (b *tracedBackend) Dequeue(now clock.Time) (core.Entry, bool) {
	b.enter(lCoreDequeue)
	defer b.tr.end()
	return b.inner.Dequeue(now)
}

func (b *tracedBackend) DequeueFlow(id uint32) (core.Entry, bool) {
	b.enter(lCoreDequeueFlow)
	defer b.tr.end()
	return b.inner.DequeueFlow(id)
}

func (b *tracedBackend) DequeueRange(now clock.Time, lo, hi uint32) (core.Entry, bool) {
	b.enter(lCoreDequeueRange)
	defer b.tr.end()
	return b.inner.DequeueRange(now, lo, hi)
}

func (b *tracedBackend) MinSendTime() (clock.Time, bool) {
	b.enter(lCoreMinSendTime)
	defer b.tr.end()
	return b.inner.MinSendTime()
}

func (b *tracedBackend) Len() int {
	b.enter(lCoreOther)
	defer b.tr.end()
	return b.inner.Len()
}

func (b *tracedBackend) Contains(id uint32) bool {
	b.enter(lCoreOther)
	defer b.tr.end()
	return b.inner.Contains(id)
}

func (b *tracedBackend) Snapshot() []core.Entry {
	b.enter(lCoreOther)
	defer b.tr.end()
	return b.inner.Snapshot()
}

func (b *tracedBackend) Peek(now clock.Time) (core.Entry, bool) {
	b.enter(lCoreOther)
	defer b.tr.end()
	return b.inner.Peek(now)
}

func (b *tracedBackend) PeekRange(now clock.Time, lo, hi uint32) (core.Entry, bool) {
	b.enter(lCoreOther)
	defer b.tr.end()
	return b.inner.PeekRange(now, lo, hi)
}

func (b *tracedBackend) UpdateRank(id uint32, rank uint64, sendTime clock.Time) bool {
	b.enter(lCoreOther)
	defer b.tr.end()
	return b.inner.UpdateRank(id, rank, sendTime)
}

func (b *tracedBackend) MinRankAtLeast(lo uint64) (core.Entry, bool) {
	b.enter(lCoreOther)
	defer b.tr.end()
	return b.inner.MinRankAtLeast(lo)
}

func (b *tracedBackend) DequeueRankRange(lo, hi uint64) (core.Entry, bool) {
	b.enter(lCoreOther)
	defer b.tr.end()
	return b.inner.DequeueRankRange(lo, hi)
}

func (b *tracedBackend) NextWakeAfter(now clock.Time) clock.Time {
	b.enter(lCoreOther)
	defer b.tr.end()
	return b.inner.NextWakeAfter(now)
}

func (b *tracedBackend) EnqueueBatch(es []core.Entry) (int, error) {
	b.enter(lCoreEnqueue)
	defer b.tr.end()
	return b.inner.EnqueueBatch(es)
}

func (b *tracedBackend) DequeueUpTo(now clock.Time, k int, out []core.Entry) []core.Entry {
	b.enter(lCoreDequeue)
	defer b.tr.end()
	return b.inner.DequeueUpTo(now, k, out)
}

func (b *tracedBackend) PeekMax() (core.Entry, bool) {
	b.enter(lCoreOther)
	defer b.tr.end()
	return b.inner.PeekMax()
}

func (b *tracedBackend) EvictMax() (core.Entry, bool) {
	b.enter(lCoreDequeueFlow)
	defer b.tr.end()
	return b.inner.EvictMax()
}

// Bookkeeping queries are forwarded untimed: they are not scheduling work.
func (b *tracedBackend) Stats() backend.Stats      { return b.inner.Stats() }
func (b *tracedBackend) HardwareStats() core.Stats { return b.inner.HardwareStats() }
func (b *tracedBackend) CheckInvariants() error    { return b.inner.CheckInvariants() }
func (b *tracedBackend) EligIndexActive() bool     { return b.inner.EligIndexActive() }
func (b *tracedBackend) DisableEligIndex()         { b.inner.DisableEligIndex() }

// shardTraceSession links the traced shard backends of one contended run
// to the worker tracers whose operations they serve. The engine calls its
// shard backends from whichever worker holds the shard lock, so a backend
// call is charged to the worker that issued the operation: the owner of
// the entry ID for inserts, the worker tagged in `now` for extractions.
type shardTraceSession struct {
	epoch   time.Time
	workers []*tracer
	owner   func(id uint32) int
	active  atomic.Bool
	nextID  atomic.Uint64
	shards  []*tracedShard

	nowCalls       atomic.Uint64 // extraction calls, which carry `now`
	failedExtracts atomic.Uint64 // Dequeue/DequeueRange that found nothing
}

// tracedShardName is the shard backend the benchmark registers for its
// traced engine; currentShardSession is the session new shards join.
const tracedShardName = "perfbench-traced-core"

var currentShardSession atomic.Pointer[shardTraceSession]

func init() {
	backend.RegisterShard(tracedShardName, func(cfg backend.ShardConfig) backend.ShardBackend {
		sess := currentShardSession.Load()
		inner := backend.NewCoreShard(cfg)
		ts := &tracedShard{inner: inner.(*core.List), sess: sess, rec: newRemoteRecorder()}
		if err := checkCaps(inner, ts, shardCaps); err != nil {
			// Registration-time factories cannot return errors; a
			// mismatch is a defect of this file, caught by its tests.
			panic(err)
		}
		sess.shards = append(sess.shards, ts)
		return ts
	})
}

// tracedShard wraps one shard's core list.
type tracedShard struct {
	inner *core.List
	sess  *shardTraceSession
	rec   *remoteRecorder
}

// timed runs fn as a span of layer l on behalf of worker w (-1: none).
func (s *tracedShard) timed(l layer, w int, fn func()) {
	if !s.sess.active.Load() {
		fn()
		return
	}
	start := int64(time.Since(s.sess.epoch))
	fn()
	end := int64(time.Since(s.sess.epoch))
	var parent, op uint64
	if w >= 0 && w < len(s.sess.workers) {
		parent, op = s.sess.workers[w].addRemoteChild(end - start)
	}
	s.rec.record(rawSpan{id: 1<<62 | s.sess.nextID.Add(1), parent: parent, op: op, l: l, start: start, end: end})
}

// nowWorker decodes the worker tag the contended loop puts in `now`.
func (s *tracedShard) nowWorker(now clock.Time) int {
	s.sess.nowCalls.Add(1)
	return int(now) - 1
}

func (s *tracedShard) EnqueueSeq(e core.Entry, seq uint64) (err error) {
	s.timed(lCoreEnqueue, s.sess.owner(e.ID), func() { err = s.inner.EnqueueSeq(e, seq) })
	return err
}

func (s *tracedShard) UpdateRankSeq(id uint32, rank uint64, sendTime clock.Time, seq uint64) (ok bool) {
	s.timed(lCoreOther, s.sess.owner(id), func() { ok = s.inner.UpdateRankSeq(id, rank, sendTime, seq) })
	return ok
}

func (s *tracedShard) Dequeue(now clock.Time) (e core.Entry, ok bool) {
	s.timed(lCoreDequeue, s.nowWorker(now), func() { e, ok = s.inner.Dequeue(now) })
	if !ok {
		s.sess.failedExtracts.Add(1)
	}
	return e, ok
}

func (s *tracedShard) DequeueRange(now clock.Time, lo, hi uint32) (e core.Entry, ok bool) {
	s.timed(lCoreDequeueRange, s.nowWorker(now), func() { e, ok = s.inner.DequeueRange(now, lo, hi) })
	if !ok {
		s.sess.failedExtracts.Add(1)
	}
	return e, ok
}

func (s *tracedShard) DequeueFlow(id uint32) (e core.Entry, ok bool) {
	s.timed(lCoreDequeueFlow, s.sess.owner(id), func() { e, ok = s.inner.DequeueFlow(id) })
	return e, ok
}

func (s *tracedShard) DequeueBelowSeq(now clock.Time, limit uint64) (e core.Entry, seq uint64, eligible, taken bool) {
	s.timed(lCoreDequeue, s.nowWorker(now), func() { e, seq, eligible, taken = s.inner.DequeueBelowSeq(now, limit) })
	return e, seq, eligible, taken
}

func (s *tracedShard) DequeueRangeBelowSeq(now clock.Time, lo, hi uint32, limit uint64) (e core.Entry, seq uint64, eligible, taken bool) {
	s.timed(lCoreDequeueRange, s.nowWorker(now), func() {
		e, seq, eligible, taken = s.inner.DequeueRangeBelowSeq(now, lo, hi, limit)
	})
	return e, seq, eligible, taken
}

func (s *tracedShard) Peek(now clock.Time) (e core.Entry, ok bool) {
	s.timed(lCoreOther, s.nowWorker(now), func() { e, ok = s.inner.Peek(now) })
	return e, ok
}

func (s *tracedShard) PeekRange(now clock.Time, lo, hi uint32) (e core.Entry, ok bool) {
	s.timed(lCoreOther, s.nowWorker(now), func() { e, ok = s.inner.PeekRange(now, lo, hi) })
	return e, ok
}

func (s *tracedShard) UpdateRank(id uint32, rank uint64, sendTime clock.Time) (ok bool) {
	s.timed(lCoreOther, s.sess.owner(id), func() { ok = s.inner.UpdateRank(id, rank, sendTime) })
	return ok
}

func (s *tracedShard) EnqueueBatch(es []core.Entry) (n int, err error) {
	w := -1
	if len(es) > 0 {
		w = s.sess.owner(es[0].ID)
	}
	s.timed(lCoreEnqueue, w, func() { n, err = s.inner.EnqueueBatch(es) })
	return n, err
}

func (s *tracedShard) DequeueUpTo(now clock.Time, k int, out []core.Entry) (res []core.Entry) {
	s.timed(lCoreDequeue, s.nowWorker(now), func() { res = s.inner.DequeueUpTo(now, k, out) })
	return res
}

// Summaries the engine reads on its read paths, possibly without the
// shard lock, and bookkeeping: forwarded untimed.
func (s *tracedShard) MinRank() (uint64, bool)                     { return s.inner.MinRank() }
func (s *tracedShard) MinSendTime() (clock.Time, bool)             { return s.inner.MinSendTime() }
func (s *tracedShard) NextWakeAfter(now clock.Time) clock.Time     { return s.inner.NextWakeAfter(now) }
func (s *tracedShard) MaxRankEntrySeq() (core.Entry, uint64, bool) { return s.inner.MaxRankEntrySeq() }
func (s *tracedShard) Contains(id uint32) bool                     { return s.inner.Contains(id) }
func (s *tracedShard) Len() int                                    { return s.inner.Len() }
func (s *tracedShard) Snapshot() []core.Entry                      { return s.inner.Snapshot() }
func (s *tracedShard) SnapshotWithSeq() ([]core.Entry, []uint64)   { return s.inner.SnapshotWithSeq() }
func (s *tracedShard) Stats() core.Stats                           { return s.inner.Stats() }
func (s *tracedShard) CheckInvariants() error                      { return s.inner.CheckInvariants() }
func (s *tracedShard) EligIndexActive() bool                       { return s.inner.EligIndexActive() }
func (s *tracedShard) DisableEligIndex()                           { s.inner.DisableEligIndex() }

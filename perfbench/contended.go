package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pieo/internal/clock"
	"pieo/internal/core"
	"pieo/internal/shard"
)

// contended-mixed: W goroutines share one sharded engine with the default
// configuration (core shards, combining on). Each runs enqueue+dequeue
// pairs of always-eligible entries with Fibonacci-mixed 20-bit ranks over
// a prefilled backlog, so the cores contend on the tournament, the
// engine-wide atomics and the combining rings. sched, hier and netsim
// are never called.
type contendedConfig struct {
	workers   int
	capacity  int
	shards    int
	prefill   int
	replayOps int // single-goroutine pairs whose dequeue order is compared
}

func contendedDefault() contendedConfig {
	return contendedConfig{workers: runtime.NumCPU(), capacity: 1 << 19, shards: 8, prefill: 4096, replayOps: 1 << 15}
}

const (
	prefillIDBase = 1 << 31
	publishEvery  = 16 // pairs between a worker's counter updates
	pairLatEvery  = 4  // untraced: time one enqueue+dequeue pair in this many
)

// contendedInputs is everything the seed decides: the salt of the rank
// mix. Worker w's i-th entry has ID i*W+w+1; prefill IDs start at
// prefillIDBase. Extractions pass now = w+1 (every entry is eligible at
// any now), which tells a traced shard backend which worker it serves.
type contendedInputs struct {
	cfg  contendedConfig
	salt uint64
}

func (in *contendedInputs) rank(id uint32) uint64 {
	return (uint64(id) ^ in.salt) * 0x9E3779B97F4A7C15 >> 44
}

func (in *contendedInputs) entry(id uint32) core.Entry {
	return core.Entry{ID: id, Rank: in.rank(id), SendTime: clock.Always}
}

// owner returns the worker that enqueued id, -1 for prefill entries.
func (in *contendedInputs) owner(id uint32) int {
	if id >= prefillIDBase || id == 0 {
		return -1
	}
	return int(id-1) % in.cfg.workers
}

func prefill(e *shard.Engine, in *contendedInputs) error {
	for i := 0; i < in.cfg.prefill; i++ {
		if err := e.Enqueue(in.entry(uint32(prefillIDBase + i))); err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
	}
	return nil
}

// worker is one contending goroutine's state; the padding keeps workers'
// hot counters on separate cache lines.
type worker struct {
	id                int
	enq, deq, empties atomic.Uint64 // published every publishEvery pairs
	failures          atomic.Uint64
	mt                meter // owned by the worker until it exits
	tr                *tracer
	_                 [64]byte
}

// contendedRun drives the workers against one engine. Workers read the
// control flags every publishEvery pairs.
type contendedRun struct {
	in        *contendedInputs
	eng       *shard.Engine
	workers   []*worker
	stop      atomic.Bool
	measuring atomic.Bool // workers meter their rates and time one pair in pairLatEvery
	tracing   atomic.Bool // record spans (traced engine only)
	wg        sync.WaitGroup
}

func newContendedRun(in *contendedInputs, eng *shard.Engine, tracers []*tracer) *contendedRun {
	r := &contendedRun{in: in, eng: eng}
	for w := 0; w < in.cfg.workers; w++ {
		wk := &worker{id: w}
		if tracers != nil {
			wk.tr = tracers[w]
		}
		r.workers = append(r.workers, wk)
	}
	return r
}

func (r *contendedRun) start() {
	for _, wk := range r.workers {
		r.wg.Add(1)
		go r.loop(wk)
	}
}

// finish stops the workers and waits for them.
func (r *contendedRun) finish() {
	r.stop.Store(true)
	r.wg.Wait()
}

// measure meters the running workers for d, then stops them. Each worker
// meters itself, so the measuring goroutine sleeps through the window
// instead of taking a core from a worker.
func (r *contendedRun) measure(d time.Duration) measurement {
	w := openWindow()
	u0, o0 := r.counts()
	r.measuring.Store(true)
	time.Sleep(d)
	r.measuring.Store(false)
	u1, o1 := r.counts()
	r.finish()
	meters := make([]*meter, len(r.workers))
	for i, wk := range r.workers {
		meters[i] = &wk.mt
	}
	return w.close(u1-u0, o1-o0, meters...)
}

func (r *contendedRun) loop(wk *worker) {
	defer r.wg.Done()
	W := uint64(r.in.cfg.workers)
	now := clock.Time(wk.id + 1)
	var enq, deq, empties, failures uint64
	var measuring, traced bool
	for i := uint64(0); ; i++ {
		if i%publishEvery == 0 {
			wk.enq.Store(enq)
			wk.deq.Store(deq)
			wk.empties.Store(empties)
			wk.failures.Store(failures)
			if r.stop.Load() {
				return
			}
			traced = wk.tr != nil && r.tracing.Load()
			switch m := r.measuring.Load(); {
			case m && !measuring:
				wk.mt.start(time.Now(), deq, enq+deq)
			case m:
				wk.mt.tick(time.Now(), deq, enq+deq)
			case measuring:
				wk.mt.on = false
			}
			measuring = wk.mt.on
		}
		id := uint32(i*W + uint64(wk.id) + 1)
		ent := r.in.entry(id)
		timed := measuring && !traced && i%pairLatEvery == 0
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		var err error
		if traced {
			wk.tr.begin(lShardEnqueue, uint64(id))
			err = r.eng.Enqueue(ent)
			wk.tr.end()
		} else {
			err = r.eng.Enqueue(ent)
		}
		if err != nil {
			failures++
		} else {
			enq++
		}
		for {
			var ok bool
			if traced {
				wk.tr.begin(lShardDequeue, uint64(id)|1<<32)
				_, ok = r.eng.Dequeue(now)
				wk.tr.end()
			} else {
				_, ok = r.eng.Dequeue(now)
			}
			if ok {
				deq++
				break
			}
			// A momentary miss while other workers hold every shard's
			// head: allowed by the engine's concurrent contract. The
			// backlog never falls below prefill - W, so retrying ends.
			empties++
			runtime.Gosched()
		}
		if timed {
			wk.mt.addLat(int64(time.Since(t0)))
		}
	}
}

// counts reports entries dequeued and operations completed.
func (r *contendedRun) counts() (units, ops uint64) {
	for _, wk := range r.workers {
		e, d := wk.enq.Load(), wk.deq.Load()
		units += d
		ops += e + d
	}
	return units, ops
}

func (r *contendedRun) empties() (n uint64) {
	for _, wk := range r.workers {
		n += wk.empties.Load()
	}
	return n
}

// conservation checks that every entry enqueued was dequeued or is still
// queued, with no failed enqueues.
func (r *contendedRun) conservation() gate {
	var enq, deq, failures uint64
	for _, wk := range r.workers {
		enq += wk.enq.Load()
		deq += wk.deq.Load()
		failures += wk.failures.Load()
	}
	g := gate{name: "contended conservation", ops: int64(enq + deq)}
	if in, got := uint64(r.in.cfg.prefill)+enq, deq+uint64(r.eng.Len()); in != got {
		g.fail(1, fmt.Sprintf("enqueued %d, dequeued+queued %d", in, got))
	}
	if failures != 0 {
		g.fail(int64(failures), fmt.Sprintf("%d enqueues failed", failures))
	}
	return g
}

// drained is one entry of a quiescent drain, in extraction order.
type drained struct {
	id   uint32
	rank uint64
}

// drain extracts everything left in a quiescent engine.
func drain(e *shard.Engine) []drained {
	var out []drained
	for {
		ent, ok := e.Dequeue(clock.Time(1))
		if !ok {
			return out
		}
		out = append(out, drained{ent.ID, ent.Rank})
	}
}

// checkDrainOrder counts the adjacent pairs of a quiescent drain that
// break (rank, seq) order. Ranks must not decrease; among equal ranks the
// engine's sequence is not visible from outside, but its consequences
// are: prefill entries came first, and each worker's own entries in the
// order it enqueued them (increasing ID).
func checkDrainOrder(in *contendedInputs, d []drained) int {
	bad := 0
	for i := 1; i < len(d); i++ {
		a, b := d[i-1], d[i]
		switch {
		case b.rank < a.rank:
			bad++
		case b.rank > a.rank:
		case in.owner(a.id) >= 0 && in.owner(b.id) < 0:
			bad++ // a worker entry ahead of an equal-rank prefill entry
		case in.owner(a.id) == in.owner(b.id) && b.id < a.id:
			bad++
		}
	}
	return bad
}

// quiescentChecks runs the structural checks and the drain after the
// workers have stopped.
func (r *contendedRun) quiescentChecks() []gate {
	inv := gate{name: "contended CheckInvariants", ops: 1}
	if err := r.eng.CheckInvariants(); err != nil {
		inv.fail(1, err.Error())
	}
	cons := r.conservation()
	queued := r.eng.Len()
	d := drain(r.eng)
	order := gate{name: "contended drain (rank, seq) order", ops: int64(len(d))}
	if len(d) != queued {
		order.fail(1, fmt.Sprintf("drained %d of %d queued", len(d), queued))
	}
	for _, e := range d {
		if e.rank != r.in.rank(e.id) {
			order.fail(1, fmt.Sprintf("entry %d came back with rank %d", e.id, e.rank))
		}
	}
	if bad := checkDrainOrder(r.in, d); bad != 0 {
		order.fail(int64(bad), fmt.Sprintf("%d adjacent pairs out of (rank, seq) order", bad))
	}
	return []gate{inv, cons, order}
}

// replay runs n enqueue+dequeue pairs on one goroutine against a freshly
// prefilled engine and returns the dequeue order: deterministic for a
// seed, so the traced engine must reproduce it exactly.
func replay(e *shard.Engine, in *contendedInputs, n int) ([]uint64, error) {
	if err := prefill(e, in); err != nil {
		return nil, err
	}
	out := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		if err := e.Enqueue(in.entry(uint32(i*in.cfg.workers + 1))); err != nil {
			return nil, err
		}
		ent, ok := e.Dequeue(clock.Time(1))
		if !ok {
			return nil, errors.New("replay: dequeue found nothing")
		}
		out = append(out, uint64(ent.ID)<<32|ent.Rank)
	}
	return out, nil
}

// tracedEngine builds an engine whose shards are wrapped by tracedShard,
// reporting to sess. The session stays current so that a shard the engine
// rebuilds after a quarantine joins it too.
func tracedEngine(cfg contendedConfig, sess *shardTraceSession) (*shard.Engine, error) {
	currentShardSession.Store(sess)
	return shard.NewNamed(cfg.capacity, cfg.shards, tracedShardName)
}

func runContended(o runOpts, cfg contendedConfig) (*outcome, error) {
	rng := rand.New(rand.NewSource(o.seed))
	in := &contendedInputs{cfg: cfg, salt: rng.Uint64()}
	heapBase := liveHeap()
	out := newOutcome()
	out.workers = cfg.workers

	build := func() (*shard.Engine, error) {
		e := shard.New(cfg.capacity, cfg.shards)
		return e, prefill(e, in)
	}
	eng, setup, err := timedSetup(setupReps, build)
	if err != nil {
		return nil, err
	}

	if !o.trace {
		r := newContendedRun(in, eng, nil)
		r.start()
		time.Sleep(o.warmup())
		m := r.measure(o.measure())
		perWorker := make([]float64, len(r.workers))
		for i, wk := range r.workers {
			perWorker[i] = median(wk.mt.opRates)
		}
		out.addGates(r.quiescentChecks()...)
		out.addGates(progressGate("contended", m))
		out.note("%s", m.describe(fmt.Sprintf("Enqueue+Dequeue pairs (1 in %d per worker)", pairLatEvery)))
		out.set("setup_s", setup.Seconds())
		out.set("pkts_per_s", m.unitRate)
		out.set("ops_per_s", m.opRate)
		out.note("op_p50_ns %.1f ns, op_p99_ns %.1f ns (reported as metrics by --trace 1)", m.p50, m.p99)
		out.set("heap_mb", m.heapMB(heapBase))
		out.set("jain", jain(perWorker))
		return out, nil
	}

	// The traced engine must replay the seeded single-goroutine schedule
	// exactly as the untraced one does; the untraced replay also yields
	// the modelled-hardware counts.
	plain := shard.New(cfg.capacity, cfg.shards)
	want, err := replay(plain, in, cfg.replayOps)
	if err != nil {
		return nil, err
	}
	hw := plain.HardwareStats()
	sess := &shardTraceSession{epoch: time.Now(), owner: in.owner}
	for w := 0; w < cfg.workers; w++ {
		sess.workers = append(sess.workers, newTracer(sess.epoch, uint64(w+1)<<48))
	}
	check, err := tracedEngine(cfg, sess)
	if err != nil {
		return nil, err
	}
	got, err := replay(check, in, cfg.replayOps)
	if err != nil {
		return nil, err
	}
	out.addGates(traceDigestGate("contended replay", got, want))

	// Untraced half.
	r := newContendedRun(in, eng, nil)
	r.start()
	time.Sleep(o.warmup())
	ring0, empties0 := eng.CombiningStats().RingOps, r.empties()
	um := r.measure(o.measure() / 2)
	ring1, empties1 := eng.CombiningStats().RingOps, r.empties()
	out.addGates(r.quiescentChecks()...)
	enqs := float64(um.ops - um.units)

	// Traced half, on a fresh traced engine.
	sess = &shardTraceSession{epoch: time.Now(), owner: in.owner}
	for w := 0; w < cfg.workers; w++ {
		sess.workers = append(sess.workers, newTracer(sess.epoch, uint64(w+1)<<48))
	}
	teng, err := tracedEngine(cfg, sess)
	if err != nil {
		return nil, err
	}
	if err := prefill(teng, in); err != nil {
		return nil, err
	}
	tr := newContendedRun(in, teng, sess.workers)
	tr.start()
	time.Sleep(o.warmup())
	sess.active.Store(true)
	tr.tracing.Store(true)
	now0, failed0 := sess.nowCalls.Load(), sess.failedExtracts.Load()
	tm := tr.measure(o.measure() / 2)
	sess.active.Store(false)
	now1, failed1 := sess.nowCalls.Load(), sess.failedExtracts.Load()
	out.addGates(tr.quiescentChecks()...)
	out.addGates(progressGate("contended untraced", um), progressGate("contended traced", tm))

	tt := &traceTotals{}
	for _, t := range sess.workers {
		tt.addTracer(t)
	}
	for _, s := range sess.shards {
		tt.addRemote(s.rec)
	}
	a := &tt.aggs
	deqCalls := float64(a[lShardDequeue].calls)
	out.set("shard.enqueue.self_ns", a[lShardEnqueue].selfPerCall())
	out.set("shard.dequeue.self_ns", a[lShardDequeue].selfPerCall())
	out.set("shard.backend_calls_per_dequeue", float64(now1-now0)/deqCalls)
	out.set("shard.ring_frac", float64(ring1-ring0)/enqs)
	out.set("shard.empty_dequeue_frac", float64(empties1-empties0)/float64(empties1-empties0+um.units))
	out.set("shard.retry_frac", float64(failed1-failed0)/deqCalls)
	setUntracedLayers(out, um)
	setCoreLayers(out, tt, hw)
	out.set("trace.overhead_ns_per_op", 1e9/tm.opRate-1e9/um.opRate)
	out.trace = tt
	out.traceUnits, out.unitName = tm.ops, "op"
	return out, nil
}

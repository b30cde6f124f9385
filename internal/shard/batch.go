package shard

import (
	"errors"
	"fmt"
	"sort"
	"unsafe"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/core"
)

// batchAffinity picks the shard a batch producer's walk starts from. Go
// exposes no P identity, but a goroutine's stack address is a stable,
// well-spread proxy for "which execution context am I": stacks are
// allocated from per-P caches in distinct spans, so hashing a few high
// bits of a stack-local's address lands concurrent producers on
// different start shards with high probability — where starting every
// walk at shard 0 made all of them contend for the same first lock, in
// order (a lock convoy). Only the VISIT ORDER rotates: each entry's home
// shard and its batch-position sequence number are unchanged, so
// quiescent dequeue order is bit-identical for every rotation.
func batchAffinity(k int) int {
	var b byte
	return int((uint64(uintptr(unsafe.Pointer(&b))) >> 10) % uint64(k))
}

// BatchItemError attributes one failed batch entry: its batch position,
// its flow ID, and the typed underlying error (core.ErrDuplicate,
// core.ErrShardDown, core.ErrFull). EnqueueBatch returns an errors.Join
// of these — one per failed entry, in batch order — whenever a mid-batch
// quarantine rerouted entries through the degraded path, so no rerouted
// entry's failure is ever silently folded into a single first-error.
// errors.Is sees through both the join and the wrapper.
type BatchItemError struct {
	Index int
	ID    uint32
	Err   error
}

func (b *BatchItemError) Error() string {
	return fmt.Sprintf("batch entry %d (id %d): %v", b.Index, b.ID, b.Err)
}

func (b *BatchItemError) Unwrap() error { return b.Err }

// The engine implements the optional batch capability natively: batching
// is where sharding pays twice, amortizing both the lock traffic (one
// acquisition per touched shard instead of one per element) and the
// tournament (a winning shard is drained while it stays unbeatable
// instead of being re-discovered from scratch per element).
var _ backend.Batcher = (*Engine)(nil)

// EnqueueBatch implements backend.Batcher. Semantics match the
// equivalent sequence of Enqueue calls exactly (see backend.Batcher):
// every entry is attempted, the return is the accepted count plus the
// first error in batch order, and quiescent dequeue order — including
// cross-shard FIFO ties — is identical, because entries draw consecutive
// global sequence numbers in batch position order. The one exception to
// the first-error shape: when a shard quarantines mid-batch and entries
// reroute through the degraded path, the error is an errors.Join of one
// BatchItemError per failed entry (batch order), so every rerouted
// entry's outcome is attributable.
//
// The fast path reserves capacity for the whole batch with one atomic
// add and visits each touched shard once — in an affinity-rotated order
// (see batchAffinity) so concurrent batch producers start their walks on
// different shards instead of convoying on shard 0's lock — enqueueing
// all of that shard's entries under one lock hold. Entry placement and
// sequence stamping are independent of the visit order, so quiescent
// semantics are identical for every rotation. When the whole-batch
// reservation would overshoot capacity the batch falls back to per-entry
// Enqueue, whose one-slot-at-a-time reservation reproduces the exact
// sequential full/duplicate precedence at the capacity edge (a mid-batch
// duplicate must be able to free its slot for a later entry).
func (e *Engine) EnqueueBatch(es []core.Entry) (int, error) {
	m := len(es)
	if m == 0 {
		return 0, nil
	}
	e.opTick()
	// Degraded mode takes the per-entry path: Enqueue owns the
	// probe-around-quarantine and off-home bookkeeping, and the batch fast
	// path's one-lock-per-shard walk assumes the clean home partitioning.
	slow := e.degraded()
	if !slow && e.size.Add(int64(m)) > int64(e.capacity) {
		e.size.Add(int64(-m))
		slow = true
	}
	if slow {
		accepted := 0
		var firstErr error
		for i := range es {
			if err := e.Enqueue(es[i]); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			accepted++
		}
		return accepted, firstErr
	}

	// Whole batch reserved: per-shard lists are provisioned with the full
	// shared capacity, so the only reachable per-entry failure below is
	// ErrDuplicate. Sequence numbers come from one block reservation;
	// duplicates burn theirs harmlessly (FIFO ties compare relative
	// order, not density), exactly like a failed single Enqueue.
	base := e.seq.Add(uint64(m)) - uint64(m) // entry i gets base+1+i
	accepted := 0
	slotsKept := 0 // entries that keep their batch-reserved capacity slot
	var firstErr error
	firstErrIdx := m
	var fallback []int             // entries rerouted per-entry after a mid-batch quarantine
	var itemErrs []*BatchItemError // per-item failures, surfaced jointly when a reroute happened
	noteItemErr := func(i int, err error) {
		if i < firstErrIdx {
			firstErrIdx = i
			firstErr = err
		}
		itemErrs = append(itemErrs, &BatchItemError{Index: i, ID: es[i].ID, Err: err})
	}
	k := len(e.shards)
	aff := 0
	if k > 1 {
		aff = batchAffinity(k)
	}
	for sj := 0; sj < k; sj++ {
		si := sj + aff
		if si >= k {
			si -= k
		}
		sd := e.shards[si]
		locked := false // this goroutine holds sd.mu
		failed := false // shard quarantined: remaining entries reroute
		minSend := clock.Never
		inserted := 0
		for i := range es {
			if e.homeIdx(es[i].ID) != si {
				continue
			}
			if failed {
				fallback = append(fallback, i)
				continue
			}
			if !locked {
				sd.mu.Lock()
				if sd.down {
					// Quarantined since the degraded check: this shard's
					// entries reroute through Enqueue's probe path.
					sd.mu.Unlock()
					failed = true
					fallback = append(fallback, i)
					continue
				}
				locked = true
			}
			var (
				started bool
				lerr    error
			)
			perr := e.protect(si, sd, OpEnqueue, func(l backend.ShardBackend) {
				// Pre-count the residency so a mid-insert panic charges the
				// ambiguous element to this shard; quarantine reconciles the
				// count against the salvage (see Enqueue).
				started = true
				sd.resident++
				lerr = l.EnqueueSeq(es[i], base+1+uint64(i))
				if lerr != nil {
					sd.resident--
				}
			})
			if perr != nil {
				// Quarantined mid-batch under our own lock hold.
				sd.mu.Unlock()
				locked = false
				failed = true
				if e.salvageHas(sd, es[i].ID) {
					// Queued (the salvage holds it): keeps its batch slot.
					accepted++
					slotsKept++
				} else {
					if started {
						// Pre-counted but never landed: quarantine charged
						// it as a lost entry, yet its fate belongs to the
						// reroute below (which reserves its own slot) and
						// the batch-slot ledger (which releases this one).
						// Unwind the phantom loss or the slot is released
						// twice and the loss ledger overcounts.
						e.undoPhantomLoss(si)
					}
					fallback = append(fallback, i)
				}
				continue
			}
			if lerr != nil {
				noteItemErr(i, lerr)
				continue
			}
			accepted++
			slotsKept++
			inserted++
			if es[i].SendTime < minSend {
				minSend = es[i].SendTime
			}
		}
		if locked {
			if inserted > 0 {
				// One summary publish per shard: the minRank read is exact
				// regardless of how many inserts preceded it, and the
				// minSend lower bound only needs the batch minimum.
				sd.noteMutation(minSend)
			}
			sd.mu.Unlock()
		}
	}
	// Reroutes run in batch order regardless of which shard-visit
	// rotation queued them, so the sequential-equivalence contract's
	// error precedence is rotation-independent.
	sort.Ints(fallback)
	// Release the unused batch slots BEFORE rerouting: rerouted entries
	// reserve their own slots inside Enqueue, and reserving on top of a
	// still-held whole-batch reservation could overshoot capacity and
	// fail an entry that logically owns a slot with a spurious ErrFull.
	if slotsKept < m {
		e.size.Add(int64(slotsKept - m))
	}
	for _, i := range fallback {
		if err := e.Enqueue(es[i]); err != nil {
			if i < firstErrIdx {
				firstErrIdx = i
				firstErr = err
			}
			itemErrs = append(itemErrs, &BatchItemError{Index: i, ID: es[i].ID, Err: err})
			continue
		}
		accepted++
	}
	if len(fallback) == 0 {
		// No mid-batch quarantine: the historical contract — accepted
		// count plus the first error in batch order, returned by identity
		// (callers compare against the core sentinels directly).
		return accepted, firstErr
	}
	if len(itemErrs) == 0 {
		return accepted, nil
	}
	// A quarantine rerouted entries mid-batch: surface EVERY failed entry
	// as a typed per-item error so none of the rerouted outcomes is a
	// silent drop — the only permitted untracked losses are the ones the
	// quarantine's declared-loss accounting records.
	sort.Slice(itemErrs, func(a, b int) bool { return itemErrs[a].Index < itemErrs[b].Index })
	joined := make([]error, len(itemErrs))
	for k, ie := range itemErrs {
		joined[k] = ie
	}
	return accepted, errors.Join(joined...)
}

// DequeueUpTo implements backend.Batcher: up to k eligible elements in
// exact (rank, FIFO) dequeue order when quiescent, appending to out. The
// tournament's drain path extracts as many elements as the winning shard
// can justify per visit (see tournament), so a batch typically costs one
// tournament plus one lock acquisition per run of same-shard winners
// rather than per element.
func (e *Engine) DequeueUpTo(now clock.Time, k int, out []core.Entry) []core.Entry {
	e.opTick()
	if clock.Time(e.nextElig.Load()) > now {
		// Nothing anywhere is eligible yet: the O(1) empty fast path.
		e.emptyDequeues.Add(1)
		return out
	}
	for k > 0 {
		progressed := false
		for attempt := 0; attempt < dequeueRetries; attempt++ {
			c, found, taken := e.tournament(now, 0, 0, false, k, &out)
			if !found {
				e.raiseNextElig()
				e.emptyDequeues.Add(1)
				return out
			}
			if taken > 0 {
				k -= taken
				progressed = true
				break
			}
			// Tie or race: fall back to the single-element extraction the
			// plain Dequeue path uses.
			if ent, ok := e.extract(c.idx, c.sd, now, 0, 0, false); ok {
				out = append(out, ent)
				k--
				progressed = true
				break
			}
		}
		if !progressed {
			e.emptyDequeues.Add(1)
			return out
		}
	}
	return out
}

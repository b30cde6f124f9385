package shard_test

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"pieo/internal/clock"
	"pieo/internal/core"
	"pieo/internal/shard"
)

// The parallel storms: single-op and batch producers racing one consumer
// across every shard lock, run on every host. With two or more CPUs the
// producers, the consumer and the tournament really do run on distinct
// cores, which is where -race sees the cross-core orderings of the
// sequence counter, the summaries and the next-eligible index; on one
// CPU they interleave and still check the same conservation and FIFO
// properties. Each test logs runtime.NumCPU() so a time-shared run is
// visible in the output.
//
// ID encoding: single-op producer p's i-th element is p*perSingle+i+1
// (low range); batch producers use IDs at or above batchIDBase so the
// FIFO audit can scope itself to streams where program order is
// well-defined through a quarantine (a mid-batch reroute legitimately
// re-draws sequence numbers out of batch order — see EnqueueBatch).

const (
	pStormSingles   = 4    // single-op producers (FIFO-audited)
	pStormBatchers  = 2    // EnqueueBatch producers
	pStormPerSingle = 2500 // elements per single-op producer
	pStormBatches   = 40   // batches per batch producer
	pStormBatchLen  = 60   // elements per batch (spans every shard)
	batchIDBase     = 1 << 20
)

// parallelStorm drives the shared storm shape: pStormSingles single-op
// producers and pStormBatchers batch producers against one consumer,
// every element at the same rank and always eligible. It returns the
// consumer's in-order stream and the accepted count.
func parallelStorm(t *testing.T, e *shard.Engine, onSingleOp func(p, i int)) (consumed []core.Entry, accepted int64) {
	t.Helper()
	t.Logf("runtime.NumCPU() = %d", runtime.NumCPU())
	var acceptedN atomic.Int64
	stop := make(chan struct{})
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if ent, ok := e.Dequeue(clock.Always); ok {
				consumed = append(consumed, ent)
			}
		}
	}()
	var wg sync.WaitGroup
	for p := 0; p < pStormSingles; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < pStormPerSingle; i++ {
				if onSingleOp != nil {
					onSingleOp(p, i)
				}
				id := uint32(p*pStormPerSingle + i + 1)
				if err := e.Enqueue(core.Entry{ID: id, Rank: 42, SendTime: clock.Always}); err == nil {
					acceptedN.Add(1)
				}
			}
		}(p)
	}
	for b := 0; b < pStormBatchers; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			for bi := 0; bi < pStormBatches; bi++ {
				es := make([]core.Entry, pStormBatchLen)
				for j := range es {
					id := uint32(batchIDBase + b*pStormBatches*pStormBatchLen + bi*pStormBatchLen + j + 1)
					es[j] = core.Entry{ID: id, Rank: 42, SendTime: clock.Always}
				}
				n, err := e.EnqueueBatch(es)
				acceptedN.Add(int64(n))
				if err != nil && !errors.Is(err, core.ErrShardDown) && !errors.Is(err, core.ErrFull) {
					t.Errorf("batch producer %d batch %d: unexpected error %v", b, bi, err)
				}
			}
		}(b)
	}
	wg.Wait()
	close(stop)
	<-consumerDone
	return consumed, acceptedN.Load()
}

// checkSingleProducerFIFO audits program order for the single-op
// producers' low-range IDs across the concatenated streams; batch-range
// IDs are skipped (their order through a quarantine reroute is
// intentionally re-sequenced).
func checkSingleProducerFIFO(t *testing.T, streams ...[]core.Entry) {
	t.Helper()
	lastIdx := make([]int, pStormSingles)
	for i := range lastIdx {
		lastIdx[i] = -1
	}
	for _, stream := range streams {
		for _, ent := range stream {
			if ent.ID >= batchIDBase {
				continue
			}
			p := int(ent.ID-1) / pStormPerSingle
			idx := int(ent.ID-1) % pStormPerSingle
			if idx <= lastIdx[p] {
				t.Fatalf("producer %d: element %d extracted at or before element %d — FIFO violated", p, idx, lastIdx[p])
			}
			lastIdx[p] = idx
		}
	}
}

// TestParallelStorm is the fault-free storm: exact conservation and
// per-producer FIFO through both the single-op path and EnqueueBatch's
// one-lock-per-shard path.
func TestParallelStorm(t *testing.T) {
	for _, backendName := range []string{"core", "cffs"} {
		t.Run(fmt.Sprintf("backend=%s", backendName), func(t *testing.T) {
			total := pStormSingles*pStormPerSingle + pStormBatchers*pStormBatches*pStormBatchLen
			e, err := shard.NewNamed(2*total, 8, backendName)
			if err != nil {
				t.Fatalf("construct %q engine: %v", backendName, err)
			}
			consumed, accepted := parallelStorm(t, e, nil)
			if accepted != int64(total) {
				t.Fatalf("fault-free storm accepted %d of %d", accepted, total)
			}
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("post-storm invariants: %v", err)
			}
			rest := drainOrder(t, e)
			if got := len(consumed) + len(rest); got != total {
				t.Fatalf("extracted %d elements, want %d", got, total)
			}
			// Batch-producer FIFO has batch granularity in the live stream:
			// entries WITHIN one EnqueueBatch call are all in flight
			// simultaneously (no program order among them until the call
			// returns), but batch bi returns before bi+1 begins, so a later
			// batch's element must never precede an earlier batch's. The
			// quiescent drain additionally holds strict intra-batch order
			// (block sequences are stamped in batch position order).
			maxBatch := make(map[int]int, pStormBatchers)
			for _, ent := range consumed {
				if ent.ID < batchIDBase {
					continue
				}
				off := int(ent.ID) - batchIDBase - 1
				b := off / (pStormBatches * pStormBatchLen)
				bi := (off % (pStormBatches * pStormBatchLen)) / pStormBatchLen
				if last, ok := maxBatch[b]; ok && bi < last {
					t.Fatalf("batch producer %d: batch %d element extracted after batch %d — cross-batch FIFO violated", b, bi, last)
				} else if !ok || bi > last {
					maxBatch[b] = bi
				}
			}
			lastIdx := make(map[int]int, pStormBatchers)
			for _, ent := range rest {
				if ent.ID < batchIDBase {
					continue
				}
				off := int(ent.ID) - batchIDBase - 1
				b := off / (pStormBatches * pStormBatchLen)
				idx := off % (pStormBatches * pStormBatchLen)
				if last, ok := lastIdx[b]; ok && idx <= last {
					t.Fatalf("batch producer %d: quiescent drain yielded element %d at or before element %d", b, idx, last)
				}
				lastIdx[b] = idx
			}
			checkSingleProducerFIFO(t, consumed, rest)
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("post-drain invariants: %v", err)
			}
		})
	}
}

// TestParallelStormQuarantine runs the same storm through a
// quarantine/rebuild window: a fault hook panics once on a target shard
// mid-storm, traffic reroutes around it while the healthy shards keep
// serving, and after forced recovery the audit demands exact
// conservation — accepted = consumed + drained + declared losses — plus
// single-op per-producer FIFO (held through the window: a rerouted
// single op keeps its original sequence number).
func TestParallelStormQuarantine(t *testing.T) {
	total := pStormSingles*pStormPerSingle + pStormBatchers*pStormBatches*pStormBatchLen
	e := shard.New(2*total, 8)
	const target = 3
	var armed, fired atomic.Bool
	e.SetFaultHook(func(shard int, op string) {
		if shard == target && armed.Load() && fired.CompareAndSwap(false, true) {
			panic("parallel storm: injected shard fault")
		}
	})
	consumed, accepted := parallelStorm(t, e, func(p, i int) {
		if p == 0 && i == pStormPerSingle/2 {
			armed.Store(true) // open the quarantine window mid-storm
		}
	})
	if !fired.Load() {
		t.Fatal("fault hook never fired: the storm missed the quarantine window")
	}
	armed.Store(false)
	for try := 0; try < 100 && e.Recover() > 0; try++ {
	}
	if down := e.Recover(); down > 0 {
		t.Fatalf("%d shards still down after forced recovery", down)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("post-recovery invariants: %v", err)
	}
	rest := drainOrder(t, e)
	fs := e.FaultStats()
	if fs.Quarantines == 0 {
		t.Fatal("no quarantine recorded despite the fired hook")
	}
	got := int64(len(consumed)) + int64(len(rest)) + int64(fs.LostEntries)
	if got != accepted {
		t.Fatalf("conservation violated: consumed %d + drained %d + lost %d = %d, want accepted %d",
			len(consumed), len(rest), fs.LostEntries, got, accepted)
	}
	// FIFO is audited on the quiescent post-recovery drain only: while
	// the window is open a salvaged element is unavailable, so the live
	// stream can legitimately serve its successor first. Within the
	// quiescent drain, per-producer sequence order is program order
	// (each single op — rerouted or not — completes before its successor
	// draws a sequence number).
	checkSingleProducerFIFO(t, rest)
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("post-drain invariants: %v", err)
	}
}

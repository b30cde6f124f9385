// Eiffel-style circular hierarchical find-first-set (cFFS) bucket queue
// (PAPERS.md: Eiffel, arXiv 1810.03060). Where core.List pays O(√n)
// sublist shifts for exact arbitrary ranks, this backend quantizes rank
// into a bucket index and keeps one FIFO chain per bucket, so enqueue is
// O(1) and dequeue finds the minimum nonempty bucket in a handful of
// bits.TrailingZeros64 calls over a three-level uint64 bitmap hierarchy:
//
//	l2 (≤16 words)  one bit per l1 word
//	l1 (≤256 words) one bit per l0 word
//	l0 (B/64 words) one bit per bucket: set ⇔ chain nonempty
//
// Buckets form a CIRCULAR WINDOW of B consecutive virtual buckets
// [winLo, winLo+B): virtual bucket vb (= ⌊rank/W⌋, RankQuantizer) maps
// to physical slot vb&(B-1), which is winLo-independent, so sliding the
// window — advancing past dequeued minima, retreating for a smaller
// rank when the occupied span still fits — moves no data, only the
// winLo base used for range checks and reconstruction (vb = winLo +
// ((phys-winLo)&(B-1))). Ranks that fall outside any reachable window
// go to an exact SPILL: a (rank, seq)-sorted slice the dequeue path
// merges against the bucket candidate, so correctness never depends on
// the window geometry — only speed does.
//
// Eligibility (send_time <= now) uses the same block-summary idiom as
// core.List's Ordered-Sublist-Array: bktSend[p] is the EXACT minimum
// send_time of bucket p's chain and blkSend[w] the exact minimum over
// the 64 buckets of word w, both maintained with the incremental
// discipline core uses (store if the new value is <= the summary;
// rescan only when the departing value equaled it), so the dequeue scan
// skips whole 64-bucket blocks with nothing eligible.
//
// At width 1 (the registered "cffs" configuration) every bucket holds
// exactly one rank and chains are seq-sorted, so the backend is EXACT:
// it passes the same differential suite as core.List, standalone and
// under the sharded engine. Wider buckets trade rank precision for a
// smaller window (the quantization-deviation experiment measures the
// resulting order inversions); the backend then dequeues buckets in
// order and chains in seq order, bounding any inversion by W.
package backend

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"pieo/internal/clock"
	"pieo/internal/core"
	"pieo/internal/timewheel"
)

const (
	// The window is sized to 16x capacity so a workload whose rank span
	// tracks its occupancy (virtual-time schedulers) never spills, and
	// clamped so small instances stay small and huge ones stay cache-sane.
	cffsMinBuckets = 1 << 12
	cffsMaxBuckets = 1 << 20

	cffsNone = int32(-1)
)

// cnode is one queued element in the arena: the entry, its engine-stamped
// FIFO sequence, intrusive chain links, and the physical bucket it sits
// in (cffsNone while in the spill).
type cnode struct {
	ent        core.Entry
	seq        uint64
	next, prev int32
	bkt        int32
	// wh is the node's handle in the timing-wheel eligibility index
	// (meaningless while the wheel is disabled).
	wh int32
}

// CFFS is the bucket-queue shard backend. It implements ShardBackend;
// NewCFFSList adapts it to the top-level Backend interface. Not safe for
// concurrent use (the engine locks per shard, SyncList wraps it).
type CFFS struct {
	quant    RankQuantizer
	capacity int

	nBuckets    int
	mask        uint64
	winLo       uint64 // virtual bucket at the window start
	bucketCount int    // elements in buckets (excludes the spill)

	head, tail []int32
	bktSend    []uint64 // exact min send_time per nonempty bucket
	blkSend    []uint64 // exact min send_time per nonempty 64-bucket block
	l0, l1, l2 []uint64

	nodes []cnode
	free  []int32
	where map[uint32]int32

	spill []int32 // node indices sorted by (rank, seq)

	// wheel is the timing-wheel eligibility index (internal/timewheel),
	// mirroring every resident node by send_time: O(1)-exact
	// MinSendTime, a constant-time "nothing eligible" dequeue verdict,
	// and exact NextWakeAfter. nil after DisableEligIndex; the exact
	// send summaries (bktSend/blkSend) then answer alone, unchanged.
	wheel *timewheel.Wheel

	stats core.Stats
}

// NewCFFS creates a width-1 (exact) cFFS backend for one shard.
func NewCFFS(cfg ShardConfig) *CFFS {
	return NewCFFSQuantized(cfg, RankQuantizer{Width: 1})
}

// NewCFFSQuantized creates a cFFS backend with an explicit quantizer.
// Widths above 1 make the backend approximate: elements whose ranks fall
// in one bucket dequeue in FIFO rather than rank order (inversions
// bounded by the width — see the quantization-deviation experiment).
func NewCFFSQuantized(cfg ShardConfig, q RankQuantizer) *CFFS {
	if cfg.Capacity <= 0 {
		panic(fmt.Sprintf("backend: cffs capacity must be positive, got %d", cfg.Capacity))
	}
	occ := cfg.ExpectedOccupancy
	if occ <= 0 || occ > cfg.Capacity {
		occ = cfg.Capacity
	}
	nb := cffsMinBuckets
	for nb < cffsMaxBuckets && nb < 16*cfg.Capacity {
		nb <<= 1
	}
	words0 := nb / 64
	words1 := (words0 + 63) / 64
	words2 := (words1 + 63) / 64
	c := &CFFS{
		quant:    q,
		capacity: cfg.Capacity,
		nBuckets: nb,
		mask:     uint64(nb - 1),
		head:     make([]int32, nb),
		tail:     make([]int32, nb),
		bktSend:  make([]uint64, nb),
		blkSend:  make([]uint64, words0),
		l0:       make([]uint64, words0),
		l1:       make([]uint64, words1),
		l2:       make([]uint64, words2),
		nodes:    make([]cnode, 0, occ),
		where:    make(map[uint32]int32, occ),
		wheel:    timewheel.New(timewheel.Config{Hint: occ}),
	}
	for i := range c.head {
		c.head[i], c.tail[i] = cffsNone, cffsNone
	}
	return c
}

// Quantizer reports the rank quantizer the backend buckets with.
func (c *CFFS) Quantizer() RankQuantizer { return c.quant }

// maxWinLo is the largest window base that keeps vb reconstruction
// (winLo + delta) from wrapping; virtual buckets above it always spill.
func (c *CFFS) maxWinLo() uint64 { return math.MaxUint64 - uint64(c.nBuckets) }

func (c *CFFS) inWindow(vb uint64) bool { return vb-c.winLo < uint64(c.nBuckets) }

// vbAt reconstructs the virtual bucket of physical slot p under the
// current window.
func (c *CFFS) vbAt(p int) uint64 {
	return c.winLo + ((uint64(p) - c.winLo) & c.mask)
}

func (c *CFFS) alloc(e core.Entry, seq uint64) int32 {
	wh := cffsNone
	if c.wheel != nil {
		wh = c.wheel.Insert(e.SendTime)
	}
	if n := len(c.free); n > 0 {
		idx := c.free[n-1]
		c.free = c.free[:n-1]
		c.nodes[idx] = cnode{ent: e, seq: seq, next: cffsNone, prev: cffsNone, bkt: cffsNone, wh: wh}
		return idx
	}
	c.nodes = append(c.nodes, cnode{ent: e, seq: seq, next: cffsNone, prev: cffsNone, bkt: cffsNone, wh: wh})
	return int32(len(c.nodes) - 1)
}

func (c *CFFS) freeNode(idx int32) {
	if c.wheel != nil {
		c.wheel.Remove(c.nodes[idx].wh)
	}
	delete(c.where, c.nodes[idx].ent.ID)
	c.nodes[idx] = cnode{next: cffsNone, prev: cffsNone, bkt: cffsNone, wh: cffsNone}
	c.free = append(c.free, idx)
}

// --- Bitmap hierarchy ---

func (c *CFFS) setBit(p int) {
	w0 := p >> 6
	if c.l0[w0] == 0 {
		w1 := w0 >> 6
		if c.l1[w1] == 0 {
			c.l2[w1>>6] |= 1 << uint(w1&63)
		}
		c.l1[w1] |= 1 << uint(w0&63)
	}
	c.l0[w0] |= 1 << uint(p&63)
}

func (c *CFFS) clearBit(p int) {
	w0 := p >> 6
	c.l0[w0] &^= 1 << uint(p&63)
	if c.l0[w0] == 0 {
		w1 := w0 >> 6
		c.l1[w1] &^= 1 << uint(w0&63)
		if c.l1[w1] == 0 {
			c.l2[w1>>6] &^= 1 << uint(w1&63)
		}
	}
}

// maskAbove is the uint64 with every bit strictly above `bit` set.
func maskAbove(bit int) uint64 { return ^uint64(0) << uint(bit) << 1 }

// nextSetL0 returns the smallest set physical bucket in [from, limit),
// or -1, descending the hierarchy with TrailingZeros64.
func (c *CFFS) nextSetL0(from, limit int) int {
	if from >= limit {
		return -1
	}
	w0 := from >> 6
	if m := c.l0[w0] & (^uint64(0) << uint(from&63)); m != 0 {
		if p := w0<<6 + bits.TrailingZeros64(m); p < limit {
			return p
		}
		return -1
	}
	w1 := w0 >> 6
	m1 := c.l1[w1] & maskAbove(w0&63)
	if m1 == 0 {
		w2 := w1 >> 6
		m2 := c.l2[w2] & maskAbove(w1&63)
		for m2 == 0 {
			w2++
			if w2 >= len(c.l2) {
				return -1
			}
			m2 = c.l2[w2]
		}
		w1 = w2<<6 + bits.TrailingZeros64(m2)
		m1 = c.l1[w1]
	}
	w0 = w1<<6 + bits.TrailingZeros64(m1)
	p := w0<<6 + bits.TrailingZeros64(c.l0[w0])
	if p < limit {
		return p
	}
	return -1
}

// maskBelow is the uint64 with every bit strictly below `bit` set.
func maskBelow(bit int) uint64 { return ^(^uint64(0) << uint(bit)) }

// prevSetL0 returns the largest set physical bucket in [lo, hi], or -1.
func (c *CFFS) prevSetL0(hi, lo int) int {
	if hi < lo {
		return -1
	}
	w0 := hi >> 6
	if m := c.l0[w0] & ^maskAbove(hi&63); m != 0 {
		if p := w0<<6 + 63 - bits.LeadingZeros64(m); p >= lo {
			return p
		}
		return -1
	}
	w1 := w0 >> 6
	m1 := c.l1[w1] & maskBelow(w0&63)
	if m1 == 0 {
		w2 := w1 >> 6
		m2 := c.l2[w2] & maskBelow(w1&63)
		for m2 == 0 {
			w2--
			if w2 < 0 {
				return -1
			}
			m2 = c.l2[w2]
		}
		w1 = w2<<6 + 63 - bits.LeadingZeros64(m2)
		m1 = c.l1[w1]
	}
	w0 = w1<<6 + 63 - bits.LeadingZeros64(m1)
	p := w0<<6 + 63 - bits.LeadingZeros64(c.l0[w0])
	if p >= lo {
		return p
	}
	return -1
}

// firstOccupied returns the physical bucket of the smallest occupied
// virtual bucket. The window wraps at phys(winLo): ascending virtual
// order is phys [p0, B) then [0, p0). Caller guarantees bucketCount > 0.
func (c *CFFS) firstOccupied() int {
	p0 := int(c.winLo & c.mask)
	if p := c.nextSetL0(p0, c.nBuckets); p >= 0 {
		return p
	}
	return c.nextSetL0(0, p0)
}

// lastOccupied mirrors firstOccupied for the largest occupied virtual
// bucket: descending virtual order is phys [p0-1, 0] then [B-1, p0].
func (c *CFFS) lastOccupied() int {
	p0 := int(c.winLo & c.mask)
	if p := c.prevSetL0(p0-1, 0); p >= 0 {
		return p
	}
	return c.prevSetL0(c.nBuckets-1, p0)
}

// --- Chain and spill maintenance ---

// insertBucket links node idx into bucket vb's chain in ascending seq
// order and refreshes the eligibility summaries. Sequences mostly arrive
// in order (producers racing for a shard lock after drawing their
// sequences are the exception), so the backward walk from the tail is
// O(1) amortized.
func (c *CFFS) insertBucket(idx int32, vb uint64) {
	p := int(vb & c.mask)
	n := &c.nodes[idx]
	n.bkt = int32(p)
	send := uint64(n.ent.SendTime)
	w0 := p >> 6
	if c.head[p] == cffsNone {
		blockWasEmpty := c.l0[w0] == 0
		c.head[p], c.tail[p] = idx, idx
		c.setBit(p)
		c.bktSend[p] = send
		if blockWasEmpty || send < c.blkSend[w0] {
			c.blkSend[w0] = send
		}
	} else {
		at := c.tail[p]
		for at != cffsNone && c.nodes[at].seq > n.seq {
			at = c.nodes[at].prev
		}
		if at == cffsNone {
			n.next = c.head[p]
			c.nodes[c.head[p]].prev = idx
			c.head[p] = idx
		} else {
			n.prev = at
			n.next = c.nodes[at].next
			if n.next != cffsNone {
				c.nodes[n.next].prev = idx
			} else {
				c.tail[p] = idx
			}
			c.nodes[at].next = idx
		}
		if send < c.bktSend[p] {
			c.bktSend[p] = send
		}
		if send < c.blkSend[w0] {
			c.blkSend[w0] = send
		}
	}
	c.bucketCount++
}

// rescanBlock recomputes blkSend[w0] from the nonempty buckets of word
// w0 — the exact-min rescue path when the block minimum departs.
func (c *CFFS) rescanBlock(w0 int) {
	m := uint64(clock.Never)
	for w := c.l0[w0]; w != 0; w &= w - 1 {
		p := w0<<6 + bits.TrailingZeros64(w)
		if c.bktSend[p] < m {
			m = c.bktSend[p]
		}
	}
	c.blkSend[w0] = m
}

// removeBucket unlinks node idx from its chain and restores the exact
// summaries: a departing value below the summary is impossible (they are
// exact minima), equal forces a rescan, above leaves it untouched.
func (c *CFFS) removeBucket(idx int32) {
	n := &c.nodes[idx]
	p := int(n.bkt)
	if n.prev != cffsNone {
		c.nodes[n.prev].next = n.next
	} else {
		c.head[p] = n.next
	}
	if n.next != cffsNone {
		c.nodes[n.next].prev = n.prev
	} else {
		c.tail[p] = n.prev
	}
	send := uint64(n.ent.SendTime)
	w0 := p >> 6
	if c.head[p] == cffsNone {
		c.tail[p] = cffsNone
		c.clearBit(p)
		if c.l0[w0] != 0 && send == c.blkSend[w0] {
			c.rescanBlock(w0)
		}
	} else {
		if send == c.bktSend[p] {
			m := uint64(clock.Never)
			for at := c.head[p]; at != cffsNone; at = c.nodes[at].next {
				if s := uint64(c.nodes[at].ent.SendTime); s < m {
					m = s
				}
			}
			c.bktSend[p] = m
		}
		if send == c.blkSend[w0] {
			c.rescanBlock(w0)
		}
	}
	c.bucketCount--
}

func (c *CFFS) insertSpill(idx int32) {
	n := &c.nodes[idx]
	pos := sort.Search(len(c.spill), func(i int) bool {
		o := &c.nodes[c.spill[i]]
		if o.ent.Rank != n.ent.Rank {
			return o.ent.Rank > n.ent.Rank
		}
		return o.seq > n.seq
	})
	c.spill = append(c.spill, 0)
	copy(c.spill[pos+1:], c.spill[pos:])
	c.spill[pos] = idx
}

// removeSpill locates idx by (rank, seq) binary search and deletes it.
func (c *CFFS) removeSpill(idx int32) {
	n := &c.nodes[idx]
	pos := sort.Search(len(c.spill), func(i int) bool {
		o := &c.nodes[c.spill[i]]
		if o.ent.Rank != n.ent.Rank {
			return o.ent.Rank >= n.ent.Rank
		}
		return o.seq >= n.seq
	})
	for pos < len(c.spill) && c.spill[pos] != idx {
		pos++
	}
	if pos >= len(c.spill) {
		panic(fmt.Sprintf("backend: cffs spill lost node for id %d", n.ent.ID))
	}
	c.spill = append(c.spill[:pos], c.spill[pos+1:]...)
}

// remove extracts node idx from wherever it lives. spillPos >= 0 passes
// a known spill position from the finder, skipping the search.
func (c *CFFS) remove(idx int32, spillPos int) {
	switch {
	case spillPos >= 0:
		c.spill = append(c.spill[:spillPos], c.spill[spillPos+1:]...)
	case c.nodes[idx].bkt != cffsNone:
		c.removeBucket(idx)
	default:
		c.removeSpill(idx)
	}
	c.freeNode(idx)
}

// --- The dequeue scan ---

// scanSeg finds the first eligible (and in-range, when ranged) element
// scanning buckets in ascending virtual order across phys [from, limit):
// empty words are skipped through the bitmap hierarchy, blocks and
// buckets with nothing eligible through the exact send summaries, and
// the surviving chain is walked in seq order.
func (c *CFFS) scanSeg(now clock.Time, lo, hi uint32, ranged bool, from, limit int) int32 {
	p := c.nextSetL0(from, limit)
	for p >= 0 {
		w0 := p >> 6
		if clock.Time(c.blkSend[w0]) > now {
			// Nothing in this 64-bucket block is eligible; skip it whole.
			p = c.nextSetL0((w0+1)<<6, limit)
			continue
		}
		if clock.Time(c.bktSend[p]) <= now {
			for at := c.head[p]; at != cffsNone; at = c.nodes[at].next {
				n := &c.nodes[at]
				if n.ent.SendTime > now {
					continue
				}
				if ranged && (n.ent.ID < lo || n.ent.ID > hi) {
					continue
				}
				return at
			}
		}
		p = c.nextSetL0(p+1, limit)
	}
	return cffsNone
}

// findMinEligible locates the element Dequeue would extract: the bucket
// candidate (first eligible chain node of the lowest eligible bucket)
// merged against the spill candidate (first eligible spill node, which
// is the spill's exact (rank, seq) minimum) by (rank, seq). The returned
// spill position is >= 0 iff the winner came from the spill.
func (c *CFFS) findMinEligible(now clock.Time, lo, hi uint32, ranged bool) (int32, int, bool) {
	// Wheel fast path: an O(1) exact minimum send_time above now means
	// nothing anywhere is eligible — no bitmap walk, no spill scan.
	if c.wheel != nil {
		if m, ok := c.wheel.MinSendTime(); !ok || m > now {
			return cffsNone, -1, false
		}
	}
	best := cffsNone
	if c.bucketCount > 0 {
		p0 := int(c.winLo & c.mask)
		best = c.scanSeg(now, lo, hi, ranged, p0, c.nBuckets)
		if best == cffsNone {
			best = c.scanSeg(now, lo, hi, ranged, 0, p0)
		}
	}
	for sp, si := range c.spill {
		n := &c.nodes[si]
		if n.ent.SendTime > now {
			continue
		}
		if ranged && (n.ent.ID < lo || n.ent.ID > hi) {
			continue
		}
		if best == cffsNone {
			return si, sp, true
		}
		b := &c.nodes[best]
		if n.ent.Rank < b.ent.Rank || (n.ent.Rank == b.ent.Rank && n.seq < b.seq) {
			return si, sp, true
		}
		break
	}
	if best == cffsNone {
		return cffsNone, -1, false
	}
	return best, -1, true
}

// --- ShardBackend ---

// EnqueueSeq implements ShardBackend. Error precedence matches
// core.List: a full list wins over a duplicate ID. An in-window rank
// goes straight to its bucket; out-of-window ranks first try to slide
// the window (advance past the occupied minimum, or retreat when the
// occupied span still fits behind the new rank — both are O(1) bitmap
// queries and move no data) and spill only when the occupied span
// genuinely exceeds the window.
func (c *CFFS) EnqueueSeq(e core.Entry, seq uint64) error {
	if len(c.where) >= c.capacity {
		return core.ErrFull
	}
	if _, dup := c.where[e.ID]; dup {
		return core.ErrDuplicate
	}
	c.stats.Enqueues++
	c.stats.Cycles += 2
	idx := c.alloc(e, seq)
	c.where[e.ID] = idx
	vb := c.quant.Bucket(e.Rank)
	switch {
	case c.bucketCount == 0:
		if vb <= c.maxWinLo() {
			c.winLo = vb
			c.insertBucket(idx, vb)
			return nil
		}
	case c.inWindow(vb):
		c.insertBucket(idx, vb)
		return nil
	case vb > c.winLo:
		minVb := c.vbAt(c.firstOccupied())
		if vb-minVb < uint64(c.nBuckets) && minVb <= c.maxWinLo() {
			c.winLo = minVb
			c.insertBucket(idx, vb)
			return nil
		}
	default: // vb < winLo
		maxVb := c.vbAt(c.lastOccupied())
		if maxVb-vb < uint64(c.nBuckets) {
			c.winLo = vb
			c.insertBucket(idx, vb)
			return nil
		}
	}
	c.insertSpill(idx)
	return nil
}

// UpdateRankSeq implements ShardBackend as the same dequeue(f) +
// enqueue fusion core.List runs, with the same stats charging: one
// FlowDequeue plus one Enqueue.
func (c *CFFS) UpdateRankSeq(id uint32, rank uint64, sendTime clock.Time, seq uint64) bool {
	idx, ok := c.where[id]
	if !ok {
		return false
	}
	c.remove(idx, -1)
	c.stats.FlowDequeues++
	c.stats.Cycles += 2
	if err := c.EnqueueSeq(core.Entry{ID: id, Rank: rank, SendTime: sendTime}, seq); err != nil {
		// The slot this element occupied was just freed, so neither full
		// nor duplicate is reachable.
		panic(fmt.Sprintf("backend: cffs UpdateRankSeq re-enqueue of %d: %v", id, err))
	}
	return true
}

// Dequeue implements ShardBackend.
func (c *CFFS) Dequeue(now clock.Time) (core.Entry, bool) {
	idx, sp, ok := c.findMinEligible(now, 0, 0, false)
	if !ok {
		c.stats.EmptyDequeues++
		return core.Entry{}, false
	}
	e := c.nodes[idx].ent
	c.remove(idx, sp)
	c.stats.Dequeues++
	c.stats.Cycles += 4
	return e, true
}

// DequeueRange implements ShardBackend.
func (c *CFFS) DequeueRange(now clock.Time, lo, hi uint32) (core.Entry, bool) {
	idx, sp, ok := c.findMinEligible(now, lo, hi, true)
	if !ok {
		return core.Entry{}, false
	}
	e := c.nodes[idx].ent
	c.remove(idx, sp)
	c.stats.RangeDequeues++
	c.stats.Cycles += 4
	return e, true
}

// DequeueFlow implements ShardBackend.
func (c *CFFS) DequeueFlow(id uint32) (core.Entry, bool) {
	idx, ok := c.where[id]
	if !ok {
		return core.Entry{}, false
	}
	e := c.nodes[idx].ent
	c.remove(idx, -1)
	c.stats.FlowDequeues++
	c.stats.Cycles += 2
	return e, true
}

// DequeueBelowSeq implements ShardBackend: one scan locates the minimum
// eligible element, extraction happens only below the rank limit, and a
// peek outcome charges nothing.
func (c *CFFS) DequeueBelowSeq(now clock.Time, limit uint64) (core.Entry, uint64, bool, bool) {
	idx, sp, ok := c.findMinEligible(now, 0, 0, false)
	if !ok {
		return core.Entry{}, 0, false, false
	}
	n := &c.nodes[idx]
	e, seq := n.ent, n.seq
	if e.Rank >= limit {
		return e, seq, true, false
	}
	c.remove(idx, sp)
	c.stats.Dequeues++
	c.stats.Cycles += 4
	return e, seq, true, true
}

// DequeueRangeBelowSeq implements ShardBackend.
func (c *CFFS) DequeueRangeBelowSeq(now clock.Time, lo, hi uint32, limit uint64) (core.Entry, uint64, bool, bool) {
	idx, sp, ok := c.findMinEligible(now, lo, hi, true)
	if !ok {
		return core.Entry{}, 0, false, false
	}
	n := &c.nodes[idx]
	e, seq := n.ent, n.seq
	if e.Rank >= limit {
		return e, seq, true, false
	}
	c.remove(idx, sp)
	c.stats.RangeDequeues++
	c.stats.Cycles += 4
	return e, seq, true, true
}

// MinRank implements ShardBackend in O(1): the lowest occupied bucket's
// rank floor (exact at width 1) merged with the spill head's exact rank.
func (c *CFFS) MinRank() (uint64, bool) {
	if len(c.where) == 0 {
		return 0, false
	}
	r := uint64(math.MaxUint64)
	if c.bucketCount > 0 {
		r = c.quant.RankOf(c.vbAt(c.firstOccupied()))
	}
	if len(c.spill) > 0 {
		if sr := c.nodes[c.spill[0]].ent.Rank; sr < r {
			r = sr
		}
	}
	return r, true
}

// MinSendTime implements ShardBackend exactly, folding the per-block
// exact minima (visiting only nonempty blocks through the hierarchy)
// with the spill. Not a hot-path operation: the engine calls it to
// refresh stale wake hints and across rebuilds.
func (c *CFFS) MinSendTime() (clock.Time, bool) {
	if len(c.where) == 0 {
		return 0, false
	}
	if c.wheel != nil {
		return c.wheel.MinSendTime()
	}
	m := uint64(clock.Never)
	for w2 := range c.l2 {
		for m2 := c.l2[w2]; m2 != 0; m2 &= m2 - 1 {
			w1 := w2<<6 + bits.TrailingZeros64(m2)
			for m1 := c.l1[w1]; m1 != 0; m1 &= m1 - 1 {
				w0 := w1<<6 + bits.TrailingZeros64(m1)
				if c.blkSend[w0] < m {
					m = c.blkSend[w0]
				}
			}
		}
	}
	for _, si := range c.spill {
		if s := uint64(c.nodes[si].ent.SendTime); s < m {
			m = s
		}
	}
	return clock.Time(m), true
}

// MaxRankEntrySeq implements ShardBackend: the push-out victim is the
// largest-(rank, seq) element, found in the highest occupied bucket
// (rank is monotone in virtual bucket, so the global maximum lives
// there) or at the spill tail.
func (c *CFFS) MaxRankEntrySeq() (core.Entry, uint64, bool) {
	best := cffsNone
	if c.bucketCount > 0 {
		p := c.lastOccupied()
		for at := c.head[p]; at != cffsNone; at = c.nodes[at].next {
			if best == cffsNone {
				best = at
				continue
			}
			n, b := &c.nodes[at], &c.nodes[best]
			if n.ent.Rank > b.ent.Rank || (n.ent.Rank == b.ent.Rank && n.seq > b.seq) {
				best = at
			}
		}
	}
	if len(c.spill) > 0 {
		si := c.spill[len(c.spill)-1]
		if best == cffsNone {
			best = si
		} else {
			n, b := &c.nodes[si], &c.nodes[best]
			if n.ent.Rank > b.ent.Rank || (n.ent.Rank == b.ent.Rank && n.seq > b.seq) {
				best = si
			}
		}
	}
	if best == cffsNone {
		return core.Entry{}, 0, false
	}
	n := &c.nodes[best]
	return n.ent, n.seq, true
}

// NextWakeAfter implements the EligIndexed capability: the exact
// smallest send_time strictly above now, clock.Never when none. O(1)
// through the wheel; the fallback after DisableEligIndex walks every
// occupied bucket chain and the spill — exact but O(n), which is why
// the wheel exists.
func (c *CFFS) NextWakeAfter(now clock.Time) clock.Time {
	if c.wheel != nil {
		return c.wheel.NextWakeAfter(now)
	}
	best := clock.Never
	for w2 := range c.l2 {
		for m2 := c.l2[w2]; m2 != 0; m2 &= m2 - 1 {
			w1 := w2<<6 + bits.TrailingZeros64(m2)
			for m1 := c.l1[w1]; m1 != 0; m1 &= m1 - 1 {
				w0 := w1<<6 + bits.TrailingZeros64(m1)
				for w := c.l0[w0]; w != 0; w &= w - 1 {
					p := w0<<6 + bits.TrailingZeros64(w)
					for at := c.head[p]; at != cffsNone; at = c.nodes[at].next {
						if t := c.nodes[at].ent.SendTime; t > now && t < best {
							best = t
						}
					}
				}
			}
		}
	}
	for _, si := range c.spill {
		if t := c.nodes[si].ent.SendTime; t > now && t < best {
			best = t
		}
	}
	return best
}

// EligIndexActive implements the EligIndexed capability.
func (c *CFFS) EligIndexActive() bool { return c.wheel != nil }

// DisableEligIndex implements the EligIndexed capability, dropping the
// wheel permanently for this instance.
func (c *CFFS) DisableEligIndex() { c.wheel = nil }

// Contains implements ShardBackend.
func (c *CFFS) Contains(id uint32) bool {
	_, ok := c.where[id]
	return ok
}

// Len implements ShardBackend.
func (c *CFFS) Len() int { return len(c.where) }

// peek reports what Dequeue (or DequeueRange) would extract, charging
// nothing.
func (c *CFFS) peek(now clock.Time, lo, hi uint32, ranged bool) (core.Entry, bool) {
	idx, _, ok := c.findMinEligible(now, lo, hi, ranged)
	if !ok {
		return core.Entry{}, false
	}
	return c.nodes[idx].ent, true
}

// SnapshotWithSeq implements ShardBackend: every queued entry with its
// stamped sequence in (rank, seq) order — the exact dequeue order at
// width 1, and the ideal (unquantized) order above it.
func (c *CFFS) SnapshotWithSeq() ([]core.Entry, []uint64) {
	type pair struct {
		e core.Entry
		s uint64
	}
	all := make([]pair, 0, len(c.where))
	for w2 := range c.l2 {
		for m2 := c.l2[w2]; m2 != 0; m2 &= m2 - 1 {
			w1 := w2<<6 + bits.TrailingZeros64(m2)
			for m1 := c.l1[w1]; m1 != 0; m1 &= m1 - 1 {
				w0 := w1<<6 + bits.TrailingZeros64(m1)
				for w := c.l0[w0]; w != 0; w &= w - 1 {
					p := w0<<6 + bits.TrailingZeros64(w)
					for at := c.head[p]; at != cffsNone; at = c.nodes[at].next {
						all = append(all, pair{c.nodes[at].ent, c.nodes[at].seq})
					}
				}
			}
		}
	}
	for _, si := range c.spill {
		all = append(all, pair{c.nodes[si].ent, c.nodes[si].seq})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].e.Rank != all[j].e.Rank {
			return all[i].e.Rank < all[j].e.Rank
		}
		return all[i].s < all[j].s
	})
	ents := make([]core.Entry, len(all))
	seqs := make([]uint64, len(all))
	for i, pr := range all {
		ents[i], seqs[i] = pr.e, pr.s
	}
	return ents, seqs
}

// Snapshot implements ShardBackend.
func (c *CFFS) Snapshot() []core.Entry {
	ents, _ := c.SnapshotWithSeq()
	return ents
}

// Stats implements ShardBackend with core.Stats conventions: operation
// counters match core.List call for call (UpdateRankSeq charges one
// FlowDequeue plus one Enqueue), and Cycles approximates datapath beats;
// the SRAM port counters stay zero — there is no sublist datapath here.
func (c *CFFS) Stats() core.Stats { return c.stats }

// CheckInvariants implements ShardBackend: bitmap hierarchy vs chains,
// chain link and seq-order integrity, exact send summaries, window
// membership, spill order, and arena conservation.
func (c *CFFS) CheckInvariants() error {
	if c.bucketCount+len(c.spill) != len(c.where) {
		return fmt.Errorf("cffs: %d bucketed + %d spilled != %d mapped", c.bucketCount, len(c.spill), len(c.where))
	}
	if len(c.nodes)-len(c.free) != len(c.where) {
		return fmt.Errorf("cffs: arena holds %d live nodes, map %d", len(c.nodes)-len(c.free), len(c.where))
	}
	seen := 0
	for w0 := range c.l0 {
		// l1/l2 must mirror word occupancy exactly.
		w1 := w0 >> 6
		if got := c.l1[w1]&(1<<uint(w0&63)) != 0; got != (c.l0[w0] != 0) {
			return fmt.Errorf("cffs: l1 bit for word %d = %v, l0 word %#x", w0, got, c.l0[w0])
		}
		if got := c.l2[w1>>6]&(1<<uint(w1&63)) != 0; got != (c.l1[w1] != 0) {
			return fmt.Errorf("cffs: l2 bit for l1 word %d mismatch", w1)
		}
		if c.l0[w0] == 0 {
			// A chain dangling under a clear bit is caught by the node
			// count below; skip the per-bucket walk for empty words.
			continue
		}
		blkMin := uint64(clock.Never)
		for bit := 0; bit < 64; bit++ {
			p := w0<<6 + bit
			occupied := c.l0[w0]&(1<<uint(bit)) != 0
			if !occupied {
				if c.head[p] != cffsNone || c.tail[p] != cffsNone {
					return fmt.Errorf("cffs: bucket %d has chain but clear bit", p)
				}
				continue
			}
			if c.head[p] == cffsNone {
				return fmt.Errorf("cffs: bucket %d bit set but chain empty", p)
			}
			vb := c.vbAt(p)
			if !c.inWindow(vb) {
				return fmt.Errorf("cffs: bucket %d reconstructs vb %d outside window [%d,+%d)", p, vb, c.winLo, c.nBuckets)
			}
			chainMin := uint64(clock.Never)
			prev := cffsNone
			var prevSeq uint64
			for at := c.head[p]; at != cffsNone; at = c.nodes[at].next {
				n := &c.nodes[at]
				if n.bkt != int32(p) {
					return fmt.Errorf("cffs: node %d in bucket %d claims bucket %d", at, p, n.bkt)
				}
				if n.prev != prev {
					return fmt.Errorf("cffs: bucket %d chain prev link broken at node %d", p, at)
				}
				if prev != cffsNone && n.seq < prevSeq {
					return fmt.Errorf("cffs: bucket %d chain seq order broken at node %d", p, at)
				}
				if c.quant.Bucket(n.ent.Rank) != vb {
					return fmt.Errorf("cffs: node %d rank %d in bucket for vb %d", at, n.ent.Rank, vb)
				}
				if got, ok := c.where[n.ent.ID]; !ok || got != at {
					return fmt.Errorf("cffs: node %d (id %d) not mapped to itself", at, n.ent.ID)
				}
				if s := uint64(n.ent.SendTime); s < chainMin {
					chainMin = s
				}
				prev, prevSeq = at, n.seq
				seen++
			}
			if c.tail[p] != prev {
				return fmt.Errorf("cffs: bucket %d tail %d, chain ends at %d", p, c.tail[p], prev)
			}
			if c.bktSend[p] != chainMin {
				return fmt.Errorf("cffs: bucket %d send summary %d, chain min %d", p, c.bktSend[p], chainMin)
			}
			if c.bktSend[p] < blkMin {
				blkMin = c.bktSend[p]
			}
		}
		if c.l0[w0] != 0 && c.blkSend[w0] != blkMin {
			return fmt.Errorf("cffs: block %d send summary %d, bucket min %d", w0, c.blkSend[w0], blkMin)
		}
	}
	if seen != c.bucketCount {
		return fmt.Errorf("cffs: chains hold %d nodes, bucketCount %d", seen, c.bucketCount)
	}
	for i, si := range c.spill {
		n := &c.nodes[si]
		if n.bkt != cffsNone {
			return fmt.Errorf("cffs: spill node %d claims bucket %d", si, n.bkt)
		}
		if got, ok := c.where[n.ent.ID]; !ok || got != si {
			return fmt.Errorf("cffs: spill node %d (id %d) not mapped to itself", si, n.ent.ID)
		}
		if i > 0 {
			o := &c.nodes[c.spill[i-1]]
			if o.ent.Rank > n.ent.Rank || (o.ent.Rank == n.ent.Rank && o.seq > n.seq) {
				return fmt.Errorf("cffs: spill order broken at position %d", i)
			}
		}
	}
	// Wheel residency must exactly match backend contents.
	if c.wheel != nil {
		if c.wheel.Len() != len(c.where) {
			return fmt.Errorf("cffs: wheel holds %d elements, backend %d", c.wheel.Len(), len(c.where))
		}
		for _, idx := range c.where {
			n := &c.nodes[idx]
			if got := c.wheel.TimeOf(n.wh); got != n.ent.SendTime {
				return fmt.Errorf("cffs: wheel handle %d for id %d holds t=%v, node send_time %v", n.wh, n.ent.ID, got, n.ent.SendTime)
			}
		}
		if err := c.wheel.CheckInvariants(); err != nil {
			return err
		}
	}
	return nil
}

var _ ShardBackend = (*CFFS)(nil)

// --- Top-level Backend adapter ---

// CFFSList adapts CFFS to the Backend interface for standalone
// (unsharded) use, stamping its own FIFO sequence.
type CFFSList struct {
	*CFFS
	seq uint64
}

// NewCFFSList creates a width-1 (exact) standalone cFFS backend with
// capacity n.
func NewCFFSList(n int) *CFFSList {
	return &CFFSList{CFFS: NewCFFS(ShardConfig{Capacity: n, ExpectedOccupancy: n})}
}

// NewCFFSListQuantized is NewCFFSList with an explicit bucket width —
// the configuration the quantization-deviation experiment measures.
func NewCFFSListQuantized(n int, q RankQuantizer) *CFFSList {
	return &CFFSList{CFFS: NewCFFSQuantized(ShardConfig{Capacity: n, ExpectedOccupancy: n}, q)}
}

// Enqueue implements Backend, stamping the next FIFO sequence. A failed
// insert burns its sequence harmlessly (ties compare relative order).
func (b *CFFSList) Enqueue(e core.Entry) error {
	b.seq++
	return b.CFFS.EnqueueSeq(e, b.seq)
}

// UpdateRank implements RankUpdater, restamping the element's FIFO
// position exactly as core.List does.
func (b *CFFSList) UpdateRank(id uint32, rank uint64, sendTime clock.Time) bool {
	b.seq++
	return b.CFFS.UpdateRankSeq(id, rank, sendTime, b.seq)
}

// Peek implements Peeker.
func (b *CFFSList) Peek(now clock.Time) (core.Entry, bool) {
	return b.CFFS.peek(now, 0, 0, false)
}

// PeekRange implements Peeker.
func (b *CFFSList) PeekRange(now clock.Time, lo, hi uint32) (core.Entry, bool) {
	return b.CFFS.peek(now, lo, hi, true)
}

// PeekMax implements Evictor.
func (b *CFFSList) PeekMax() (core.Entry, bool) {
	e, _, ok := b.CFFS.MaxRankEntrySeq()
	return e, ok
}

// EvictMax implements Evictor.
func (b *CFFSList) EvictMax() (core.Entry, bool) {
	e, _, ok := b.CFFS.MaxRankEntrySeq()
	if !ok {
		return core.Entry{}, false
	}
	return b.CFFS.DequeueFlow(e.ID)
}

// Stats implements Backend by projecting the datapath counters onto the
// operation summary, exactly as CoreList does.
func (b *CFFSList) Stats() Stats {
	s := b.CFFS.Stats()
	return Stats{
		Enqueues:      s.Enqueues,
		Dequeues:      s.Dequeues,
		EmptyDequeues: s.EmptyDequeues,
		FlowDequeues:  s.FlowDequeues,
		RangeDequeues: s.RangeDequeues,
	}
}

// HardwareStats implements HardwareModeled.
func (b *CFFSList) HardwareStats() core.Stats { return b.CFFS.Stats() }

var (
	_ Backend          = (*CFFSList)(nil)
	_ EligIndexed      = (*CFFSList)(nil)
	_ Peeker           = (*CFFSList)(nil)
	_ RankUpdater      = (*CFFSList)(nil)
	_ Evictor          = (*CFFSList)(nil)
	_ InvariantChecker = (*CFFSList)(nil)
	_ HardwareModeled  = (*CFFSList)(nil)
)

func init() {
	Register("cffs", func(n int) Backend { return NewCFFSList(n) })
	RegisterShard("cffs", func(cfg ShardConfig) ShardBackend { return NewCFFS(cfg) })
}

// Package core implements the PIEO (Push-In-Extract-Out) ordered list —
// the paper's primary contribution (§3.1) — using a functional model of
// the exact hardware design of §5:
//
//   - The list is stored as an array of sublists of size S = ⌈√N⌉. Each
//     sublist keeps its elements ordered twice: by rank (Rank-Sublist)
//     and by send_time (Eligibility-Sublist).
//   - A pointer array (Ordered-Sublist-Array) orders the sublists by
//     their smallest rank and caches each sublist's smallest rank,
//     smallest send_time, and occupancy. Its left partition points to
//     non-empty sublists, its right partition to empty ones.
//   - Invariant 1: no two consecutive partially-full sublists, so N
//     elements never need more than ~2√N sublists (2× SRAM overhead) and
//     every operation touches at most two sublists.
//
// All three primitive operations — Enqueue (Push-In), Dequeue
// (Extract-Out of the smallest-ranked eligible element), and DequeueFlow
// (extract a specific element) — complete in a constant four hardware
// clock cycles; the model counts cycles, sublist reads/writes (SRAM port
// usage), and comparator activations in Stats so the evaluation harness
// can reason about hardware cost without re-deriving it.
//
// The hardware evaluates its O(√N) comparators in parallel, so a
// software model that emulates them with sequential scans pays O(√N)
// per operation where the hardware pays one cycle. The software datapath
// therefore takes three shortcuts that change no observable behavior
// (DESIGN.md §7):
//
//   - Position searches run as binary searches: the pointer array's
//     smallest ranks are nondecreasing (sublists partition the global
//     rank order) and each Rank-/Eligibility-Sublist is sorted, so every
//     parallel-compare + priority-encode step has an O(log) equivalent.
//   - The dequeue-side eligibility select keeps a packed summary word
//     per 32 pointer-array positions (the minimum cached send_time of
//     the block — the same summary-tournament technique internal/shard
//     uses across engines), so finding the first eligible sublist skips
//     32 positions per probe instead of scanning all ~2√N.
//   - Sublists live in two-ended stores with slack on both sides, so
//     head/tail insertions and removals — the common case on both the
//     enqueue split path and the dequeue refill path — move no elements,
//     and interior shifts move whichever side is shorter.
//
// Stats still counts the work the HARDWARE would do — all comparators
// charged per parallel compare, four cycles per op — not the software's
// shortcut, so hardware-cost experiments are unaffected by software
// optimization (see Stats).
//
// Eligibility predicates follow §5.2: each element carries a send_time
// and is eligible when curr_time >= send_time, where curr_time is any
// monotonic function of time supplied by the caller at dequeue.
// clock.Always (0) encodes predicate-true, clock.Never encodes
// predicate-false. Ties in rank dequeue in enqueue (FIFO) order (§3.1).
package core

import (
	"errors"
	"fmt"
	"math"

	"pieo/internal/clock"
	"pieo/internal/timewheel"
)

// Entry is one element of the ordered list: a flow (or packet) identifier
// with its programmable rank and eligibility time. The paper's prototype
// uses 16-bit rank and send_time fields; this model widens them to 64
// bits so virtual-time algorithms never wrap, and leaves bit-width
// costing to internal/hwmodel.
type Entry struct {
	ID       uint32
	Rank     uint64
	SendTime clock.Time
}

// Eligible reports whether the entry's predicate holds at time now.
func (e Entry) Eligible(now clock.Time) bool { return now >= e.SendTime }

// String renders the entry like the paper's figures: [id, rank, send].
func (e Entry) String() string {
	return fmt.Sprintf("[%d, %d, %s]", e.ID, e.Rank, e.SendTime)
}

// Operation errors.
var (
	// ErrFull is returned by Enqueue when the list is at capacity.
	ErrFull = errors.New("pieo: list full")
	// ErrDuplicate is returned by Enqueue when the ID is already queued;
	// a flow appears at most once in the scheduler's ordered list (§3.2).
	ErrDuplicate = errors.New("pieo: id already enqueued")
	// ErrShardDown is returned by sharded backends when an operation
	// cannot be served because the responsible partition is quarantined
	// (and, for writes, no healthy partition could absorb the traffic).
	ErrShardDown = errors.New("pieo: shard down")
	// ErrUnknownFlow is recorded by scheduler layers when an ordered list
	// yields an ID with no registered flow state — a wiring fault between
	// the list and the flow table.
	ErrUnknownFlow = errors.New("pieo: unknown flow")
	// ErrDeadline is returned by deadline-wrapped blocking operations
	// (sched.NextPacket under a dequeue budget, supervision helpers)
	// when the time budget expires before the operation makes progress —
	// the graceful alternative to spinning until the guard counter trips.
	ErrDeadline = errors.New("pieo: operation deadline exceeded")
)

// Stats counts the work performed by the list, in hardware terms.
// Cycles follows the §5.2 datapath: four cycles per primitive operation.
// Range dequeues (the hierarchical logical-PIEO path, §4.3) may scan
// several sublists whose metadata passes the time filter but whose
// elements all fall outside the requested index range; each extra scanned
// sublist costs one additional cycle and one additional read, which the
// model charges explicitly.
//
// The counters describe the HARDWARE datapath, not the software model:
// a parallel compare over the pointer array charges all l.active
// comparators even though the software resolves it with an O(log √N)
// binary search, and batch operations (EnqueueBatch, DequeueUpTo) charge
// exactly what the same operations issued one at a time would.
type Stats struct {
	Enqueues      uint64
	Dequeues      uint64 // successful Dequeue()
	EmptyDequeues uint64 // Dequeue() that found no eligible element
	FlowDequeues  uint64 // successful DequeueFlow()
	RangeDequeues uint64 // successful DequeueRange()

	Cycles        uint64
	SublistReads  uint64 // sublists fetched from SRAM
	SublistWrites uint64 // sublists written back to SRAM
	PtrCompares   uint64 // pointer-array comparator activations
	ElemCompares  uint64 // sublist comparator activations
}

// element is an Entry plus its enqueue sequence number, which breaks rank
// ties in FIFO order exactly as the hardware's insert-after-equals
// placement does.
type element struct {
	Entry
	seq uint64
	// wh is the element's handle in the list's timing-wheel eligibility
	// index (meaningless while the wheel is disabled). It travels with
	// the element through sublist moves, so wheel maintenance happens
	// only at true insert/extract boundaries.
	wh int32
}

// key comparison: rank first, then FIFO sequence.
func (a element) less(b element) bool {
	if a.Rank != b.Rank {
		return a.Rank < b.Rank
	}
	return a.seq < b.seq
}

// sublist is one SRAM-resident sublist: entries ordered by (rank, seq)
// and a parallel multiset of send_times ordered ascending (the
// Eligibility-Sublist).
//
// Both orders live in two-ended backing stores of capacity 2·(S+1) with
// the live window floating between slack at either end (entries =
// buf[estart : estart+n]). Removing the head or tail — what every
// dequeue and every Invariant-1 refill does — just moves the window
// edge; interior insertions shift whichever side is shorter. The 2×
// store mirrors the paper's own 2× SRAM provisioning and guarantees one
// side always has room, so the window never needs recentering.
type sublist struct {
	entries []element    // rank-ordered window into buf
	elig    []clock.Time // ascending send_time window into tbuf

	buf    []element
	tbuf   []clock.Time
	estart int // entries window offset within buf
	tstart int // elig window offset within tbuf
}

func (s *sublist) len() int           { return len(s.entries) }
func (s *sublist) full(cap_ int) bool { return len(s.entries) == cap_ }

// alloc sizes the two-ended stores for sublist size size. New binds most
// sublists to a contiguous arena up front; alloc covers the ones past
// the occupancy hint's high-water mark, as a one-time cost on first use.
func (s *sublist) alloc(size int) {
	slots := 2 * (size + 1)
	s.bind(make([]element, slots), make([]clock.Time, slots))
}

// bind attaches backing stores and centers the (empty) windows.
func (s *sublist) bind(buf []element, tbuf []clock.Time) {
	s.buf, s.tbuf = buf, tbuf
	s.estart = len(buf) / 2
	s.tstart = len(tbuf) / 2
	s.entries = buf[s.estart:s.estart]
	s.elig = tbuf[s.tstart:s.tstart]
}

// insertEntryAt places e at rank-order index idx, shifting whichever
// side of the two-ended store is shorter (falling back to the side with
// room; one side always has some, since cap = 2·(S+1) ≥ n+1).
func (s *sublist) insertEntryAt(idx int, e element) {
	n := len(s.entries)
	if (idx <= n-idx && s.estart > 0) || s.estart+n == len(s.buf) {
		copy(s.buf[s.estart-1:], s.buf[s.estart:s.estart+idx])
		s.estart--
	} else {
		copy(s.buf[s.estart+idx+1:s.estart+n+1], s.buf[s.estart+idx:s.estart+n])
	}
	s.buf[s.estart+idx] = e
	s.entries = s.buf[s.estart : s.estart+n+1]
}

// removeEntryAt deletes rank-order index idx, shifting the shorter side.
// Emptying the sublist recenters the window so the next fill starts with
// balanced slack.
func (s *sublist) removeEntryAt(idx int) {
	n := len(s.entries)
	if n == 1 {
		s.estart = len(s.buf) / 2
		s.entries = s.buf[s.estart:s.estart]
		return
	}
	if idx < n-1-idx {
		copy(s.buf[s.estart+1:s.estart+idx+1], s.buf[s.estart:s.estart+idx])
		s.estart++
	} else {
		copy(s.buf[s.estart+idx:s.estart+n-1], s.buf[s.estart+idx+1:s.estart+n])
	}
	s.entries = s.buf[s.estart : s.estart+n-1]
}

// insertEligAt and removeEligAt are the same two-ended operations on the
// Eligibility-Sublist.
func (s *sublist) insertEligAt(idx int, t clock.Time) {
	n := len(s.elig)
	if (idx <= n-idx && s.tstart > 0) || s.tstart+n == len(s.tbuf) {
		copy(s.tbuf[s.tstart-1:], s.tbuf[s.tstart:s.tstart+idx])
		s.tstart--
	} else {
		copy(s.tbuf[s.tstart+idx+1:s.tstart+n+1], s.tbuf[s.tstart+idx:s.tstart+n])
	}
	s.tbuf[s.tstart+idx] = t
	s.elig = s.tbuf[s.tstart : s.tstart+n+1]
}

func (s *sublist) removeEligAt(idx int) {
	n := len(s.elig)
	if n == 1 {
		s.tstart = len(s.tbuf) / 2
		s.elig = s.tbuf[s.tstart:s.tstart]
		return
	}
	if idx < n-1-idx {
		copy(s.tbuf[s.tstart+1:s.tstart+idx+1], s.tbuf[s.tstart:s.tstart+idx])
		s.tstart++
	} else {
		copy(s.tbuf[s.tstart+idx:s.tstart+n-1], s.tbuf[s.tstart+idx+1:s.tstart+n])
	}
	s.elig = s.tbuf[s.tstart : s.tstart+n-1]
}

// ptr is one Ordered-Sublist-Array entry (§5.2). smallestSeq caches the
// FIFO sequence of the sublist's head element alongside its rank: the
// enqueue-side sublist selection must compare full (rank, seq) keys, not
// ranks alone, because EnqueueSeq callers (the sharded engine, which
// draws sequences outside the shard lock) may insert equal-rank elements
// out of sequence order — an
// arriving element can carry a SMALLER seq than a cached head, and a
// rank-only "not greater means older" tie-break would then pick a sublist
// to the right of the element's true position, breaking the global
// (rank, seq) order across sublists.
type ptr struct {
	sublistID        int
	smallestRank     uint64
	smallestSeq      uint64
	smallestSendTime clock.Time
	num              int
}

// Packed eligibility summary geometry: one summary word per 32
// pointer-array positions, holding the block's minimum cached
// send_time. 32 keeps the summary array a few cache lines even at the
// 2^19 operating point (~46 words) while bounding the in-block scan.
const (
	eligBlockShift = 5
	eligBlockLen   = 1 << eligBlockShift
	eligBlockMask  = eligBlockLen - 1
)

// List is a PIEO ordered list. Create one with New or NewWithSublistSize.
type List struct {
	capacity    int
	sublistSize int

	sublists []sublist // backing storage, indexed by sublist id
	order    []ptr     // Ordered-Sublist-Array; [0:active) non-empty, rest empty
	active   int
	posOf    []int // sublist id -> position in order

	// eligBlk[b] is the minimum order[i].smallestSendTime over the active
	// positions i in [b·32, (b+1)·32) — the software's packed stand-in
	// for the hardware's parallel eligibility comparators. It is exact
	// (refreshed on every metadata change), so a block whose word fails
	// the time filter is skipped wholesale and a block whose word passes
	// is guaranteed to contain an eligible sublist.
	eligBlk []clock.Time

	// wheel is the timing-wheel eligibility index (internal/timewheel):
	// every queued element is mirrored into it by send_time, making
	// MinSendTime O(1)-exact, giving dequeue a constant-time "nothing
	// eligible" verdict, and answering NextWakeAfter exactly. nil after
	// DisableEligIndex (the recorded non-wheel baseline): the list then
	// falls back to its summary scans with identical results.
	wheel *timewheel.Wheel

	size  int
	seq   uint64
	where map[uint32]int // flow id -> sublist id (per-flow state, §5.2 Dequeue(f))

	stats Stats
}

// New creates a PIEO list with capacity n using the paper's geometry:
// sublists of size ⌈√n⌉.
func New(n int) *List {
	if n <= 0 {
		panic(fmt.Sprintf("pieo: capacity must be positive, got %d", n))
	}
	return NewWithSublistSize(n, int(math.Ceil(math.Sqrt(float64(n)))))
}

// NewWithSublistSize creates a PIEO list with an explicit sublist size,
// used by the sublist-geometry ablation. The number of sublists is
// 2·⌈n/s⌉ + 2: the paper's 2× Invariant-1 overhead plus two slack
// sublists so the worst-case full/partial alternation can never exhaust
// the empty partition at the capacity boundary.
func NewWithSublistSize(n, s int) *List {
	return NewWithOccupancyHint(n, s, n)
}

// NewWithOccupancyHint is NewWithSublistSize with the flow map and the
// sublist storage arena pre-sized for an expected occupancy below the
// hard capacity. A sharded engine provisions every shard with the full
// shared capacity for safety (hash partitioning guarantees no balance)
// but expects ~capacity/K residents; sizing for the expectation keeps
// the map probes cache-resident and the preallocated arena proportional
// to real occupancy. The structure still grows transparently — the map
// rehashes, sublists past the arena allocate on first use — if a shard
// ever exceeds the hint.
func NewWithOccupancyHint(n, s, hint int) *List {
	if n <= 0 || s <= 0 {
		panic(fmt.Sprintf("pieo: invalid geometry n=%d s=%d", n, s))
	}
	if hint < 0 || hint > n {
		hint = n
	}
	num := 2*((n+s-1)/s) + 2
	l := &List{
		capacity:    n,
		sublistSize: s,
		sublists:    make([]sublist, num),
		order:       make([]ptr, num),
		posOf:       make([]int, num),
		eligBlk:     make([]clock.Time, (num+eligBlockMask)>>eligBlockShift),
		wheel:       timewheel.New(timewheel.Config{Hint: hint}),
		where:       make(map[uint32]int, hint),
	}
	// Preallocate two-ended stores for every sublist the hint occupancy
	// can keep active, carved from one contiguous arena (a single
	// allocation, and neighboring sublists — which every operation pair
	// touches — stay adjacent in memory). Sublist claiming is LIFO from
	// the empty partition, so the sublists that ever hold elements are
	// exactly ids [0, high-water mark): binding the arena to the lowest
	// ids makes the steady-state op path allocation-free.
	slots := 2 * (s + 1)
	pre := 2*((hint+s-1)/s) + 2
	if pre > num {
		pre = num
	}
	ebuf := make([]element, pre*slots)
	tbuf := make([]clock.Time, pre*slots)
	for i := 0; i < pre; i++ {
		l.sublists[i].bind(
			ebuf[i*slots:(i+1)*slots:(i+1)*slots],
			tbuf[i*slots:(i+1)*slots:(i+1)*slots],
		)
	}
	for i := range l.sublists {
		l.order[i] = ptr{sublistID: i, smallestSendTime: clock.Never}
		l.posOf[i] = i
	}
	for b := range l.eligBlk {
		l.eligBlk[b] = clock.Never
	}
	return l
}

// Len returns the number of queued elements.
func (l *List) Len() int { return l.size }

// Capacity returns the maximum number of elements.
func (l *List) Capacity() int { return l.capacity }

// SublistSize returns the configured sublist size S.
func (l *List) SublistSize() int { return l.sublistSize }

// NumSublists returns the number of physical sublists allocated.
func (l *List) NumSublists() int { return len(l.sublists) }

// Stats returns a copy of the accumulated operation counters.
func (l *List) Stats() Stats { return l.stats }

// Contains reports whether id is currently queued.
func (l *List) Contains(id uint32) bool {
	_, ok := l.where[id]
	return ok
}

// Enqueue inserts e at the position dictated by its rank ("Push-In",
// §3.1). Equal-rank elements are placed after existing ones so they
// dequeue in FIFO order. It returns ErrFull at capacity and ErrDuplicate
// if e.ID is already queued.
func (l *List) Enqueue(e Entry) error {
	if l.size == l.capacity {
		return ErrFull
	}
	if _, dup := l.where[e.ID]; dup {
		return ErrDuplicate
	}
	l.seq++
	return l.enqueue(element{Entry: e, seq: l.seq})
}

// EnqueueSeq inserts e with a caller-supplied FIFO tie-break sequence
// instead of the list's internal counter. Sharded engines use it to stamp
// a single global arrival order across many lists, so equal-rank elements
// on different shards still dequeue in true FIFO order without any
// per-element bookkeeping outside the lists themselves. A given list must
// be driven either through Enqueue or through EnqueueSeq, not a mix: the
// internal counter and an external one would interleave arbitrarily.
func (l *List) EnqueueSeq(e Entry, seq uint64) error {
	if l.size == l.capacity {
		return ErrFull
	}
	if _, dup := l.where[e.ID]; dup {
		return ErrDuplicate
	}
	return l.enqueue(element{Entry: e, seq: seq})
}

// enqueue is the §5.2 insert datapath shared by Enqueue and EnqueueSeq.
// Capacity and duplicate checks have already passed.
func (l *List) enqueue(elem element) error {
	e := elem.Entry

	l.stats.Enqueues++
	l.stats.Cycles += 4

	if l.wheel != nil {
		elem.wh = l.wheel.Insert(elem.SendTime)
	}

	if l.active == 0 {
		// Empty list: the first empty sublist becomes the head.
		sl := &l.sublists[l.order[0].sublistID]
		l.insertElem(sl, elem)
		l.active = 1
		l.refreshMeta(0)
		l.where[e.ID] = l.order[0].sublistID
		l.size++
		l.stats.SublistReads++
		l.stats.SublistWrites++
		return nil
	}

	// Cycle 1: the hardware compares (order[i].smallest key > elem key)
	// over the whole pointer array in parallel and priority-encodes the
	// first strictly-greater sublist j, selecting j-1 (clamped to the
	// head). The key is the full (rank, seq) pair: under Enqueue's
	// internal counter a cached head is always older than a new element,
	// so rank-only comparison would suffice, but EnqueueSeq callers may
	// stamp sequences out of arrival order (see ptr.smallestSeq) and
	// equal-rank placement must then honor the stamped order. Stats charge
	// all l.active comparators; the software resolves j by binary search,
	// valid because smallest keys are nondecreasing across the active
	// partition.
	l.stats.PtrCompares += uint64(l.active)
	lo, hi := 0, l.active
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		p := &l.order[mid]
		if p.smallestRank > e.Rank ||
			(p.smallestRank == e.Rank && p.smallestSeq > elem.seq) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	pos := lo - 1
	if pos < 0 {
		pos = 0
	}

	// Cycle 2: read S (and S' if S is full) from SRAM.
	sl := &l.sublists[l.order[pos].sublistID]
	l.stats.SublistReads++
	wasFull := sl.full(l.sublistSize)

	// Cycle 3: position via parallel compare + priority encode; cycle 4:
	// write back.
	l.stats.ElemCompares += uint64(sl.len())
	l.insertElem(sl, elem)
	l.where[e.ID] = l.order[pos].sublistID
	l.size++

	if wasFull {
		// The insert pushed the sublist to S+1; move its tail into S'.
		tail := sl.entries[sl.len()-1]
		l.removeAt(sl, sl.len()-1)

		spPos := -1
		if pos+1 < l.active && !l.sublists[l.order[pos+1].sublistID].full(l.sublistSize) {
			spPos = pos + 1
		} else {
			// Take a fresh empty sublist and rotate it to pos+1
			// (paper: "shifting S' to the right of S").
			spPos = l.claimEmptyAt(pos + 1)
		}
		sp := &l.sublists[l.order[spPos].sublistID]
		l.stats.SublistReads++
		l.stats.ElemCompares += uint64(sp.len())
		l.insertElem(sp, tail) // lands at sp's head: tail.key < all of sp
		l.where[tail.ID] = l.order[spPos].sublistID
		l.refreshMeta(spPos)
		l.stats.SublistWrites++
	}
	l.refreshMeta(pos)
	l.stats.SublistWrites++
	return nil
}

// firstEligible returns the first active position whose cached smallest
// send_time passes the time filter at now, or -1. Because sublists
// partition the global rank order, that position holds the globally
// smallest-ranked eligible element.
//
// startPos is a resume hint for batch extraction: callers must guarantee
// that every position before it is ineligible at now, so an eligible
// element the wheel reports is always found at or after it.
func (l *List) firstEligible(now clock.Time, startPos int) int {
	if !l.anyEligible(now) {
		return -1
	}
	return l.scanEligible(now, startPos)
}

// anyEligible is the wheel fast path: the index's O(1) exact minimum
// send_time decides "nothing eligible anywhere" without touching a single
// summary word — the sparse-eligibility regime where the block scan would
// walk every word and find nothing. It reports true whenever the wheel is
// disabled. The ranged scans, which call scanEligible once per visited
// sublist, consult it once per scan.
func (l *List) anyEligible(now clock.Time) bool {
	if l.wheel == nil {
		return true
	}
	m, ok := l.wheel.MinSendTime()
	return ok && m <= now
}

// scanEligible is the block-summary scan behind firstEligible: the first
// active position at or after startPos whose cached smallest send_time
// passes the time filter at now, or -1. The packed summary words skip 32
// ineligible positions per probe; a word that passes guarantees a hit
// inside its block (the summary is exact).
func (l *List) scanEligible(now clock.Time, startPos int) int {
	// The scan loops index through registers: active, the block-summary
	// slice, and the order slice are hoisted into locals so the inner
	// loops compare against register-resident headers instead of
	// re-loading l's fields (which the compiler must otherwise assume a
	// store through the slices could alias) every iteration.
	pos := startPos
	active := l.active
	blk := l.eligBlk
	ord := l.order
	for pos < active {
		if pos&eligBlockMask == 0 {
			for pos < active && now < blk[pos>>eligBlockShift] {
				pos += eligBlockLen
			}
			if pos >= active {
				return -1
			}
		}
		end := (pos | eligBlockMask) + 1
		if end > active {
			end = active
		}
		for ; pos < end; pos++ {
			if now >= ord[pos].smallestSendTime {
				return pos
			}
		}
	}
	return -1
}

// Dequeue extracts the smallest-ranked eligible element at time now
// ("Extract-Out", §3.1). It returns ok=false when no element is eligible.
func (l *List) Dequeue(now clock.Time) (Entry, bool) {
	e, _, ok := l.dequeueFrom(now, 0)
	return e, ok
}

// dequeueFrom is the Dequeue datapath with a resume hint (see
// firstEligible); it additionally returns the order position the element
// was extracted from, so DequeueUpTo can resume its scan past the
// positions already known ineligible. Stats are charged identically
// regardless of the hint: the hardware's parallel compare always
// activates every pointer-array comparator.
func (l *List) dequeueFrom(now clock.Time, startPos int) (Entry, int, bool) {
	// Cycle 1: priority-encode the first sublist whose smallest
	// send_time passes (now >= smallest_send_time).
	l.stats.PtrCompares += uint64(l.active)
	pos := l.firstEligible(now, startPos)
	if pos == -1 {
		l.stats.EmptyDequeues++
		l.stats.Cycles++ // the failed select still burns the compare cycle
		return Entry{}, -1, false
	}
	l.stats.Dequeues++
	l.stats.Cycles += 4

	sl := &l.sublists[l.order[pos].sublistID]
	l.stats.SublistReads++

	// Cycle 3: first index with send_time <= now is the smallest-ranked
	// eligible element of the sublist (entries are rank-ordered).
	l.stats.ElemCompares += uint64(sl.len())
	idx := -1
	for i := range sl.entries {
		if sl.entries[i].SendTime <= now {
			idx = i
			break
		}
	}
	if idx == -1 {
		// Metadata said an eligible element exists; its absence is a
		// datapath bug, not a runtime condition.
		panic(fmt.Sprintf("pieo: sublist %d metadata/content mismatch at t=%v", l.order[pos].sublistID, now))
	}
	out := sl.entries[idx].Entry
	l.extractAt(pos, sl, idx)
	return out, pos, true
}

// Peek returns the element Dequeue would extract at time now, without
// removing it.
func (l *List) Peek(now clock.Time) (Entry, bool) {
	e, _, ok := l.PeekSeq(now)
	return e, ok
}

// PeekSeq is Peek plus the element's FIFO sequence number, which a
// sharded engine's dequeue tournament compares to break equal-rank ties
// across shards.
func (l *List) PeekSeq(now clock.Time) (Entry, uint64, bool) {
	pos := l.firstEligible(now, 0)
	if pos == -1 {
		return Entry{}, 0, false
	}
	sl := &l.sublists[l.order[pos].sublistID]
	for i := range sl.entries {
		if sl.entries[i].SendTime <= now {
			return sl.entries[i].Entry, sl.entries[i].seq, true
		}
	}
	panic(fmt.Sprintf("pieo: sublist %d metadata/content mismatch at t=%v", l.order[pos].sublistID, now))
}

// DequeueBelowSeq is the fused peek-or-extract a sharded tournament
// wants: it locates the smallest-ranked eligible element at now in ONE
// eligibility scan, extracts it only when its rank is strictly below
// limit, and otherwise leaves it in place as a peek result. eligible
// reports whether an eligible element exists (e and seq are valid);
// taken reports whether it was extracted. A limit of 0 is a pure peek.
//
// Stats follow the operations the fusion replaces exactly: an extraction
// charges the full §5 dequeue datapath, a peek-only outcome (not
// eligible, or at/above limit) charges nothing — peeks are free, and the
// engine-level caller accounts its own empty tournaments.
func (l *List) DequeueBelowSeq(now clock.Time, limit uint64) (e Entry, seq uint64, eligible, taken bool) {
	pos := l.firstEligible(now, 0)
	if pos == -1 {
		return Entry{}, 0, false, false
	}
	sl := &l.sublists[l.order[pos].sublistID]
	idx := -1
	for i := range sl.entries {
		if sl.entries[i].SendTime <= now {
			idx = i
			break
		}
	}
	if idx == -1 {
		panic(fmt.Sprintf("pieo: sublist %d metadata/content mismatch at t=%v", l.order[pos].sublistID, now))
	}
	cand := sl.entries[idx]
	if cand.Rank >= limit {
		return cand.Entry, cand.seq, true, false
	}
	l.stats.PtrCompares += uint64(l.active)
	l.stats.Dequeues++
	l.stats.Cycles += 4
	l.stats.SublistReads++
	l.stats.ElemCompares += uint64(sl.len())
	l.extractAt(pos, sl, idx)
	return cand.Entry, cand.seq, true, true
}

// DequeueRangeBelowSeq is DequeueBelowSeq restricted to IDs in [lo, hi]
// (the logical-PIEO filter, §4.3). Extraction charges exactly what
// DequeueRange would, including the extra cycle and read per sublist
// whose time filter passed but held no in-range eligible element.
func (l *List) DequeueRangeBelowSeq(now clock.Time, lo, hi uint32, limit uint64) (e Entry, seq uint64, eligible, taken bool) {
	// Charges for sublists whose time filter passed but which held no
	// in-range element, deferred until the outcome is known (an
	// extraction pays them, a peek outcome pays nothing).
	var missReads, missCompares uint64
	if !l.anyEligible(now) {
		return Entry{}, 0, false, false
	}
	for pos := l.scanEligible(now, 0); pos != -1; pos = l.scanEligible(now, pos+1) {
		sl := &l.sublists[l.order[pos].sublistID]
		for idx := range sl.entries {
			el := &sl.entries[idx]
			if el.SendTime <= now && el.ID >= lo && el.ID <= hi {
				cand := *el
				if cand.Rank >= limit {
					return cand.Entry, cand.seq, true, false
				}
				l.stats.PtrCompares += uint64(l.active)
				l.stats.RangeDequeues++
				l.stats.Cycles += 4 + missReads
				l.stats.SublistReads += 1 + missReads
				l.stats.ElemCompares += missCompares + uint64(sl.len())
				l.extractAt(pos, sl, idx)
				return cand.Entry, cand.seq, true, true
			}
		}
		missReads++
		missCompares += uint64(sl.len())
	}
	return Entry{}, 0, false, false
}

// DequeueFlow extracts the element with the given id regardless of
// eligibility (§3.1 dequeue(f)), used by alarm handlers to update an
// element's attributes. It returns ok=false when id is not queued.
func (l *List) DequeueFlow(id uint32) (Entry, bool) {
	sid, ok := l.where[id]
	if !ok {
		return Entry{}, false
	}
	l.stats.FlowDequeues++
	l.stats.Cycles += 4

	pos := l.posOf[sid]
	sl := &l.sublists[sid]
	l.stats.SublistReads++
	l.stats.ElemCompares += uint64(sl.len())
	idx := -1
	for i := range sl.entries {
		if sl.entries[i].ID == id {
			idx = i
			break
		}
	}
	if idx == -1 {
		panic(fmt.Sprintf("pieo: flow map points id %d at sublist %d but it is not there", id, sid))
	}
	out := sl.entries[idx].Entry
	l.extractAt(pos, sl, idx)
	return out, true
}

// DequeueRange extracts the smallest-ranked element that is eligible at
// now and whose ID lies in [lo, hi] — the logical-PIEO extraction of
// hierarchical scheduling (§4.3), where each non-leaf node's predicate is
// extended with (start <= f.index <= end). Sublists whose time filter
// passes but which hold no in-range eligible element cost one extra cycle
// and read each, which Stats records; sublists skipped by the packed
// summary never passed the time filter and cost nothing, exactly as in
// the hardware's parallel select.
func (l *List) DequeueRange(now clock.Time, lo, hi uint32) (Entry, bool) {
	return l.DequeueRangeFrom(now, lo, hi, 0)
}

// DequeueRangeFrom is DequeueRange with a rank floor: the caller
// guarantees that no queued element with ID in [lo, hi] ranks below
// floor (0 promises nothing; a band with no residents may pass
// math.MaxUint64). The scan then starts at the first sublist that can
// hold rank >= floor instead of at the head of the pointer array, so a
// band whose residents all rank behind other bands' skips those bands'
// sublists. The result is the one DequeueRange returns.
//
// Stats are charged exactly as a scan from the head: every skipped
// position that passes the time filter would have been an in-range miss,
// costing one read, its sublist's comparators and one cycle. Counting
// them reads only the pointer array, never a sublist.
func (l *List) DequeueRangeFrom(now clock.Time, lo, hi uint32, floor uint64) (Entry, bool) {
	l.stats.PtrCompares += uint64(l.active)
	if l.anyEligible(now) {
		start := l.rankStart(floor)
		ord := l.order
		for pos := 0; pos < start; pos++ {
			if now >= ord[pos].smallestSendTime {
				l.stats.SublistReads++
				l.stats.ElemCompares += uint64(ord[pos].num)
				l.stats.Cycles++
			}
		}
		for pos := l.scanEligible(now, start); pos != -1; pos = l.scanEligible(now, pos+1) {
			sl := &l.sublists[l.order[pos].sublistID]
			l.stats.SublistReads++
			l.stats.ElemCompares += uint64(sl.len())
			for idx := range sl.entries {
				e := &sl.entries[idx]
				if e.SendTime <= now && e.ID >= lo && e.ID <= hi {
					l.stats.RangeDequeues++
					l.stats.Cycles += 4
					out := e.Entry
					l.extractAt(pos, sl, idx)
					return out, true
				}
			}
			l.stats.Cycles++ // in-range miss: scan continues to the next sublist
		}
	}
	l.stats.EmptyDequeues++
	l.stats.Cycles++
	return Entry{}, false
}

// rankStart returns the first active position whose sublist can hold an
// element ranked at or above floor. Cached smallest ranks are
// nondecreasing across the active partition, so every sublist before the
// last one whose smallest rank is below floor holds only ranks below
// floor; that last one qualifies only if its tail reaches floor.
func (l *List) rankStart(floor uint64) int {
	lo, hi := 0, l.active
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l.order[mid].smallestRank >= floor {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo > 0 {
		sl := &l.sublists[l.order[lo-1].sublistID]
		if sl.entries[sl.len()-1].Rank >= floor {
			lo--
		}
	}
	return lo
}

// PeekRange returns the element DequeueRange would extract, without
// removing it.
func (l *List) PeekRange(now clock.Time, lo, hi uint32) (Entry, bool) {
	e, _, ok := l.PeekRangeSeq(now, lo, hi)
	return e, ok
}

// PeekRangeSeq is PeekRange plus the element's FIFO sequence number (see
// PeekSeq).
func (l *List) PeekRangeSeq(now clock.Time, lo, hi uint32) (Entry, uint64, bool) {
	if !l.anyEligible(now) {
		return Entry{}, 0, false
	}
	for pos := l.scanEligible(now, 0); pos != -1; pos = l.scanEligible(now, pos+1) {
		sl := &l.sublists[l.order[pos].sublistID]
		for i := range sl.entries {
			e := &sl.entries[i]
			if e.SendTime <= now && e.ID >= lo && e.ID <= hi {
				return e.Entry, e.seq, true
			}
		}
	}
	return Entry{}, 0, false
}

// MinRank returns the smallest rank across all queued elements, in O(1)
// from the Ordered-Sublist-Array: the first active sublist holds the head
// of the global rank order, and its smallest rank is cached in its
// pointer-array entry. Sharded engines use it as the per-shard summary
// the dequeue tournament compares. ok is false when the list is empty.
func (l *List) MinRank() (uint64, bool) {
	if l.active == 0 {
		return 0, false
	}
	return l.order[0].smallestRank, true
}

// MinSendTime returns the smallest send_time across all queued elements —
// computed from the packed summary words, O(√N/32). Fair-queueing
// algorithms use it as the "minimum start time among backlogged flows"
// term of the WF²Q+ virtual-time update. ok is false when the list is
// empty.
func (l *List) MinSendTime() (clock.Time, bool) {
	if l.active == 0 {
		return 0, false
	}
	if l.wheel != nil {
		return l.wheel.MinSendTime()
	}
	minT := clock.Never
	for b := 0; b<<eligBlockShift < l.active; b++ {
		if l.eligBlk[b] < minT {
			minT = l.eligBlk[b]
		}
	}
	return minT, true
}

// NextWakeAfter returns the exact smallest send_time strictly greater
// than now among queued elements, or clock.Never when none exists — the
// backend.EligIndexed capability. O(1) through the wheel; without it
// (DisableEligIndex) an exact fallback binary-searches each active
// sublist's sorted eligibility array, O(√N log S).
func (l *List) NextWakeAfter(now clock.Time) clock.Time {
	if l.wheel != nil {
		return l.wheel.NextWakeAfter(now)
	}
	best := clock.Never
	for i := 0; i < l.active; i++ {
		sl := &l.sublists[l.order[i].sublistID]
		elig := sl.elig
		lo, hi := 0, len(elig)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if elig[mid] <= now {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(elig) && elig[lo] < best {
			best = elig[lo]
		}
	}
	return best
}

// EligIndexActive implements backend.EligIndexed.
func (l *List) EligIndexActive() bool { return l.wheel != nil }

// DisableEligIndex implements backend.EligIndexed: it drops the wheel
// permanently, reverting every query to the summary-scan paths. The
// pacing experiments use this as the recorded non-wheel baseline.
func (l *List) DisableEligIndex() { l.wheel = nil }

// MaxRankEntry returns the largest-(rank, FIFO) element — the push-out
// victim a rank-aware admission policy evicts when a higher-priority
// arrival meets a full list. O(1): the last active sublist tails the
// global rank order, and its last entry tails the sublist order. Among
// equal maximal ranks the newest arrival is returned, so push-out sheds
// the element fair queueing would have served last. ok is false when the
// list is empty.
func (l *List) MaxRankEntry() (Entry, bool) {
	e, _, ok := l.MaxRankEntrySeq()
	return e, ok
}

// MaxRankEntrySeq is MaxRankEntry plus the element's FIFO sequence, for
// sharded engines that compare victims across partitions.
func (l *List) MaxRankEntrySeq() (Entry, uint64, bool) {
	if l.active == 0 {
		return Entry{}, 0, false
	}
	sl := &l.sublists[l.order[l.active-1].sublistID]
	elem := sl.entries[sl.len()-1]
	return elem.Entry, elem.seq, true
}

// extractAt removes entry idx from the sublist at order position pos and
// restores Invariant 1 (§5.2 dequeue cycles 2–4): a previously-full
// sublist is refilled from a partially-full neighbor, and emptied
// sublists move to the empty partition.
func (l *List) extractAt(pos int, sl *sublist, idx int) {
	wasFull := sl.full(l.sublistSize)
	id := sl.entries[idx].ID
	if l.wheel != nil {
		l.wheel.Remove(sl.entries[idx].wh)
	}
	l.removeAt(sl, idx)
	delete(l.where, id)
	l.size--
	l.stats.SublistWrites++

	if wasFull && sl.len() > 0 {
		// Refill from a non-full neighbor so S stays full; prefer the
		// left neighbor (its tail becomes S's head), else the right
		// (its head becomes S's tail). Reading the donor uses the SRAM
		// port pair of cycle 2.
		if pos > 0 {
			left := &l.sublists[l.order[pos-1].sublistID]
			if !left.full(l.sublistSize) {
				l.stats.SublistReads++
				l.stats.ElemCompares += uint64(left.len())
				moved := left.entries[left.len()-1]
				l.removeAt(left, left.len()-1)
				l.insertElem(sl, moved)
				l.where[moved.ID] = l.order[pos].sublistID
				l.stats.SublistWrites++
				if left.len() == 0 {
					l.retire(pos - 1)
					pos-- // order shifted left past the retired slot
				} else {
					l.refreshMeta(pos - 1)
				}
				l.refreshMeta(pos)
				return
			}
		}
		if pos+1 < l.active {
			right := &l.sublists[l.order[pos+1].sublistID]
			if !right.full(l.sublistSize) {
				l.stats.SublistReads++
				l.stats.ElemCompares += uint64(right.len())
				moved := right.entries[0]
				l.removeAt(right, 0)
				l.insertElem(sl, moved)
				l.where[moved.ID] = l.order[pos].sublistID
				l.stats.SublistWrites++
				if right.len() == 0 {
					l.retire(pos + 1)
				} else {
					l.refreshMeta(pos + 1)
				}
				l.refreshMeta(pos)
				return
			}
		}
	}

	if sl.len() == 0 {
		l.retire(pos)
		return
	}
	l.refreshMeta(pos)
}

// insertElem places elem at its (rank, seq) position in the rank-ordered
// entries and its send_time in the eligibility multiset, locating both
// positions by binary search (the hardware's parallel compare; callers
// charge the comparator stats).
func (l *List) insertElem(sl *sublist, elem element) {
	if sl.buf == nil {
		// Past the arena's occupancy-hint high-water mark: one-time
		// storage allocation on first use.
		sl.alloc(l.sublistSize)
	}
	entries := sl.entries
	lo, hi := 0, len(entries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if elem.less(entries[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	sl.insertEntryAt(lo, elem)

	// Upper bound keeps equal send_times in insertion order.
	elig := sl.elig
	lo, hi = 0, len(elig)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if elem.SendTime < elig[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	sl.insertEligAt(lo, elem.SendTime)
}

// removeAt deletes entry idx from the rank order and its send_time from
// the eligibility multiset (lower-bound binary search: any slot holding
// the value serves, the multiset is by value).
func (l *List) removeAt(sl *sublist, idx int) {
	st := sl.entries[idx].SendTime
	sl.removeEntryAt(idx)

	elig := sl.elig
	lo, hi := 0, len(elig)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if elig[mid] < st {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(elig) || elig[lo] != st {
		panic(fmt.Sprintf("pieo: eligibility sublist lost send_time %v", st))
	}
	sl.removeEligAt(lo)
}

// refreshMeta recomputes the cached pointer-array attributes of the
// sublist at order position pos, and the packed summary word covering it.
// The summary update is incremental: a send_time at or below the block
// minimum replaces it in O(1), and only the "this position held the
// minimum and it rose" case rescans the block — so the all-eligible fast
// path (every send_time clock.Always) never rescans.
func (l *List) refreshMeta(pos int) {
	sl := &l.sublists[l.order[pos].sublistID]
	old := l.order[pos].smallestSendTime
	var t clock.Time
	if sl.len() == 0 {
		l.order[pos].smallestRank = 0
		l.order[pos].smallestSeq = 0
		l.order[pos].smallestSendTime = clock.Never
		l.order[pos].num = 0
		t = clock.Never
	} else {
		t = sl.elig[0]
		l.order[pos].smallestRank = sl.entries[0].Rank
		l.order[pos].smallestSeq = sl.entries[0].seq
		l.order[pos].smallestSendTime = t
		l.order[pos].num = sl.len()
	}
	b := pos >> eligBlockShift
	switch {
	case t <= l.eligBlk[b]:
		// Every other position in the block is >= the old minimum >= t.
		l.eligBlk[b] = t
	case old == l.eligBlk[b]:
		// pos may have been the sole holder of the minimum.
		l.refreshEligBlock(b)
	}
	// Otherwise: old > blk means another position holds the minimum, and
	// t > blk cannot lower it — the word is already exact.
}

// refreshEligBlock recomputes summary word b over its active coverage.
func (l *List) refreshEligBlock(b int) {
	lo := b << eligBlockShift
	hi := lo + eligBlockLen
	if hi > l.active {
		hi = l.active
	}
	m := clock.Never
	for i := lo; i < hi; i++ {
		if t := l.order[i].smallestSendTime; t < m {
			m = t
		}
	}
	l.eligBlk[b] = m
}

// rebuildEligBlocksFrom recomputes every summary word from the one
// covering pos through the end of the active partition, after a
// pointer-array shift (claimEmptyAt, retire) moved positions across
// block boundaries. Cost is proportional to the shifted range the caller
// already paid for.
func (l *List) rebuildEligBlocksFrom(pos int) {
	if l.active == 0 {
		l.eligBlk[0] = clock.Never
		return
	}
	last := (l.active - 1) >> eligBlockShift
	for b := pos >> eligBlockShift; b <= last; b++ {
		l.refreshEligBlock(b)
	}
}

// claimEmptyAt rotates the first empty sublist into order position pos
// (shifting [pos, active) right by one) and grows the active partition.
// It returns pos.
func (l *List) claimEmptyAt(pos int) int {
	if l.active >= len(l.order) {
		panic("pieo: empty-sublist partition exhausted; Invariant 1 slack miscomputed")
	}
	claimed := l.order[l.active]
	copy(l.order[pos+1:l.active+1], l.order[pos:l.active])
	l.order[pos] = claimed
	l.active++
	for i := pos; i < l.active; i++ {
		l.posOf[l.order[i].sublistID] = i
	}
	l.rebuildEligBlocksFrom(pos)
	return pos
}

// retire moves the (now empty) sublist at order position pos to the head
// of the empty partition and shrinks the active partition.
func (l *List) retire(pos int) {
	emptied := l.order[pos]
	copy(l.order[pos:l.active-1], l.order[pos+1:l.active])
	l.active--
	l.order[l.active] = emptied
	l.order[l.active].smallestRank = 0
	l.order[l.active].smallestSeq = 0
	l.order[l.active].smallestSendTime = clock.Never
	l.order[l.active].num = 0
	for i := pos; i <= l.active; i++ {
		l.posOf[l.order[i].sublistID] = i
	}
	l.rebuildEligBlocksFrom(pos)
}

// Snapshot returns the Global-Ordered-List: every queued entry in
// increasing (rank, FIFO) order. The output is allocated exactly once at
// l.size and filled by index. It is O(n) and intended for tests,
// debugging, and experiment reporting.
func (l *List) Snapshot() []Entry {
	out := make([]Entry, l.size)
	k := 0
	for i := 0; i < l.active; i++ {
		sl := &l.sublists[l.order[i].sublistID]
		for j := range sl.entries {
			out[k] = sl.entries[j].Entry
			k++
		}
	}
	return out
}

// SnapshotWithSeq is Snapshot plus each entry's FIFO sequence number, so
// a sharded engine can merge per-shard snapshots into the global
// (rank, FIFO) order. Both outputs are allocated exactly once at l.size.
func (l *List) SnapshotWithSeq() ([]Entry, []uint64) {
	out := make([]Entry, l.size)
	seqs := make([]uint64, l.size)
	k := 0
	for i := 0; i < l.active; i++ {
		sl := &l.sublists[l.order[i].sublistID]
		for j := range sl.entries {
			out[k] = sl.entries[j].Entry
			seqs[k] = sl.entries[j].seq
			k++
		}
	}
	return out, seqs
}

// CheckInvariants validates the complete §5 data-structure contract:
// partitioning of the pointer array, Invariant 1, global rank order,
// metadata coherence, eligibility-sublist coherence, flow-map
// consistency, plus the software-only structures layered on top (packed
// summary words, two-ended window bounds). Tests call it after every
// mutation; it returns the first violation found.
func (l *List) CheckInvariants() error {
	if l.active < 0 || l.active > len(l.order) {
		return fmt.Errorf("active=%d out of range", l.active)
	}
	seen := make(map[int]bool, len(l.order))
	total := 0
	var prev *element
	for i, p := range l.order {
		if seen[p.sublistID] {
			return fmt.Errorf("sublist %d appears twice in order", p.sublistID)
		}
		seen[p.sublistID] = true
		if l.posOf[p.sublistID] != i {
			return fmt.Errorf("posOf[%d]=%d, want %d", p.sublistID, l.posOf[p.sublistID], i)
		}
		sl := &l.sublists[p.sublistID]
		if sl.buf != nil {
			if sl.estart < 0 || sl.estart+len(sl.entries) > len(sl.buf) {
				return fmt.Errorf("sublist %d entries window [%d,%d) outside store of %d",
					p.sublistID, sl.estart, sl.estart+len(sl.entries), len(sl.buf))
			}
			if sl.tstart < 0 || sl.tstart+len(sl.elig) > len(sl.tbuf) {
				return fmt.Errorf("sublist %d elig window [%d,%d) outside store of %d",
					p.sublistID, sl.tstart, sl.tstart+len(sl.elig), len(sl.tbuf))
			}
		} else if sl.len() != 0 {
			return fmt.Errorf("sublist %d holds %d elements without storage", p.sublistID, sl.len())
		}
		if i < l.active {
			if sl.len() == 0 {
				return fmt.Errorf("active position %d is empty", i)
			}
		} else {
			if sl.len() != 0 {
				return fmt.Errorf("empty-partition position %d has %d elements", i, sl.len())
			}
			continue
		}
		// Invariant 1: no two consecutive partially-full active sublists.
		if i+1 < l.active {
			next := &l.sublists[l.order[i+1].sublistID]
			if !sl.full(l.sublistSize) && !next.full(l.sublistSize) {
				return fmt.Errorf("Invariant 1 violated at positions %d,%d (len %d,%d, S=%d)",
					i, i+1, sl.len(), next.len(), l.sublistSize)
			}
		}
		// Metadata coherence.
		if p.num != sl.len() {
			return fmt.Errorf("position %d num=%d, want %d", i, p.num, sl.len())
		}
		if p.smallestRank != sl.entries[0].Rank {
			return fmt.Errorf("position %d smallestRank=%d, want %d", i, p.smallestRank, sl.entries[0].Rank)
		}
		if p.smallestSeq != sl.entries[0].seq {
			return fmt.Errorf("position %d smallestSeq=%d, want %d", i, p.smallestSeq, sl.entries[0].seq)
		}
		if len(sl.elig) != sl.len() {
			return fmt.Errorf("position %d eligibility size %d, want %d", i, len(sl.elig), sl.len())
		}
		if p.smallestSendTime != sl.elig[0] {
			return fmt.Errorf("position %d smallestSendTime=%v, want %v", i, p.smallestSendTime, sl.elig[0])
		}
		// Eligibility multiset matches entry send_times.
		times := make(map[clock.Time]int)
		for _, e := range sl.entries {
			times[e.SendTime]++
		}
		for j, t := range sl.elig {
			if j > 0 && sl.elig[j-1] > t {
				return fmt.Errorf("position %d eligibility sublist unsorted at %d", i, j)
			}
			times[t]--
			if times[t] < 0 {
				return fmt.Errorf("position %d eligibility sublist has extra %v", i, t)
			}
		}
		// Global (rank, seq) order across the sublist concatenation, and
		// rank order within the sublist.
		for j := range sl.entries {
			e := &sl.entries[j]
			if prev != nil && e.less(*prev) {
				return fmt.Errorf("global order violated: %v before %v", prev.Entry, e.Entry)
			}
			prev = e
			if sid, ok := l.where[e.ID]; !ok || sid != p.sublistID {
				return fmt.Errorf("flow map for id %d = (%d,%v), want sublist %d", e.ID, sid, ok, p.sublistID)
			}
			total++
		}
	}
	if total != l.size {
		return fmt.Errorf("size=%d but %d elements stored", l.size, total)
	}
	if len(l.where) != l.size {
		return fmt.Errorf("flow map has %d entries, size=%d", len(l.where), l.size)
	}
	// Packed summary words must be the exact block minima.
	for b := 0; b<<eligBlockShift < l.active; b++ {
		lo := b << eligBlockShift
		hi := lo + eligBlockLen
		if hi > l.active {
			hi = l.active
		}
		m := clock.Never
		for i := lo; i < hi; i++ {
			if t := l.order[i].smallestSendTime; t < m {
				m = t
			}
		}
		if l.eligBlk[b] != m {
			return fmt.Errorf("summary word %d = %v, want %v", b, l.eligBlk[b], m)
		}
	}
	// Wheel residency must exactly match list contents: same element
	// count, every queued element's handle live with its send_time, and
	// the wheel's own structural invariants.
	if l.wheel != nil {
		if l.wheel.Len() != l.size {
			return fmt.Errorf("wheel holds %d elements, list %d", l.wheel.Len(), l.size)
		}
		for i := 0; i < l.active; i++ {
			sl := &l.sublists[l.order[i].sublistID]
			for j := range sl.entries {
				e := &sl.entries[j]
				if got := l.wheel.TimeOf(e.wh); got != e.SendTime {
					return fmt.Errorf("wheel handle %d for id %d holds t=%v, element send_time %v", e.wh, e.ID, got, e.SendTime)
				}
			}
		}
		if err := l.wheel.CheckInvariants(); err != nil {
			return err
		}
	}
	return nil
}

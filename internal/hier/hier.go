// Package hier implements hierarchical packet scheduling with PIEO
// (§4.3). Flows are grouped into a tree: leaf children are flows with
// FIFO packet queues; every non-leaf node schedules its children with its
// own policy. All children at the same tree depth share one physical PIEO
// list, logically partitioned per parent: each parent owns a contiguous
// child-index range [lo, hi], and extracting a parent's logical PIEO is a
// DequeueRange whose predicate is the paper's
// (eligible) && (p.start <= f.index <= p.end).
//
// Dequeue starts at the root whenever the link goes idle and propagates
// down: the winner at each level names the logical PIEO to extract from
// at the next level (the hardware pushes the winner's id into an
// inter-level FIFO; this synchronous model simply descends). After the
// leaf transmits, post-dequeue runs bottom-up and each ancestor is
// re-enqueued while its subtree stays backlogged.
package hier

import (
	"fmt"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/core"
	"pieo/internal/flowq"
)

// Child is a schedulable element inside some parent's logical PIEO:
// either a leaf flow (Queue != nil) or an interior node (Node != nil).
// The control-plane configuration and algorithm scratch fields mirror
// sched.Flow.
type Child struct {
	ID   uint32 // index within the depth's physical PIEO (assigned by Build)
	Flow flowq.FlowID
	Node *Node // non-nil for interior children

	parent *Node // the node whose logical PIEO schedules this child

	Queue *flowq.Queue // non-nil for leaf children

	// Scheduling attributes assigned by the parent policy's PreEnqueue.
	Rank     uint64
	SendTime clock.Time

	// Control-plane configuration.
	Weight   uint64
	Quantum  uint64 // expected packet size for interior shaping, bytes
	Priority uint64
	RateGbps float64
	Burst    float64

	// Algorithm scratch.
	Tokens        float64
	LastRefill    clock.Time
	VirtualFinish uint64
	virtualStart  uint64 // start assigned by the last fair-queueing PreEnqueue

	// requeued marks a child being put back after service or a deferred
	// descent, as opposed to activating after idleness. Fair-queueing
	// policies apply Fig 2(a)'s max(finish, V) only to activations.
	requeued bool
}

// IsLeaf reports whether the child is a flow.
func (c *Child) IsLeaf() bool { return c.Queue != nil }

// NodeStats counts the logical-PIEO operations one node issued against
// its physical structure — the per-node view of backend.Stats, identical
// across the per-level and partitioned modes for the same traffic.
type NodeStats struct {
	Enqueues      uint64 // successful inserts into this node's logical PIEO
	Dequeues      uint64 // successful ranged extractions
	EmptyDequeues uint64 // ranged extractions that found nothing eligible
}

// Node is a non-leaf vertex of the scheduling tree. Its Policy schedules
// its children; V is its private fair-queueing virtual clock.
type Node struct {
	Name   string
	Policy *Policy
	V      clock.Virtual

	h          *Hierarchy
	depth      int // root = 0
	parent     *Node
	self       *Child // this node's entity in the parent's logical PIEO (nil at root)
	children   []*Child
	lo, hi     uint32     // child-index range (per-level mode) or band (partitioned)
	part       *Partition // this node's logical PIEO band (partitioned mode only)
	active     int        // children currently enqueued in this node's logical PIEO
	cachedSumW uint64     // lazily cached total child weight
	stats      NodeStats
	faults     backend.FaultStats // faults charged to THIS node
}

// Stats returns the node's logical-PIEO operation counters.
func (n *Node) Stats() NodeStats { return n.stats }

// FaultStats returns the faults charged to this node — the
// per-node breakdown of Hierarchy.FaultStats, so a chaos audit can
// assert where drops landed, not just that they happened.
func (n *Node) FaultStats() backend.FaultStats { return n.faults }

// Partition returns the node's ID band in partitioned mode, nil in
// per-level mode.
func (n *Node) Partition() *Partition { return n.part }

// Self returns this node's own child entity — the handle the control
// plane uses to configure how the node's parent schedules it (rate limit,
// weight, priority). It is nil for the root.
func (n *Node) Self() *Child { return n.self }

// AddNode creates an interior child scheduled by this node, with the
// given policy for its own children. Must be called before Build.
func (n *Node) AddNode(name string, policy *Policy) *Node {
	n.h.mustNotBeBuilt()
	if policy == nil {
		panic("hier: node policy must not be nil")
	}
	child := &Child{Weight: 1, Quantum: 1500, parent: n}
	node := &Node{Name: name, Policy: policy, h: n.h, depth: n.depth + 1, parent: n, self: child}
	child.Node = node
	n.children = append(n.children, child)
	return node
}

// AddFlow creates a leaf flow child scheduled by this node. Must be
// called before Build.
func (n *Node) AddFlow(id flowq.FlowID) *Child {
	n.h.mustNotBeBuilt()
	if _, dup := n.h.leaves[id]; dup {
		panic(fmt.Sprintf("hier: flow %d added twice", id))
	}
	child := &Child{Flow: id, Queue: &flowq.Queue{}, Weight: 1, Quantum: 1500, parent: n}
	n.children = append(n.children, child)
	n.h.leaves[id] = child
	return child
}

// Hierarchy is an n-level PIEO scheduler tree. It implements
// netsim.Scheduler and netsim.WakeHinter.
type Hierarchy struct {
	LinkRateGbps float64

	root    *Node
	levels  []backend.Backend // levels[d] holds the children of depth-d nodes (per-level mode)
	wall    []bool            // depth-d predicates live in the wall-clock domain
	factory func(capacity int) backend.Backend
	leaves  map[flowq.FlowID]*Child
	nodesAt [][]*Node // interior nodes per depth, BFS order
	built   bool

	// Partitioned mode (§4.2): every node's logical PIEO is an ID band
	// of ONE shared physical backend instead of a slice of a per-level
	// list. pt is nil in per-level mode.
	partitioned bool
	pt          *Partitioner

	faults  backend.FaultStats // fault counters, summed over every node
	lastErr error              // most recent fault
}

// New creates an empty hierarchy whose root schedules its children with
// the given policy, over the default paper-exact list backend per level.
func New(linkRateGbps float64, rootPolicy *Policy) *Hierarchy {
	return NewOn(linkRateGbps, rootPolicy, func(n int) backend.Backend {
		return backend.NewCoreList(n)
	})
}

// NewOn creates an empty hierarchy whose per-level physical PIEOs are
// built by factory at Build time (one call per level, sized to that
// level's child count). Any backend.Backend works; the descent relies
// only on the DequeueRange contract.
func NewOn(linkRateGbps float64, rootPolicy *Policy, factory func(capacity int) backend.Backend) *Hierarchy {
	if linkRateGbps <= 0 {
		panic(fmt.Sprintf("hier: link rate must be positive, got %v", linkRateGbps))
	}
	if rootPolicy == nil {
		panic("hier: root policy must not be nil")
	}
	if factory == nil {
		panic("hier: backend factory must not be nil")
	}
	h := &Hierarchy{
		LinkRateGbps: linkRateGbps,
		factory:      factory,
		leaves:       make(map[flowq.FlowID]*Child),
	}
	h.root = &Node{Name: "root", Policy: rootPolicy, h: h}
	return h
}

// NewPartitioned creates a hierarchy in partitioned mode over the
// default paper-exact list: every node's logical PIEO is a contiguous ID
// band of one shared physical PIEO (§4.2) instead of a per-level list.
func NewPartitioned(linkRateGbps float64, rootPolicy *Policy) *Hierarchy {
	return NewPartitionedOn(linkRateGbps, rootPolicy, func(n int) backend.Backend {
		return backend.NewCoreList(n)
	})
}

// NewPartitionedOn creates a partitioned-mode hierarchy whose single
// shared physical PIEO is built by factory at Build time, sized to the
// total child count across every level. On the sharded engine, node
// dequeues compile to the per-shard DequeueRangeBelowSeq ranged
// tournament; any backend.Backend satisfying the DequeueRange contract
// works.
func NewPartitionedOn(linkRateGbps float64, rootPolicy *Policy, factory func(capacity int) backend.Backend) *Hierarchy {
	h := NewOn(linkRateGbps, rootPolicy, factory)
	h.partitioned = true
	return h
}

// FaultStats returns the fault counters: the sum of every node's
// Node.FaultStats.
func (h *Hierarchy) FaultStats() backend.FaultStats { return h.faults }

// LastFault returns the most recent fault, nil if none.
func (h *Hierarchy) LastFault() error { return h.lastErr }

// fault charges d to node n and to the hierarchy total, and keeps err as
// the most recent fault.
func (h *Hierarchy) fault(n *Node, d backend.FaultStats, err error) {
	h.faults.Add(d)
	n.faults.Add(d)
	h.lastErr = err
}

// Root returns the root node.
func (h *Hierarchy) Root() *Node { return h.root }

func (h *Hierarchy) mustNotBeBuilt() {
	if h.built {
		panic("hier: topology is frozen after Build")
	}
}

// Build freezes the topology: it assigns contiguous child-index ranges
// per parent at every depth (the paper's logical partitioning; a node's
// i-th child gets ID n.lo+i, which is how descend names a winner) and
// allocates the physical structure — one PIEO per level, or (partitioned
// mode) one shared PIEO whose ID space is carved into per-node bands. It
// must be called exactly once before traffic.
func (h *Hierarchy) Build() {
	h.mustNotBeBuilt()
	h.built = true
	if h.partitioned {
		h.buildPartitioned()
		return
	}

	// Breadth-first: assign ids depth by depth so siblings are
	// contiguous and each parent gets [lo, hi].
	level := []*Node{h.root}
	for len(level) > 0 {
		var next []*Node
		nextID := uint32(0)
		wall := true
		for _, n := range level {
			if len(n.children) == 0 {
				panic(fmt.Sprintf("hier: node %q has no children", n.Name))
			}
			n.lo = nextID
			for _, c := range n.children {
				c.ID = nextID
				nextID++
				if c.Node != nil {
					next = append(next, c.Node)
				}
			}
			n.hi = nextID - 1
			if n.Policy.DequeueTime != nil {
				wall = false
			}
		}
		h.levels = append(h.levels, h.factory(int(nextID)))
		h.wall = append(h.wall, wall)
		h.nodesAt = append(h.nodesAt, level)
		level = next
	}
}

// buildPartitioned freezes a partitioned-mode topology: one shared
// physical PIEO sized to the total child count, one Partition (ID band)
// per node. IDs are globally unique across all depths, so a ranged
// dequeue on a node's band can never observe another node's children.
func (h *Hierarchy) buildPartitioned() {
	total := 0
	stack := []*Node{h.root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if len(n.children) == 0 {
			panic(fmt.Sprintf("hier: node %q has no children", n.Name))
		}
		total += len(n.children)
		for _, c := range n.children {
			if c.Node != nil {
				stack = append(stack, c.Node)
			}
		}
	}
	h.pt = NewPartitioner(h.factory(total))

	level := []*Node{h.root}
	for len(level) > 0 {
		var next []*Node
		wall := true
		for _, n := range level {
			if n.Policy.DequeueTime != nil {
				wall = false
			}
		}
		for _, n := range level {
			part, err := h.pt.Alloc(len(n.children), wall)
			if err != nil {
				panic(fmt.Sprintf("hier: allocate band for node %q: %v", n.Name, err))
			}
			n.part = part
			n.lo, n.hi = part.Lo(), part.Hi()
			for _, c := range n.children {
				id, ok := part.NextID()
				if !ok {
					panic(fmt.Sprintf("hier: band of node %q exhausted", n.Name))
				}
				c.ID = id
				if c.Node != nil {
					next = append(next, c.Node)
				}
			}
		}
		h.wall = append(h.wall, wall)
		h.nodesAt = append(h.nodesAt, level)
		level = next
	}
}

// insertEntry inserts child c into node n's logical PIEO and charges the
// node's operation counters. Callers own n.active and fault accounting.
func (h *Hierarchy) insertEntry(n *Node, c *Child) error {
	e := core.Entry{ID: c.ID, Rank: c.Rank, SendTime: c.SendTime}
	var err error
	if h.partitioned {
		err = h.pt.Enqueue(n.part, e)
	} else {
		err = h.levels[n.depth].Enqueue(e)
	}
	if err == nil {
		n.stats.Enqueues++
	}
	return err
}

// insertOrShed inserts child c into n's logical PIEO and counts it in
// n.active. A child that cannot enter would never be scheduled again — a
// backlogged leaf is not re-activated by arrivals, nor an interior node
// whose children are all queued — so on failure c's whole backlog is
// shed as declared drops charged to n, and insertOrShed reports false.
func (h *Hierarchy) insertOrShed(n *Node, c *Child) bool {
	err := h.insertEntry(n, c)
	if err == nil {
		n.active++
		return true
	}
	h.fault(n, backend.FaultStats{EnqueueFailures: 1, DroppedPackets: h.shed(c)},
		fmt.Errorf("hier: enqueue child %d at depth %d: %w", c.ID, n.depth, err))
	return false
}

// shed empties c's subtree and returns the packets it dropped: a leaf's
// queue, or for an interior child every descendant's logical-PIEO entry
// and leaf queue.
func (h *Hierarchy) shed(c *Child) uint64 {
	if c.IsLeaf() {
		dropped := uint64(c.Queue.Len())
		for !c.Queue.Empty() {
			c.Queue.Pop()
		}
		return dropped
	}
	n := c.Node
	var dropped uint64
	for _, gc := range n.children {
		if h.partitioned {
			h.pt.DequeueID(n.part, gc.ID)
		} else {
			h.levels[n.depth].DequeueFlow(gc.ID)
		}
		dropped += h.shed(gc)
	}
	n.active = 0
	return dropped
}

// extractEntry extracts the smallest-ranked eligible child of n's
// logical PIEO at predicate time t.
func (h *Hierarchy) extractEntry(n *Node, t clock.Time) (core.Entry, bool) {
	var e core.Entry
	var ok bool
	if h.partitioned {
		e, ok = h.pt.Dequeue(n.part, t)
	} else {
		e, ok = h.levels[n.depth].DequeueRange(t, n.lo, n.hi)
	}
	if ok {
		n.stats.Dequeues++
	} else {
		n.stats.EmptyDequeues++
	}
	return e, ok
}

// nodeContains reports whether child id is currently inside n's logical
// PIEO.
func (h *Hierarchy) nodeContains(n *Node, id uint32) bool {
	if h.partitioned {
		return n.part.Contains(id)
	}
	return h.levels[n.depth].Contains(id)
}

// WireTime returns the wire time of size bytes on the hierarchy's link.
func (h *Hierarchy) WireTime(size uint32) clock.Time {
	ns := float64(size) * 8 / h.LinkRateGbps
	if ns < 1 {
		ns = 1
	}
	return clock.Time(ns)
}

// Leaf returns the child entity for flow id, for control-plane
// configuration.
func (h *Hierarchy) Leaf(id flowq.FlowID) *Child {
	c := h.leaves[id]
	if c == nil {
		panic(fmt.Sprintf("hier: unknown flow %d", id))
	}
	return c
}

// Levels returns the number of scheduling levels.
func (h *Hierarchy) Levels() int { return len(h.wall) }

// Level exposes the physical PIEO at depth d, for tests and resource
// accounting. In partitioned mode every depth shares the one physical
// structure, so the shared backend is returned for any d.
func (h *Hierarchy) Level(d int) backend.Backend {
	if h.partitioned {
		return h.pt.Backend()
	}
	return h.levels[d]
}

// Partitioned reports whether the hierarchy multiplexes its logical
// PIEOs onto one shared physical backend.
func (h *Hierarchy) Partitioned() bool { return h.partitioned }

// Partitioner exposes the band allocator in partitioned mode (nil in
// per-level mode), for tests and invariant checks.
func (h *Hierarchy) Partitioner() *Partitioner { return h.pt }

// Nodes returns every interior node in BFS order (root first). Only
// valid after Build.
func (h *Hierarchy) Nodes() []*Node {
	var out []*Node
	for _, level := range h.nodesAt {
		out = append(out, level...)
	}
	return out
}

// BackendStats returns the operation counters of the physical
// structure(s): the sum over per-level backends, or the shared backend's
// counters in partitioned mode.
func (h *Hierarchy) BackendStats() backend.Stats {
	if h.partitioned {
		return h.pt.Backend().Stats()
	}
	var total backend.Stats
	for _, list := range h.levels {
		total.Add(list.Stats())
	}
	return total
}

// OnArrival implements netsim.Scheduler. A packet for a flow the
// topology does not hold is dropped and charged to the root.
func (h *Hierarchy) OnArrival(now clock.Time, p flowq.Packet) {
	if !h.built {
		panic("hier: OnArrival before Build")
	}
	c := h.leaves[p.Flow]
	if c == nil {
		h.fault(h.root, backend.FaultStats{UnknownFlows: 1, DroppedPackets: 1},
			fmt.Errorf("%w: packet for flow %d", core.ErrUnknownFlow, p.Flow))
		return
	}
	wasEmpty := c.Queue.Empty()
	c.Queue.Push(p)
	if wasEmpty {
		h.enqueueChild(now, c.parent, c)
	}
}

// enqueueChild inserts c into n's logical PIEO (unless it is already
// there or has nothing to send) and propagates "logical queue went
// non-empty" up the tree (§4.3 enqueue path).
func (h *Hierarchy) enqueueChild(now clock.Time, n *Node, c *Child) {
	if h.nodeContains(n, c.ID) {
		return
	}
	if c.IsLeaf() {
		if c.Queue.Empty() {
			return
		}
	} else if c.Node.active == 0 {
		return
	}
	n.Policy.preEnqueue(n, now, c)
	if h.insertOrShed(n, c) && n.parent != nil {
		h.enqueueChild(now, n.parent, n.self)
	}
}

// pathStep records one hop of a successful root-to-leaf descent.
type pathStep struct {
	n *Node
	c *Child
}

// NextPacket implements netsim.Scheduler: descend from the root PIEO,
// extracting each winner's logical PIEO at the next level, transmit the
// leaf's head packet, then run post-dequeue bottom-up and re-enqueue
// still-backlogged ancestors.
func (h *Hierarchy) NextPacket(now clock.Time) (flowq.Packet, bool) {
	if !h.built {
		panic("hier: NextPacket before Build")
	}
	// descend appends steps deepest-first: path[0] is the leaf hop,
	// path[len-1] the root hop.
	var path []pathStep
	if !h.descend(h.root, now, &path) {
		return flowq.Packet{}, false
	}
	leaf := path[0].c
	p, ok := leaf.Queue.Pop()
	if !ok {
		panic(fmt.Sprintf("hier: leaf flow %d scheduled with empty queue", leaf.Flow))
	}
	// Post-dequeue bottom-up for the whole path FIRST, so every
	// ancestor's state (tokens, virtual clocks) is charged before any
	// re-enqueue computes a fresh rank/send time — re-enqueueing the
	// leaf would otherwise propagate upward past uncharged ancestors.
	for _, step := range path {
		step.n.Policy.postDequeue(step.n, now, step.c, p.Size)
	}
	// Then re-enqueue bottom-up while each (logical) queue stays
	// non-empty; upward propagation inside enqueueChild is idempotent.
	// Mark the whole path as requeues FIRST: the leaf's re-enqueue
	// propagates upward and must not mistake a continuously backlogged
	// ancestor for a fresh activation.
	for _, step := range path {
		step.c.requeued = true
	}
	for _, step := range path {
		h.enqueueChild(now, step.n, step.c)
	}
	for _, step := range path {
		step.c.requeued = false
	}
	return p, true
}

// descend extracts the smallest-ranked eligible child of n; for interior
// winners it recurses into their logical PIEOs. A winner whose subtree
// yields nothing eligible (a shaped child whose descendants are all
// deferred) is set aside and retried last, so one blocked branch cannot
// mask its siblings.
func (h *Hierarchy) descend(n *Node, now clock.Time, path *[]pathStep) bool {
	t := now
	if n.Policy.DequeueTime != nil {
		t = n.Policy.DequeueTime(n, now)
	}
	var skipped []*Child
	defer func() {
		// Put deferred children back; their policies' PreEnqueue hooks
		// are idempotent by contract. These are continuations, not
		// activations. A child whose subtree was shed during its own
		// descent has nothing left to schedule.
		for _, c := range skipped {
			if c.Node.active == 0 {
				continue
			}
			c.requeued = true
			n.Policy.preEnqueue(n, now, c)
			c.requeued = false
			h.insertOrShed(n, c)
		}
	}()
	retriedIdle := false
	for {
		e, ok := h.extractEntry(n, t)
		if !ok {
			if !retriedIdle && n.active > 0 && n.Policy.OnIdle != nil && n.Policy.OnIdle(n, now) {
				retriedIdle = true
				if n.Policy.DequeueTime != nil {
					t = n.Policy.DequeueTime(n, now)
				}
				continue
			}
			return false
		}
		var c *Child
		if off := e.ID - n.lo; off < uint32(len(n.children)) {
			c = n.children[off]
		}
		if c == nil {
			// A core.ErrUnknownFlow condition: discard the phantom element,
			// which was never one of n's active children, and keep
			// descending.
			h.fault(n, backend.FaultStats{UnknownFlows: 1},
				fmt.Errorf("%w: depth %d returned id %d", core.ErrUnknownFlow, n.depth, e.ID))
			continue
		}
		n.active--
		if c.IsLeaf() {
			*path = append(*path, pathStep{n, c})
			return true
		}
		if h.descend(c.Node, now, path) {
			*path = append(*path, pathStep{n, c})
			return true
		}
		skipped = append(skipped, c)
	}
}

// NextWake implements netsim.WakeHinter: the earliest *future* send_time
// across every level whose predicates live in the wall-clock domain.
// Levels whose minimum is already eligible are skipped — if they could
// transmit, NextPacket would have found them; the blocker is a shaped
// ancestor whose send_time lies ahead.
func (h *Hierarchy) NextWake(now clock.Time) (clock.Time, bool) {
	best := clock.Never
	found := false
	for d := range h.wall {
		if !h.wall[d] {
			continue
		}
		if t, ok := h.depthMinSendTime(d); ok && t > now && t < best {
			best = t
			found = true
		}
	}
	return best, found
}

// depthMinSendTime returns the smallest send_time queued anywhere at
// depth d: the level list's O(1) minimum in per-level mode, the fold of
// the per-partition wheel minima in partitioned mode. Both compute the
// same value for the same traffic, so wake instants are mode-invariant.
func (h *Hierarchy) depthMinSendTime(d int) (clock.Time, bool) {
	if !h.partitioned {
		return h.levels[d].MinSendTime()
	}
	best := clock.Never
	found := false
	for _, n := range h.nodesAt[d] {
		if t, ok := n.part.MinSendTime(); ok && t < best {
			best = t
			found = true
		}
	}
	return best, found
}

// Backlog returns the total packets queued across all leaf flows.
func (h *Hierarchy) Backlog() int {
	total := 0
	for _, c := range h.leaves {
		total += c.Queue.Len()
	}
	return total
}

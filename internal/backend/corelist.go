package backend

import (
	"math"

	"pieo/internal/core"
)

// CoreList adapts the paper-exact sublist implementation (core.List) to
// the Backend interface. Every operation is promoted from the embedded
// list; only Stats is reshaped, because core counts hardware work while
// the interface speaks in operations. It is the reference backend: the
// only one that is simultaneously exact, eligibility-complete, and
// hardware-costed.
type CoreList struct {
	*core.List
}

// NewCoreList creates a PIEO sublist backend with capacity n using the
// paper's √n geometry.
func NewCoreList(n int) *CoreList { return &CoreList{List: core.New(n)} }

// WrapCore adapts an existing core.List (e.g. one built with an explicit
// sublist geometry) to the Backend interface.
func WrapCore(l *core.List) *CoreList { return &CoreList{List: l} }

// Stats implements Backend by projecting the hardware counters onto the
// operation summary.
func (c *CoreList) Stats() Stats {
	s := c.List.Stats()
	return Stats{
		Enqueues:      s.Enqueues,
		Dequeues:      s.Dequeues,
		EmptyDequeues: s.EmptyDequeues,
		FlowDequeues:  s.FlowDequeues,
		RangeDequeues: s.RangeDequeues,
	}
}

// HardwareStats implements HardwareModeled with the full §5 datapath
// counters.
func (c *CoreList) HardwareStats() core.Stats { return c.List.Stats() }

// PeekMax implements Evictor in O(1) off the Ordered-Sublist-Array tail.
func (c *CoreList) PeekMax() (core.Entry, bool) { return c.List.MaxRankEntry() }

// EvictMax implements Evictor: the victim identified by PeekMax is
// extracted through the §5.2 dequeue(f) datapath.
func (c *CoreList) EvictMax() (core.Entry, bool) {
	e, ok := c.List.MaxRankEntry()
	if !ok {
		return core.Entry{}, false
	}
	return c.List.DequeueFlow(e.ID)
}

var _ Evictor = (*CoreList)(nil)

// The embedded list's floor-started ranged dequeue promotes to RangeSeeker.
var _ RangeSeeker = (*CoreList)(nil)

// The embedded list's native EnqueueBatch/DequeueUpTo promote to the
// optional batch capability.
var _ Batcher = (*CoreList)(nil)

// NewCoreShard is the ShardFactory for the paper-exact sublist list:
// capacity is the full shared bound, while the sublist geometry and the
// flow-map/arena pre-sizing follow the expected per-shard occupancy
// (⌈√(n/K)⌉ sublists — sharding shortens the scans as well as splitting
// the lock; see shard.New).
func NewCoreShard(cfg ShardConfig) ShardBackend {
	occ := cfg.ExpectedOccupancy
	if occ <= 0 || occ > cfg.Capacity {
		occ = cfg.Capacity
	}
	s := int(math.Ceil(math.Sqrt(float64(occ))))
	if s < 1 {
		s = 1
	}
	return core.NewWithOccupancyHint(cfg.Capacity, s, occ)
}

func init() {
	Register("core", func(n int) Backend { return NewCoreList(n) })
	RegisterShard("core", NewCoreShard)
}

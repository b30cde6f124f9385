package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// layer names one kind of span: a call into one layer of the system, made
// from the benchmark's own wrappers (see wrap.go).
type layer uint8

const (
	lNetsimRun layer = iota
	lNetsimInject
	lBenchIngest
	lWireDecode
	lWireClassify
	lSchedArrival
	lSchedNext
	lSchedWake
	lHierArrival
	lHierNext
	lHierWake
	lCoreEnqueue
	lCoreDequeue
	lCoreDequeueRange
	lCoreDequeueFlow
	lCoreMinSendTime
	lCoreOther
	lShardEnqueue
	lShardDequeue
	nLayers
)

var layerNames = [nLayers]string{
	lNetsimRun:        "netsim.run",
	lNetsimInject:     "netsim.inject",
	lBenchIngest:      "bench.ingest",
	lWireDecode:       "wire.decode",
	lWireClassify:     "wire.classify",
	lSchedArrival:     "sched.on_arrival",
	lSchedNext:        "sched.next_packet",
	lSchedWake:        "sched.next_wake",
	lHierArrival:      "hier.on_arrival",
	lHierNext:         "hier.next_packet",
	lHierWake:         "hier.next_wake",
	lCoreEnqueue:      "core.enqueue",
	lCoreDequeue:      "core.dequeue",
	lCoreDequeueRange: "core.dequeue_range",
	lCoreDequeueFlow:  "core.dequeue_flow",
	lCoreMinSendTime:  "core.min_send_time",
	lCoreOther:        "core.other",
	lShardEnqueue:     "shard.enqueue",
	lShardDequeue:     "shard.dequeue",
}

func (l layer) String() string { return layerNames[l] }

// span is one timed call into a layer. Times are nanoseconds since the
// tracer's epoch; Parent is 0 for a root span.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// rawSpan is the in-memory form of span; the name is resolved on export.
type rawSpan struct {
	id, parent, op uint64
	l              layer
	start, end     int64
}

// maxLoggedSpans bounds the span log each recorder keeps in memory. The
// per-layer aggregates cover every span; the log keeps the first ones so
// a run's call tree can be inspected after it ends.
const maxLoggedSpans = 1 << 13

// layerAgg accumulates the spans of one layer.
type layerAgg struct {
	calls uint64
	total int64 // summed span durations
	self  int64 // summed durations minus child spans
	durs  *samples
}

func (a *layerAgg) add(dur, self int64) {
	a.calls++
	a.total += dur
	a.self += self
	if a.durs != nil {
		a.durs.add(dur)
	}
}

func (a *layerAgg) merge(b *layerAgg) {
	a.calls += b.calls
	a.total += b.total
	a.self += b.self
	if b.durs != nil {
		if a.durs == nil {
			a.durs = newSamples(len(b.durs.buf))
		}
		a.durs.buf = append(a.durs.buf, b.durs.buf...)
	}
}

// selfPerCall is the mean self time of one call, 0 when never called.
func (a *layerAgg) selfPerCall() float64 {
	if a.calls == 0 {
		return 0
	}
	return float64(a.self) / float64(a.calls)
}

// sampledLayers keep individual durations for percentiles.
var sampledLayers = map[layer]bool{lCoreEnqueue: true, lCoreDequeue: true}

func newAggs() [nLayers]layerAgg {
	var aggs [nLayers]layerAgg
	for l := range aggs {
		if sampledLayers[layer(l)] {
			aggs[l].durs = newSamples(1 << 18)
		}
	}
	return aggs
}

// frame is an open span on a tracer's stack.
type frame struct {
	id, op uint64
	l      layer
	start  int64
	child  int64
}

// tracer records the spans of one goroutine. Spans nest: a span begun
// while another is open is its child, and the parent's self time excludes
// it. Child spans recorded on other goroutines on this tracer's behalf
// (a combining engine running one worker's operation on another worker's
// core) report their duration through addRemoteChild.
type tracer struct {
	epoch  time.Time
	idBase uint64
	nextID uint64
	stack  []frame
	aggs   [nLayers]layerAgg
	log    []rawSpan

	// cur and curOp publish the open root span to other goroutines;
	// remote sums the child time they report for it.
	cur, curOp atomic.Uint64
	remote     atomic.Int64
}

func newTracer(epoch time.Time, idBase uint64) *tracer {
	return &tracer{epoch: epoch, idBase: idBase, aggs: newAggs(), stack: make([]frame, 0, 16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span of layer l. op identifies the packet or operation the
// span serves; 0 inherits the parent's.
func (t *tracer) begin(l layer, op uint64) {
	t.nextID++
	id := t.idBase | t.nextID
	if op == 0 && len(t.stack) > 0 {
		op = t.stack[len(t.stack)-1].op
	}
	if len(t.stack) == 0 {
		t.curOp.Store(op)
		t.cur.Store(id)
	}
	t.stack = append(t.stack, frame{id: id, op: op, l: l, start: t.now()})
}

// reset drops everything recorded so far; no span may be open.
func (t *tracer) reset() {
	t.aggs = newAggs()
	t.log = t.log[:0]
}

// end closes the innermost open span.
func (t *tracer) end() {
	end := t.now()
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	var parent uint64
	if len(t.stack) > 0 {
		p := &t.stack[len(t.stack)-1]
		p.child += end - f.start
		parent = p.id
	} else {
		t.cur.Store(0)
		f.child += t.remote.Swap(0)
	}
	dur := end - f.start
	t.aggs[f.l].add(dur, dur-f.child)
	if len(t.log) < maxLoggedSpans {
		t.log = append(t.log, rawSpan{id: f.id, parent: parent, op: f.op, l: f.l, start: f.start, end: end})
	}
}

// addRemoteChild charges a child span that ran on another goroutine to
// the open root span, returning that span's id and op (0, 0 when none is
// open).
func (t *tracer) addRemoteChild(dur int64) (parent, op uint64) {
	parent = t.cur.Load()
	if parent == 0 {
		return 0, 0
	}
	t.remote.Add(dur)
	return parent, t.curOp.Load()
}

// remoteRecorder collects the spans recorded on behalf of tracers owned by
// other goroutines: one per shard backend, whose calls the engine already
// serializes, so its mutex is uncontended.
type remoteRecorder struct {
	mu   sync.Mutex
	aggs [nLayers]layerAgg
	log  []rawSpan
}

func newRemoteRecorder() *remoteRecorder { return &remoteRecorder{aggs: newAggs()} }

func (r *remoteRecorder) record(s rawSpan) {
	r.mu.Lock()
	dur := s.end - s.start
	r.aggs[s.l].add(dur, dur)
	if len(r.log) < maxLoggedSpans {
		r.log = append(r.log, s)
	}
	r.mu.Unlock()
}

// traceTotals is the merged view of every recorder of one traced run.
type traceTotals struct {
	aggs [nLayers]layerAgg
	log  []rawSpan
}

func (tt *traceTotals) addTracer(t *tracer) {
	for l := range tt.aggs {
		tt.aggs[l].merge(&t.aggs[l])
	}
	tt.log = append(tt.log, t.log...)
}

func (tt *traceTotals) addRemote(r *remoteRecorder) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for l := range tt.aggs {
		tt.aggs[l].merge(&r.aggs[l])
	}
	tt.log = append(tt.log, r.log...)
}

// layerTable prints every layer that was called, by self time per unit
// operation, and returns the most expensive one. bench.* spans are the
// benchmark's own glue and are never named.
func (tt *traceTotals) layerTable(w io.Writer, units uint64, unitName string) string {
	var ls []layer
	for l := range tt.aggs {
		if tt.aggs[l].calls > 0 {
			ls = append(ls, layer(l))
		}
	}
	sort.Slice(ls, func(i, j int) bool { return tt.aggs[ls[i]].self > tt.aggs[ls[j]].self })
	fmt.Fprintf(w, "# %-20s %12s %14s %16s\n", "layer", "calls", "self ns/call", "self ns/"+unitName)
	top := ""
	for _, l := range ls {
		a := &tt.aggs[l]
		fmt.Fprintf(w, "# %-20s %12d %14.1f %16.1f\n", l, a.calls, a.selfPerCall(), float64(a.self)/float64(max64(units, 1)))
		if top == "" && l != lBenchIngest {
			top = l.String()
		}
	}
	return top
}

// writeSpans writes a stamp line and then the logged spans as JSON lines,
// sorted by start time.
func (tt *traceTotals) writeSpans(w io.Writer, stamp any) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(stamp); err != nil {
		return err
	}
	sort.Slice(tt.log, func(i, j int) bool { return tt.log[i].start < tt.log[j].start })
	for _, s := range tt.log {
		if err := enc.Encode(span{ID: s.id, Parent: s.parent, Op: s.op, Name: s.l.String(), Start: s.start, End: s.end}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

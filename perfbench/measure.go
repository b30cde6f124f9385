package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"
)

// On a shared host, stolen time and interference arrive in bursts. Rates
// are therefore taken per rateSlice slice, and a run reports their median:
// a burst moves it only if it covers most of the run. Latency quantiles
// are taken per latChunk chunk of consecutive timed operations, and a run
// reports their mean: on contended-mixed the chunks fall into a fast and
// a slow mode as the workers drift in and out of step, and a median would
// jump between the two from run to run.

// latChunk is how many consecutive latencies each p50/p99 is taken over:
// enough for twenty beyond the p99.
const latChunk = 2000

// meter is one goroutine's view of a measured window.
type meter struct {
	on                 bool
	lastT              time.Time
	lastU, lastO       uint64
	unitRates, opRates []float64
	lat                []int64
	p50s, p99s         []float64
	latSamples         int
}

// start opens the window at the given counts (units: packets or entries
// through the system; ops: unit operations).
func (m *meter) start(now time.Time, units, ops uint64) {
	*m = meter{on: true, lastT: now, lastU: units, lastO: ops, lat: make([]int64, 0, latChunk)}
}

// tick closes the current slice once it has lasted rateSlice, reporting
// whether it did.
func (m *meter) tick(now time.Time, units, ops uint64) bool {
	dt := now.Sub(m.lastT)
	if dt < rateSlice {
		return false
	}
	m.unitRates = append(m.unitRates, float64(units-m.lastU)/dt.Seconds())
	m.opRates = append(m.opRates, float64(ops-m.lastO)/dt.Seconds())
	m.lastT, m.lastU, m.lastO = now, units, ops
	return true
}

// addLat records one timed operation while the window is open.
func (m *meter) addLat(ns int64) {
	if !m.on {
		return
	}
	m.lat = append(m.lat, ns)
	if len(m.lat) == latChunk {
		m.closeChunk()
	}
}

func (m *meter) closeChunk() {
	slices.Sort(m.lat)
	m.p50s = append(m.p50s, sortedQuantile(m.lat, 0.50))
	m.p99s = append(m.p99s, sortedQuantile(m.lat, 0.99))
	m.latSamples += len(m.lat)
	m.lat = m.lat[:0]
}

// measurement is one measured window.
type measurement struct {
	units, ops uint64  // totals over the window
	unitRate   float64 // sum over goroutines of their median slice rates, per second
	opRate     float64
	p50, p99   float64 // means over chunks of each chunk's latency quantiles
	latSamples int
	unitSlices []float64
	mallocs    uint64
	gcs        uint32
	heapBefore uint64 // live heap after a forced collection, before and after
	heapAfter  uint64
}

// window brackets a measured window with the runtime's counters.
type window struct {
	m   measurement
	ms0 runtime.MemStats
}

func openWindow() *window {
	w := &window{}
	w.m.heapBefore = liveHeap()
	runtime.ReadMemStats(&w.ms0)
	return w
}

// close ends the window and summarizes the meters of every goroutine
// that worked in it; units and ops are the window's totals.
func (w *window) close(units, ops uint64, meters ...*meter) measurement {
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	m := w.m
	m.units, m.ops = units, ops
	m.mallocs = ms1.Mallocs - w.ms0.Mallocs
	m.gcs = ms1.NumGC - w.ms0.NumGC
	var p50s, p99s []float64
	for _, mt := range meters {
		mt.on = false
		if len(mt.p50s) == 0 && len(mt.lat) > 0 {
			mt.closeChunk() // a window too short for one full chunk
		}
		m.unitRate += median(mt.unitRates)
		m.opRate += median(mt.opRates)
		m.unitSlices = append(m.unitSlices, mt.unitRates...)
		p50s = append(p50s, mt.p50s...)
		p99s = append(p99s, mt.p99s...)
		m.latSamples += mt.latSamples
	}
	m.p50, m.p99 = mean(p50s), mean(p99s)
	m.heapAfter = liveHeap()
	return m
}

// measureLoop runs a single-goroutine workload: it calls step until d of
// host time has passed, feeding mt the counts after every step. step must
// return within a fraction of rateSlice.
func measureLoop(d time.Duration, step func(), counts func() (units, ops uint64), mt *meter) measurement {
	w := openWindow()
	u0, o0 := counts()
	start := time.Now()
	mt.start(start, u0, o0)
	for {
		step()
		now := time.Now()
		u, o := counts()
		if mt.tick(now, u, o) && now.Sub(start) >= d {
			return w.close(u-u0, o-o0, mt)
		}
	}
}

// describe states how the rates and latencies were taken.
func (m measurement) describe(unitOp string) string {
	xs := make([]int64, len(m.unitSlices))
	for i, v := range m.unitSlices {
		xs[i] = int64(v)
	}
	return fmt.Sprintf("%d slices of %v, unit rate quartiles %.0f / %.0f / %.0f per s; latency: %d timed %s in chunks of %d",
		len(xs), rateSlice, quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75), m.latSamples, unitOp, latChunk)
}

func (m measurement) heapMB(base uint64) float64 {
	peak := max(m.heapBefore, m.heapAfter)
	if peak < base {
		return 0
	}
	return float64(peak-base) / (1 << 20)
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// Command perfbench is the repository's benchmark: it runs one named
// workload against the PIEO scheduler stack from a seed, checks that the
// scheduling it observes is correct, and prints the metrics BENCHMARK.json
// lists, as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured without
// tracing. With --trace 1 the run repeats the workload untraced and then
// traced on the same seed and reports the per-layer metrics, prints the
// per-layer table, and writes the recorded spans under .bench_build/trace.
// See README.md for the workloads and the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"pieo/internal/core"
)

// Seeds: the default one for development runs, and a held-out one that a
// performance claim must also be checked on.
const (
	defaultSeed  = 1
	heldOutSeed  = 7919
	setupReps    = 11
	rateSlice    = 2 * time.Millisecond
	maxWarmup    = time.Second
	traceDirName = ".bench_build/trace"
)

type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics BENCHMARK.json declares, in print
// order; every workload reports all of them (a layer a workload never
// calls reads 0).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"pkts_per_s", "1/s"},
	{"ops_per_s", "1/s"},
	{"heap_mb", "MB"},
	{"jain", "index"},
}

var perLayer = []metricDef{
	{"op_p50_ns", "ns"},
	{"op_p99_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"wire.classify_ns", "ns"},
	{"netsim.self_ns_per_pkt", "ns"},
	{"runtime.gc_cycles_per_kop", "count"},
	{"runtime.allocs_per_op", "count"},
	{"sched.next_packet.self_ns", "ns"},
	{"sched.on_arrival.self_ns", "ns"},
	{"sched.list_calls_per_pkt", "count"},
	{"hier.next_packet.self_ns", "ns"},
	{"hier.next_wake.self_ns", "ns"},
	{"hier.list_calls_per_pkt", "count"},
	{"hier.rate_err_pct", "%"},
	{"core.enqueue_ns_p50", "ns"},
	{"core.enqueue_ns_p99", "ns"},
	{"core.dequeue_ns_p50", "ns"},
	{"core.dequeue_ns_p99", "ns"},
	{"core.dequeue_range_ns", "ns"},
	{"core.min_send_time_ns", "ns"},
	{"core.hw_cycles_per_op", "count"},
	{"core.sram_accesses_per_op", "count"},
	{"shard.enqueue.self_ns", "ns"},
	{"shard.dequeue.self_ns", "ns"},
	{"shard.backend_calls_per_dequeue", "count"},
	{"shard.ring_frac", "ratio"},
	{"shard.empty_dequeue_frac", "ratio"},
	{"shard.retry_frac", "ratio"},
	{"trace.overhead_ns_per_op", "ns"},
}

var workloads = map[string]func(runOpts) (*outcome, error){
	"nic-wf2q":        func(o runOpts) (*outcome, error) { return runNic(o, nicDefault) },
	"hier-10k":        func(o runOpts) (*outcome, error) { return runHier(o, hierDefault) },
	"contended-mixed": func(o runOpts) (*outcome, error) { return runContended(o, contendedDefault()) },
}

type runOpts struct {
	seed    int64
	seconds float64
	trace   bool
}

// measure is the measured window; warmup runs before it.
func (o runOpts) measure() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

func (o runOpts) warmup() time.Duration {
	if w := o.measure() / 10; w < maxWarmup {
		return w
	}
	return maxWarmup
}

// gate is one correctness check: ops checked, and how many violated it.
type gate struct {
	name            string
	ops, violations int64
	details         []string
}

func (g *gate) fail(n int64, detail string) {
	g.violations += n
	g.details = append(g.details, detail)
}

// outcome is what one workload run reports.
type outcome struct {
	attempted, failed int64
	gates             []gate
	metrics           map[string]float64
	notes             []string
	workers           int

	trace      *traceTotals // traced runs only
	traceUnits uint64
	unitName   string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}, workers: 1} }

func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) addGates(gs ...gate) {
	for _, g := range gs {
		o.gates = append(o.gates, g)
		o.attempted += g.ops
		o.failed += g.violations
	}
}

// stallSteps is how many simulation steps without a transmission end a
// fixed-length run early: a stalled scheduler then fails the schedule
// gates instead of hanging the benchmark.
const stallSteps = 10_000

// progressGate fails a measured window in which nothing got through.
func progressGate(name string, m measurement) gate {
	g := gate{name: name + " progress", ops: int64(m.ops)}
	if m.units == 0 {
		g.fail(1, "nothing got through in the measured window")
	}
	return g
}

func traceDigestGate(name string, traced, untraced []uint64) gate {
	g := gate{name: name + " traced schedule = untraced", ops: int64(len(untraced))}
	if bad := mismatches(traced, untraced); bad != 0 {
		g.fail(int64(bad), fmt.Sprintf("traced digest %016x, untraced %016x", digestOf(traced), digestOf(untraced)))
	}
	return g
}

// timedSetup builds the system reps times and returns the last one with
// the median build time. Collections between builds run untimed.
func timedSetup[T any](reps int, build func() (T, error)) (T, time.Duration, error) {
	var sys T
	var ds []float64
	for i := 0; i < reps; i++ {
		var zero T
		sys = zero
		runtime.GC()
		start := time.Now()
		var err error
		if sys, err = build(); err != nil {
			return sys, 0, err
		}
		ds = append(ds, float64(time.Since(start)))
	}
	return sys, time.Duration(median(ds)), nil
}

// setCoreLayers fills the core.* layer metrics from a trace and from the
// modelled-hardware counters of a fixed, seeded operation sequence.
func setCoreLayers(out *outcome, tt *traceTotals, hw core.Stats) {
	a := &tt.aggs
	out.set("core.enqueue_ns_p50", quantile(a[lCoreEnqueue].durs.buf, 0.50))
	out.set("core.enqueue_ns_p99", quantile(a[lCoreEnqueue].durs.buf, 0.99))
	out.set("core.dequeue_ns_p50", quantile(a[lCoreDequeue].durs.buf, 0.50))
	out.set("core.dequeue_ns_p99", quantile(a[lCoreDequeue].durs.buf, 0.99))
	out.set("core.dequeue_range_ns", meanDur(&a[lCoreDequeueRange]))
	out.set("core.min_send_time_ns", meanDur(&a[lCoreMinSendTime]))
	ops := hw.Enqueues + hw.Dequeues + hw.EmptyDequeues + hw.FlowDequeues + hw.RangeDequeues
	if ops > 0 {
		out.set("core.hw_cycles_per_op", float64(hw.Cycles)/float64(ops))
		out.set("core.sram_accesses_per_op", float64(hw.SublistReads+hw.SublistWrites)/float64(ops))
	}
}

// setUntracedLayers fills the metrics a traced run takes from its
// untraced half: the Go runtime's counters, and the unit op's latency,
// whose run-to-run spread on a shared host is too wide to bound.
func setUntracedLayers(out *outcome, m measurement) {
	out.set("op_p50_ns", m.p50)
	out.set("op_p99_ns", m.p99)
	out.set("runtime.gc_cycles_per_kop", float64(m.gcs)/(float64(m.ops)/1000))
	out.set("runtime.allocs_per_op", float64(m.mallocs)/float64(m.ops))
}

func meanDur(a *layerAgg) float64 {
	if a.calls == 0 {
		return 0
	}
	return float64(a.total) / float64(a.calls)
}

// stamp identifies the host, build and inputs of a result.
type stamp struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	Seconds    float64 `json:"seconds"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
	GoVersion  string  `json:"go_version"`
	GitSHA     string  `json:"git_sha"`
}

func gitSHA() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	sha, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			sha = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		sha += "+dirty"
	}
	return sha
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the human-readable lines (each starting with "#"), then
// the result object as the last line.
func report(w io.Writer, st stamp, out *outcome) error {
	for _, g := range out.gates {
		status := "ok"
		if g.violations != 0 {
			status = "FAIL"
		}
		fmt.Fprintf(w, "# gate %-34s %-4s %d/%d violations %s\n", g.name, status, g.violations, g.ops, strings.Join(g.details, "; "))
	}
	for _, n := range out.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	defs := endToEnd
	if st.Trace {
		defs = perLayer
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	var na []string
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok {
			if !st.Trace {
				return fmt.Errorf("workload %s did not report %s", st.Workload, d.name)
			}
			na = append(na, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// Nothing got through to measure: already a failed gate.
			fmt.Fprintf(w, "# %s could not be computed\n", d.name)
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "# %-32s %16.6g %s\n", d.name, v, d.unit)
	}
	if len(na) > 0 {
		sort.Strings(na)
		fmt.Fprintf(w, "# not on this workload's path (reported as 0): %s\n", strings.Join(na, ", "))
	}
	fmt.Fprintf(w, "# failed_frac %.6g (%d of %d ops)\n", float64(out.failed)/float64(max(out.attempted, 1)), out.failed, out.attempted)
	if st.Trace && out.trace != nil {
		top := out.trace.layerTable(w, out.traceUnits, out.unitName)
		fmt.Fprintf(w, "# most expensive layer: %s\n", top)
	}
	sj, err := json.Marshal(st)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# stamp %s\n", sj)
	rj, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", rj)
	return err
}

func writeTrace(st stamp, tt *traceTotals) error {
	if err := os.MkdirAll(traceDirName, 0o755); err != nil {
		return err
	}
	path := filepath.Join(traceDirName, fmt.Sprintf("%s-seed%d.jsonl", st.Workload, st.Seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tt.writeSpans(f, st); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	name := flag.String("workload", "", "workload to run: nic-wf2q, hier-10k or contended-mixed")
	seed := flag.Int64("seed", defaultSeed, fmt.Sprintf("input seed (held-out seed: %d)", heldOutSeed))
	seconds := flag.Float64("seconds", 10, "measured time per run, in seconds")
	traceFlag := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traceFlag)
		flag.Usage()
		os.Exit(2)
	}
	o := runOpts{seed: *seed, seconds: *seconds, trace: *traceFlag == 1}
	out, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	st := stamp{
		Workload: *name, Seed: o.seed, Trace: o.trace, Seconds: o.seconds,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: out.workers,
		GoVersion: runtime.Version(), GitSHA: gitSHA(),
	}
	if o.trace && out.trace != nil {
		if err := writeTrace(st, out.trace); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		}
	}
	if err := report(os.Stdout, st, out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

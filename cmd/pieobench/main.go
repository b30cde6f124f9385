// Command pieobench regenerates the paper's evaluation tables and
// figures (see DESIGN.md for the experiment index).
//
// Usage:
//
//	pieobench -experiment fig8        # one experiment
//	pieobench -experiment all         # everything (default)
//	pieobench -list                   # list experiment ids
//	pieobench -experiment hotpath -cpuprofile cpu.pprof
//	pieobench -experiment cffs -json        # also write BENCH_cffs.json
//	pieobench -experiment hotpath -backend core,cffs,sharded+cffs
//	pieobench -experiment hotpath -procs 1,2,4,8 -json
//
// The -backend flag selects, by backend-registry name, which backends
// the datapath-measuring experiments sweep — any registered backend
// works, with no per-backend switch in the harness.
//
// The -procs flag re-runs the selected experiments once per listed
// GOMAXPROCS value; with -json the rows of every run are merged —
// each stamped with its experiment id and gomaxprocs — into a single
// BENCH_scaling.json keyed (experiment, backend, K, procs). The
// "scaling" experiment manages its own GOMAXPROCS sweep internally
// and is the usual way to produce BENCH_scaling.json; -procs exists
// to put ANY experiment under the same sweep.
//
// The -cpuprofile and -memprofile flags write pprof profiles covering
// the experiment run, for `go tool pprof` analysis of the software
// datapath (the "hotpath" experiment is the intended subject, but the
// profiles cover whichever experiments run).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"pieo/internal/experiments"
)

func main() {
	experiment := flag.String("experiment", "all", "experiment id to run, or 'all'")
	format := flag.String("format", "table", "output format: table|csv")
	jsonOut := flag.Bool("json", false, "additionally write BENCH_<experiment>.json per experiment (machine-readable rows plus host metadata)")
	list := flag.Bool("list", false, "list available experiment ids and exit")
	backends := flag.String("backend", "", "comma-separated registry backend names the measuring experiments sweep (default: "+strings.Join(experiments.Backends(), ",")+"); any registered name works")
	procsFlag := flag.String("procs", "", "comma-separated GOMAXPROCS values (e.g. 1,2,4,8): re-run the selected experiments under each value; with -json, merge all rows into one BENCH_scaling.json")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	if flag.NArg() > 0 {
		// A bare `pieobench hotpath` would otherwise run every experiment,
		// silently ignoring what the user asked for.
		fmt.Fprintf(os.Stderr, "pieobench: unexpected argument %q (select experiments with -experiment, backends with -backend)\n", flag.Arg(0))
		os.Exit(1)
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	if *backends != "" {
		if err := experiments.SetBackends(strings.Split(*backends, ",")); err != nil {
			fmt.Fprintln(os.Stderr, "pieobench:", err)
			os.Exit(1)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pieobench: cpuprofile:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "pieobench: cpuprofile:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	ids := experiments.IDs()
	if *experiment != "all" {
		ids = []string{*experiment}
	}
	if *procsFlag != "" {
		if err := runSweep(*procsFlag, ids, *format, *jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "pieobench:", err)
			exit(1, *cpuprofile)
		}
		writeMemProfile(*memprofile, *cpuprofile)
		return
	}
	for _, id := range ids {
		tab, err := experiments.Run(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pieobench:", err)
			exit(1, *cpuprofile)
		}
		switch *format {
		case "table":
			tab.Fprint(os.Stdout)
		case "csv":
			tab.FprintCSV(os.Stdout)
		default:
			fmt.Fprintf(os.Stderr, "pieobench: unknown format %q\n", *format)
			exit(1, *cpuprofile)
		}
		if *jsonOut {
			if err := writeBenchJSON(tab); err != nil {
				fmt.Fprintln(os.Stderr, "pieobench: json:", err)
				exit(1, *cpuprofile)
			}
		}
	}

	writeMemProfile(*memprofile, *cpuprofile)
}

// writeMemProfile writes the heap profile (if requested) after the
// experiments have run; exits through exit() so an active CPU profile
// is flushed on failure.
func writeMemProfile(memprofile, cpuprofile string) {
	if memprofile == "" {
		return
	}
	f, err := os.Create(memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pieobench: memprofile:", err)
		exit(1, cpuprofile)
	}
	defer f.Close()
	runtime.GC() // settle the heap so the profile shows live objects
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "pieobench: memprofile:", err)
		exit(1, cpuprofile)
	}
}

// runSweep is the -procs path: every selected experiment re-runs under
// each GOMAXPROCS value, the per-run tables print normally, and (with
// -json) every row lands — stamped with its experiment id and effective
// gomaxprocs — in one merged BENCH_scaling.json, the
// (experiment, backend, K, procs)-keyed artifact CI uploads.
func runSweep(spec string, ids []string, format string, jsonOut bool) error {
	var procs []int
	for _, f := range strings.Split(spec, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v <= 0 {
			return fmt.Errorf("-procs: %q is not a positive integer", f)
		}
		procs = append(procs, v)
	}
	merged := benchJSON{
		Experiment: "scaling",
		Title:      "GOMAXPROCS sweep: " + strings.Join(ids, ", "),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GitSHA:     gitSHA(),
		Columns:    []string{"experiment", "gomaxprocs"},
	}
	seen := map[string]bool{"experiment": true, "gomaxprocs": true}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		for _, id := range ids {
			tab, err := experiments.Run(id)
			if err != nil {
				return err
			}
			fmt.Printf("-- GOMAXPROCS=%d --\n", p)
			switch format {
			case "table":
				tab.Fprint(os.Stdout)
			case "csv":
				tab.FprintCSV(os.Stdout)
			default:
				return fmt.Errorf("unknown format %q", format)
			}
			for _, c := range tab.Columns {
				if !seen[c] {
					seen[c] = true
					merged.Columns = append(merged.Columns, c)
				}
			}
			for _, m := range rowMaps(tab) {
				m["experiment"] = tab.ID
				stampGomaxprocs(m, p)
				merged.Rows = append(merged.Rows, m)
			}
			for _, n := range tab.Notes {
				merged.Notes = append(merged.Notes, fmt.Sprintf("[%s@procs=%d] %s", tab.ID, p, n))
			}
		}
	}
	runtime.GOMAXPROCS(prev)
	if !jsonOut {
		return nil
	}
	data, err := json.MarshalIndent(&merged, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("BENCH_scaling.json", append(data, '\n'), 0o644)
}

// benchJSON is the BENCH_<experiment>.json schema: the experiment's rows
// keyed by column name (so ns/op, allocs/op, backend, n survive column
// reordering), plus the host metadata a CI artifact needs to be
// comparable across runs. The top-level gomaxprocs records the process
// setting at startup; every row ALSO carries its own "gomaxprocs" key,
// because a -procs sweep (and the scaling experiment itself) measures
// different rows under different settings — per-row is authoritative.
type benchJSON struct {
	Experiment string              `json:"experiment"`
	Title      string              `json:"title"`
	GOMAXPROCS int                 `json:"gomaxprocs"`
	GitSHA     string              `json:"git_sha"`
	Columns    []string            `json:"columns"`
	Rows       []map[string]string `json:"rows"`
	Notes      []string            `json:"notes"`
}

// rowMaps converts tab's positional rows into column-keyed maps.
func rowMaps(tab *experiments.Table) []map[string]string {
	out := make([]map[string]string, 0, len(tab.Rows))
	for _, row := range tab.Rows {
		m := make(map[string]string, len(row)+2)
		for i, cell := range row {
			if i < len(tab.Columns) {
				m[tab.Columns[i]] = cell
			}
		}
		out = append(out, m)
	}
	return out
}

// stampGomaxprocs records the GOMAXPROCS a row was measured under. An
// experiment that sweeps procs itself (scaling) publishes the true
// per-row value in its "procs" column, which wins over the process-wide
// setting the harness knows about.
func stampGomaxprocs(m map[string]string, processProcs int) {
	if v, ok := m["procs"]; ok {
		m["gomaxprocs"] = v
		return
	}
	m["gomaxprocs"] = strconv.Itoa(processProcs)
}

// writeBenchJSON renders tab as BENCH_<id>.json in the working
// directory — the machine-readable artifact the CI bench-smoke job
// uploads so perf regressions leave a diffable trail.
func writeBenchJSON(tab *experiments.Table) error {
	out := benchJSON{
		Experiment: tab.ID,
		Title:      tab.Title,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GitSHA:     gitSHA(),
		Columns:    tab.Columns,
		Notes:      tab.Notes,
		Rows:       rowMaps(tab),
	}
	hasCol := false
	for _, c := range out.Columns {
		if c == "gomaxprocs" {
			hasCol = true
			break
		}
	}
	if !hasCol {
		out.Columns = append(append([]string{}, out.Columns...), "gomaxprocs")
	}
	for _, m := range out.Rows {
		stampGomaxprocs(m, runtime.GOMAXPROCS(0))
	}
	data, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("BENCH_"+tab.ID+".json", append(data, '\n'), 0o644)
}

// gitSHA best-efforts the commit hash for artifact provenance; outside a
// git checkout (or without git on PATH) it degrades to "unknown".
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// exit stops an active CPU profile before terminating: os.Exit skips
// deferred calls, which would otherwise leave a truncated profile.
func exit(code int, cpuprofile string) {
	if cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	os.Exit(code)
}

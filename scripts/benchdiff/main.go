// Command benchdiff compares two BENCH_*.json artifacts (written by
// `pieobench -json`) benchstat-style: rows are matched on their
// identity columns (experiment, backend, K, procs, n, ... — everything
// that names a configuration rather than measures it), and each metric
// column present on both sides is reported as old → new with a signed
// delta. Intended use is the CI bench-smoke job and local before/after
// checks:
//
//	go run ./scripts/benchdiff old/BENCH_scaling.json BENCH_scaling.json
//	go run ./scripts/benchdiff -max-regress 5 old.json new.json  # exit 1 if ns/op worsens > 5%
//
// Wall-clock experiment tables are single measurements (best-of-N), not
// benchstat sample sets — deltas inside scheduler noise (a few percent)
// are not significant, which is why -max-regress gates only on a
// generous explicit threshold instead of defaulting to any-regression.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// benchFile mirrors cmd/pieobench's benchJSON schema (rows keyed by
// column name, so this tool survives column reordering).
type benchFile struct {
	Experiment string              `json:"experiment"`
	GitSHA     string              `json:"git_sha"`
	Columns    []string            `json:"columns"`
	Rows       []map[string]string `json:"rows"`
}

// metricCols are the measured columns a delta is computed for, in
// report order; lower-is-better except where marked.
var metricCols = []struct {
	name   string
	higher bool // higher is better (throughput)
}{
	{"ns/op", false},
	{"allocs/op", false},
	{"Mops/s", true},
}

func isMetric(c string) bool {
	for _, m := range metricCols {
		if m.name == c {
			return true
		}
	}
	// Derived/diagnostic columns that measure rather than identify a row
	// but aren't diffed: counter totals, precomputed ratios, and the
	// workload-size knobs ("ops"/"n"), which CI runs reduce via env vars
	// — keying on them would make every cross-run comparison match
	// nothing. Rows are identified by (experiment, backend, K, procs).
	switch c {
	case "vs synclist", "gomaxprocs", "ops", "n":
		return true
	}
	return false
}

func load(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &f, nil
}

// rowKey builds the identity key: every non-metric column value, in the
// file's column order, plus the experiment id (sweep files carry it
// per-row; single-experiment files don't, so fall back to the header).
func rowKey(f *benchFile, row map[string]string) string {
	parts := []string{}
	if exp, ok := row["experiment"]; ok {
		parts = append(parts, exp)
	} else {
		parts = append(parts, f.Experiment)
	}
	for _, c := range f.Columns {
		if c == "experiment" || isMetric(c) {
			continue
		}
		if v, ok := row[c]; ok {
			parts = append(parts, c+"="+v)
		}
	}
	return strings.Join(parts, " ")
}

func main() {
	maxRegress := flag.Float64("max-regress", 0, "exit 1 if any matched row's ns/op worsens by more than this percentage (0 disables the gate)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-max-regress pct] old.json new.json")
		os.Exit(2)
	}
	oldF, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	newF, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	oldRows := map[string]map[string]string{}
	for _, r := range oldF.Rows {
		oldRows[rowKey(oldF, r)] = r
	}
	newRows := map[string]map[string]string{}
	var order []string
	for _, r := range newF.Rows {
		k := rowKey(newF, r)
		newRows[k] = r
		order = append(order, k)
	}

	fmt.Printf("benchdiff: %s (%s) -> %s (%s)\n\n", flag.Arg(0), oldF.GitSHA, flag.Arg(1), newF.GitSHA)
	worst := 0.0
	matched := 0
	for _, k := range order {
		nr := newRows[k]
		or, ok := oldRows[k]
		if !ok {
			fmt.Printf("%-70s  (new row, no baseline)\n", k)
			continue
		}
		matched++
		var cells []string
		for _, m := range metricCols {
			ov, ook := parseNum(or[m.name])
			nv, nok := parseNum(nr[m.name])
			if !ook || !nok {
				continue
			}
			delta := 0.0
			if ov != 0 {
				delta = 100 * (nv - ov) / ov
			}
			cells = append(cells, fmt.Sprintf("%s %.1f -> %.1f (%+.1f%%)", m.name, ov, nv, delta))
			if m.name == "ns/op" && delta > worst {
				worst = delta
			}
		}
		fmt.Printf("%-70s  %s\n", k, strings.Join(cells, "  "))
	}
	var gone []string
	for k := range oldRows {
		if _, ok := newRows[k]; !ok {
			gone = append(gone, k)
		}
	}
	sort.Strings(gone)
	for _, k := range gone {
		fmt.Printf("%-70s  (baseline row missing from new file)\n", k)
	}
	fmt.Printf("\n%d rows matched; worst ns/op regression %+.1f%%\n", matched, worst)
	if *maxRegress > 0 && worst > *maxRegress {
		fmt.Fprintf(os.Stderr, "benchdiff: ns/op regression %.1f%% exceeds -max-regress %.1f%%\n", worst, *maxRegress)
		os.Exit(1)
	}
}

// parseNum reads the leading float of a cell ("529.4", "1.07x", "64%").
func parseNum(s string) (float64, bool) {
	s = strings.TrimSpace(s)
	end := 0
	for end < len(s) && (s[end] == '.' || s[end] == '-' || s[end] == '+' || (s[end] >= '0' && s[end] <= '9')) {
		end++
	}
	if end == 0 {
		return 0, false
	}
	v, err := strconv.ParseFloat(s[:end], 64)
	return v, err == nil
}

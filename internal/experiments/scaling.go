package experiments

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pieo/internal/backend"
	"pieo/internal/clock"
	"pieo/internal/core"
	"pieo/internal/shard"
)

// The true-multicore scaling study (ROADMAP item 3): every other table
// in this package is recorded at GOMAXPROCS=1, where goroutine
// contention is scheduler-interleaved and the sharded engine's
// parallelism — the paper's §4.3 "multiple physical PIEOs" claim lifted
// into software — is never actually exercised. This experiment re-runs
// a contended mixed workload under a sweep of GOMAXPROCS values and
// reports throughput versus cores versus K, including the crossover
// point where the sharded engine overtakes the single-lock baseline.
//
// Measurement protocol (RunParallel-style, not the interleave storms):
// W = procs workers share an atomic chunk counter over the operation
// space; each worker claims a chunk and drives enqueue+dequeue PAIRS
// against the shared engine at an always-eligible now, so steady-state
// occupancy stays pinned near the prefill and every operation contends
// realistically on both the ingress and extraction paths. ns/op is
// wall-clock over total operations (2 x pairs), best of N runs.

const (
	scalingCapacity = 1 << 19
	scalingPrefill  = 4096
	scalingGrain    = 512 // pairs per chunk claim
	prefillIDBase   = 1 << 28
)

func scalingEnvInt(name string, def int) int {
	if s := os.Getenv(name); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return def
}

// scalingProcs returns the GOMAXPROCS sweep, default 1,2,4,8;
// PIEO_SCALING_PROCS overrides it (comma-separated).
func scalingProcs() []int {
	if s := os.Getenv("PIEO_SCALING_PROCS"); s != "" {
		var out []int
		for _, f := range strings.Split(s, ",") {
			if v, err := strconv.Atoi(strings.TrimSpace(f)); err == nil && v > 0 {
				out = append(out, v)
			}
		}
		if len(out) > 0 {
			return out
		}
	}
	return []int{1, 2, 4, 8}
}

// lockedList mirrors pieo.SyncList (a single write lock over the
// paper-exact core list) for the contended baseline. The facade type
// itself lives in the root package, which imports experiments, so it
// cannot be used here; the two are operation-for-operation identical on
// the Enqueue/Dequeue paths this sweep drives.
type lockedList struct {
	mu sync.RWMutex
	b  backend.Backend
}

func (s *lockedList) Enqueue(e core.Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Enqueue(e)
}

func (s *lockedList) Dequeue(now clock.Time) (core.Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Dequeue(now)
}

// contendedTarget is the minimal surface the sweep drives.
type contendedTarget interface {
	Enqueue(core.Entry) error
	Dequeue(clock.Time) (core.Entry, bool)
}

// scalingRank spreads IDs over a 20-bit rank space with a Fibonacci mix
// — deterministic (replayable runs), collision-rich enough to exercise
// the FIFO tie paths, and narrow enough for the cffs quantizer.
func scalingRank(id uint32) uint64 {
	return (uint64(id) * 0x9E3779B97F4A7C15 >> 44)
}

// parallelMeasure drives pairs enqueue+dequeue pairs from `workers`
// concurrent workers against a prefilled target and returns ns per
// operation. Workers claim scalingGrain-sized chunks from a shared
// counter (so work distribution adapts to stragglers), every entry is
// always eligible, and a failed dequeue (a momentary empty race under
// extraction contention) retries — occupancy never falls below
// prefill - workers, so progress is guaranteed.
func parallelMeasure(be contendedTarget, pairs, workers int) float64 {
	for i := 0; i < scalingPrefill; i++ {
		id := uint32(prefillIDBase + i)
		if err := be.Enqueue(core.Entry{ID: id, Rank: scalingRank(id), SendTime: clock.Always}); err != nil {
			panic(fmt.Sprintf("experiments: scaling prefill: %v", err))
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := next.Add(scalingGrain) - scalingGrain
				if lo >= int64(pairs) {
					return
				}
				hi := lo + scalingGrain
				if hi > int64(pairs) {
					hi = int64(pairs)
				}
				for i := lo; i < hi; i++ {
					id := uint32(i + 1)
					for {
						err := be.Enqueue(core.Entry{ID: id, Rank: scalingRank(id), SendTime: clock.Always})
						if err == nil {
							break
						}
						if err == core.ErrFull {
							runtime.Gosched()
							continue
						}
						panic(fmt.Sprintf("experiments: scaling enqueue: %v", err))
					}
					for {
						if _, ok := be.Dequeue(clock.Always); ok {
							break
						}
						runtime.Gosched()
					}
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	return float64(elapsed.Nanoseconds()) / float64(2*pairs)
}

// Scaling produces the throughput-vs-cores-vs-K curve: the single-lock
// synclist baseline against the sharded engine (K in {4, 8}) and the
// sharded+cffs composite, each measured at every
// GOMAXPROCS in the sweep. The "vs synclist" column is the speedup over
// the baseline AT THE SAME proc count; the notes record, per
// configuration, the smallest proc count where it beats the baseline
// (the crossover the acceptance criteria ask for).
func Scaling() *Table {
	pairs := scalingEnvInt("PIEO_SCALING_OPS", 1<<17)
	reps := scalingEnvInt("PIEO_SCALING_REPS", 3)
	procsList := scalingProcs()

	type config struct {
		name string
		k    int
		make func() contendedTarget
	}
	newSharded := func(k int, backendName string) contendedTarget {
		e, err := shard.NewNamed(scalingCapacity, k, backendName)
		if err != nil {
			panic(fmt.Sprintf("experiments: scaling: %v", err))
		}
		return e
	}
	configs := []config{
		{"synclist", 1, func() contendedTarget {
			return &lockedList{b: backend.NewCoreList(scalingCapacity)}
		}},
		{"sharded", 4, func() contendedTarget { return newSharded(4, "core") }},
		{"sharded", 8, func() contendedTarget { return newSharded(8, "core") }},
		{"sharded+cffs", 8, func() contendedTarget { return newSharded(8, "cffs") }},
	}

	t := &Table{
		ID:      "scaling",
		Title:   "True multicore scale-out: contended mixed throughput vs cores vs K",
		Columns: []string{"backend", "K", "procs", "ops", "ns/op", "Mops/s", "vs synclist"},
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	crossover := map[string]int{} // config label -> smallest procs beating synclist
	order := []string{}
	for _, procs := range procsList {
		runtime.GOMAXPROCS(procs)
		var baseNs float64
		for _, c := range configs {
			best := math.Inf(1)
			for r := 0; r < reps; r++ {
				if ns := parallelMeasure(c.make(), pairs, procs); ns < best {
					best = ns
				}
			}
			vs := "1.00x (baseline)"
			if c.name == "synclist" {
				baseNs = best
			} else {
				vs = fmt.Sprintf("%.2fx", baseNs/best)
				label := fmt.Sprintf("%s K=%d", c.name, c.k)
				if _, seen := crossover[label]; !seen {
					order = append(order, label)
					crossover[label] = 0
				}
				if baseNs/best > 1 && crossover[label] == 0 {
					crossover[label] = procs
				}
			}
			t.Rows = append(t.Rows, []string{
				c.name,
				fmt.Sprintf("%d", c.k),
				fmt.Sprintf("%d", procs),
				fmt.Sprintf("%d", 2*pairs),
				fmt.Sprintf("%.1f", best),
				fmt.Sprintf("%.2f", 1e3/best),
				vs,
			})
		}
	}
	runtime.GOMAXPROCS(prev)

	for _, label := range order {
		if p := crossover[label]; p > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf("crossover: %s first beats synclist at procs=%d", label, p))
		} else {
			t.Notes = append(t.Notes, fmt.Sprintf("crossover: %s never beats synclist in this sweep", label))
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("host: %d CPUs; rows with procs above that are time-shared, not parallel — regenerate on a multicore host (see EXPERIMENTS.md)", runtime.NumCPU()),
		fmt.Sprintf("protocol: workers = procs, shared chunk counter (grain %d pairs), enqueue+dequeue pairs at always-eligible now, prefill %d, best of %d runs", scalingGrain, scalingPrefill, reps),
		fmt.Sprintf("PIEO_SCALING_OPS pairs per run (default 2^17), PIEO_SCALING_PROCS sweep (default 1,2,4,8), PIEO_SCALING_REPS best-of (default 3)"),
	)
	return t
}

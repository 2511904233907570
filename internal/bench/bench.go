// Package bench is the micro-benchmark harness of §6.2. It reproduces the
// methodology of the paper (Synchrobench-style parameters: update ratio,
// initial size, key range, warm-up, timed runs) and regenerates the data
// behind Figures 6, 7 and 8, including the Pearson correlation between
// throughput and the contention stall proxy.
package bench

import (
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/adjusted-objects/dego/internal/contention"
	"github.com/adjusted-objects/dego/internal/core"
	"github.com/adjusted-objects/dego/internal/stats"
)

// Config carries the Synchrobench-style parameters (§6.2 uses
// -u100 -f1 -l60000 -s0 -a0 -i16384 -r32768 -W30 -n30; the defaults here are
// scaled to finish in seconds rather than hours while preserving shape).
type Config struct {
	// Threads is the number of worker goroutines.
	Threads int
	// Duration of the measured phase (time mode). Ignored when
	// OpsPerThread > 0.
	Duration time.Duration
	// Warmup duration before measurement (time mode).
	Warmup time.Duration
	// OpsPerThread switches to op-count mode: each thread runs exactly this
	// many operations (used by testing.B and unit tests).
	OpsPerThread int
	// InitialItems is the collection's initial population (paper: 16K).
	InitialItems int
	// KeyRange is the number of possible keys (paper: 32K).
	KeyRange int
	// UpdateRatio is the percentage of update operations (0-100).
	UpdateRatio int
	// Seed makes runs reproducible.
	Seed int64
}

// DefaultConfig mirrors the paper's workload at a laptop-friendly duration.
func DefaultConfig() Config {
	return Config{
		Threads:      runtime.GOMAXPROCS(0),
		Duration:     300 * time.Millisecond,
		Warmup:       50 * time.Millisecond,
		InitialItems: 16 << 10,
		KeyRange:     32 << 10,
		UpdateRatio:  100,
		Seed:         1,
	}
}

// OpFunc executes one operation; tid is the dense worker index
// (0..Threads-1), h the worker's registry handle, rng a private source.
type OpFunc func(tid int, h *core.Handle, rng *rand.Rand)

// Workload names a benchmarked object configuration and builds its per-run
// state.
type Workload struct {
	// Name as reported in the tables ("CounterJUC",
	// "CounterIncrementOnly", ...).
	Name string
	// Setup populates the object for cfg and returns the per-operation
	// function plus the contention probe observing the object (may be nil).
	Setup func(cfg Config, reg *core.Registry) (OpFunc, *contention.Probe)
}

// Result is one measured point. Stalls is the probe's count over the
// window; the embedded Runtime is what the runtime counted over it: lock
// wait (MutexSec), collections, collector CPU, scannable-heap growth and
// scheduling waits.
type Result struct {
	Name    string
	Threads int
	Ops     int64
	Elapsed time.Duration
	Stalls  int64
	contention.Runtime
}

// KopsPerThread is the paper's y-axis: thousands of operations per second
// per thread (a horizontal line = perfect scaling).
func (r Result) KopsPerThread() float64 {
	if r.Elapsed <= 0 || r.Threads == 0 {
		return 0
	}
	opsPerSec := float64(r.Ops) / r.Elapsed.Seconds()
	return opsPerSec / float64(r.Threads) / 1e3
}

// Kops is total throughput in Kops/s.
func (r Result) Kops() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds() / 1e3
}

// Run executes the workload under cfg and returns the measurement. It is
// the one in-process driver: the figures of §6.2 and the Retwis program of
// §6.3 both run on it. The workers' handles are registered first, in tid
// order, so worker tid runs on handle id tid (a workload may partition by
// h.ID()), and the first handle Setup registers has id Threads.
func Run(w Workload, cfg Config) Result {
	// Setup may register priming handles (one per thread partition) in
	// addition to the worker handles, so size the registry for both.
	reg := core.NewRegistry(max(cfg.Threads*2+8, 16))
	handles := make([]*core.Handle, cfg.Threads)
	for tid := range handles {
		handles[tid] = reg.MustRegister()
	}
	op, probe := w.Setup(cfg, reg)
	rt := contention.NewReader()

	var (
		stop     atomic.Bool
		started  sync.WaitGroup
		finished sync.WaitGroup
		begin    = make(chan struct{})
		counts   = make([]core.PaddedInt64, cfg.Threads)
	)

	worker := func(tid int) {
		defer finished.Done()
		h := handles[tid]
		rng := rand.New(rand.NewSource(cfg.Seed + int64(tid)*7919))
		cell := &counts[tid].V
		started.Done()
		<-begin
		if cfg.OpsPerThread > 0 {
			for i := 0; i < cfg.OpsPerThread; i++ {
				op(tid, h, rng)
			}
			cell.Store(int64(cfg.OpsPerThread))
			return
		}
		for !stop.Load() {
			// Amortize the stop check over a small batch.
			for i := 0; i < 64; i++ {
				op(tid, h, rng)
			}
			cell.Store(cell.Load() + 64)
		}
	}

	sumCounts := func() int64 {
		var total int64
		for i := range counts {
			total += counts[i].V.Load()
		}
		return total
	}

	started.Add(cfg.Threads)
	finished.Add(cfg.Threads)
	for tid := 0; tid < cfg.Threads; tid++ {
		go worker(tid)
	}
	started.Wait()
	close(begin)

	// Warm-up: the workers run, but the window only opens afterwards —
	// the measured interval excludes cold caches and branch predictors
	// (the paper warms for 30s before its 60s runs).
	var baseOps int64
	if cfg.OpsPerThread == 0 && cfg.Warmup > 0 {
		time.Sleep(cfg.Warmup)
		baseOps = sumCounts()
	}
	probeBase := probe.Snapshot()
	rt.Begin()
	t0 := time.Now()
	if cfg.OpsPerThread == 0 {
		time.Sleep(cfg.Duration)
		stop.Store(true)
	}
	finished.Wait()
	elapsed := time.Since(t0)

	return Result{
		Name:    w.Name,
		Threads: cfg.Threads,
		Ops:     sumCounts() - baseOps,
		Elapsed: elapsed,
		Stalls:  probe.Snapshot().Sub(probeBase).Total(),
		Runtime: rt.End(),
	}
}

// Sweep runs the workload at each thread count and returns one result per
// point.
func Sweep(w Workload, base Config, threads []int) []Result {
	out := make([]Result, 0, len(threads))
	for _, t := range threads {
		cfg := base
		cfg.Threads = t
		out = append(out, Run(w, cfg))
	}
	return out
}

// PearsonThroughputStalls computes the correlation between per-point
// throughput and stall counts across a sweep — the §6.2 analysis that
// reports, e.g., −0.93 for the counter. It returns an error when the series
// are degenerate (no stalls recorded at all).
func PearsonThroughputStalls(results []Result) (float64, error) {
	thr := make([]float64, len(results))
	stl := make([]float64, len(results))
	for i, r := range results {
		thr[i] = r.KopsPerThread()
		stl[i] = float64(r.Stalls) + r.MutexSec*1e9
	}
	return stats.Pearson(thr, stl)
}

// FormatTable renders sweep results as the row family of one figure line.
func FormatTable(title string, series map[string][]Result, threads []int) string {
	out := fmt.Sprintf("## %s (Kops/s per thread)\n%-32s", title, "object \\ threads")
	for _, t := range threads {
		out += fmt.Sprintf("%10d", t)
	}
	out += "\n"
	for _, name := range slices.Sorted(maps.Keys(series)) {
		out += fmt.Sprintf("%-32s", name)
		for _, r := range series[name] {
			out += fmt.Sprintf("%10.1f", r.KopsPerThread())
		}
		out += "\n"
	}
	return out
}

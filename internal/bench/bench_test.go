package bench

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/adjusted-objects/dego"
	"github.com/adjusted-objects/dego/internal/contention"
	"github.com/adjusted-objects/dego/internal/core"
)

// The harness tests run every workload briefly in op-count mode, verifying
// the machinery (not performance).

func tinyConfig(threads int) Config {
	cfg := DefaultConfig()
	cfg.Threads = threads
	cfg.OpsPerThread = 2000
	cfg.InitialItems = 512
	cfg.KeyRange = 1024
	return cfg
}

func TestAllWorkloadsRun(t *testing.T) {
	var all []Workload
	for _, family := range Figure6Families() {
		all = append(all, family...)
	}
	for _, wl := range all {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			t.Parallel()
			for _, threads := range []int{1, 4} {
				res := Run(wl, tinyConfig(threads))
				if res.Ops != int64(threads*2000) {
					t.Fatalf("threads=%d: ops = %d, want %d", threads, res.Ops, threads*2000)
				}
				if res.Elapsed <= 0 {
					t.Fatal("non-positive elapsed time")
				}
				if res.KopsPerThread() <= 0 || res.Kops() <= 0 {
					t.Fatal("non-positive throughput")
				}
			}
		})
	}
}

// TestFigureDeclarations pins what each figure and ablation object stands
// for. The workloads build their DEGO and JUC objects directly from the
// internal packages, so this table declares each one the way its figure
// legend implies and checks that the planner still picks the representation
// the workload builds. A planner change that moves a declaration off its
// representation fails here instead of leaving the figure timing an object
// the declaration no longer plans. The contention probes behind the stall
// columns are the workloads' own: a probe is no part of a declaration.
func TestFigureDeclarations(t *testing.T) {
	cfg := DefaultConfig()
	reg := dego.NewRegistry(8)
	v := 42
	for _, c := range []struct {
		wl   Workload
		plan dego.Plan
		rep  string
	}{
		{CounterJUC(), dego.Must(dego.Counter()).Plan(), "AtomicCounter"},
		{LongAdder(), dego.Must(dego.Counter(dego.Blind(),
			dego.Capacity(runtime.GOMAXPROCS(0)))).Plan(), "Adder"},
		{CounterIncrementOnly(), dego.Must(dego.Counter(dego.Blind(), dego.SingleReader(),
			dego.On(reg))).Plan(), "IncrementOnlyCounter"},
		{CounterGuarded(), dego.Must(dego.Counter(dego.Blind(), dego.SingleReader(), dego.Checked(),
			dego.On(reg))).Plan(), "IncrementOnlyCounter"},
		{HashMapJUC(), dego.Must(dego.Map[int, *int](dego.Stripes(256),
			dego.Capacity(cfg.InitialItems))).Plan(), "StripedMap"},
		{HashMapDEGO(), dego.Must(dego.Map[int, int](dego.CommutingWriters(), dego.On(reg),
			dego.Capacity(cfg.InitialItems), dego.Buckets(cfg.KeyRange*2))).Plan(), "SegmentedMap"},
		{SegExtended(), dego.Must(dego.Map[int, int](dego.CommutingWriters(), dego.On(reg),
			dego.Capacity(cfg.InitialItems), dego.Buckets(cfg.KeyRange*2))).Plan(), "SegmentedMap"},
		{FlatShardedMap(), dego.Must(dego.Map[int, int](dego.CommutingWriters(), dego.On(reg),
			dego.Capacity(cfg.KeyRange))).Plan(), "FlatMap"},
		{SkipListJUC(), dego.Must(dego.Ordered[int, int]()).Plan(), "ConcurrentSkipList"},
		{SkipListDEGO(), dego.Must(dego.Ordered[int, int](dego.CommutingWriters(), dego.On(reg),
			dego.Buckets(cfg.KeyRange*2))).Plan(), "SegmentedSkipList"},
		{ReferenceJUC(), dego.Must(dego.Ref(&v)).Plan(), "AtomicRef"},
		{ReferenceDEGO(), dego.Must(dego.Ref[int](nil, dego.WriteOnce(), dego.On(reg))).Plan(), "WriteOnceRef"},
		{QueueJUC(), dego.Must(dego.Queue[int]()).Plan(), "MSQueue"},
		{QueueDEGO(), dego.Must(dego.Queue[int](dego.SingleReader())).Plan(), "MPSCQueue"},
	} {
		if c.plan.Rep != c.rep || c.plan.Adaptive {
			t.Errorf("%s: declaration plans %v, the workload builds %s", c.wl.Name, c.plan, c.rep)
		}
	}
}

// TestHotRangeWorkloadsRun exercises the skewed hot-range pair (the Figure 7
// per-range-vs-wholesale comparison) in op-count mode: both variants must
// complete with exact op counts at a read-heavy ratio, whatever the hardware
// does to their relative throughput.
func TestHotRangeWorkloadsRun(t *testing.T) {
	for _, wl := range []Workload{AdaptiveMapHotWholesale(), AdaptiveMapHotPerRange()} {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			t.Parallel()
			cfg := tinyConfig(4)
			cfg.UpdateRatio = 25
			res := Run(wl, cfg)
			if res.Ops != 4*2000 {
				t.Fatalf("ops = %d, want %d", res.Ops, 4*2000)
			}
		})
	}
}

func TestTimeModeStops(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Threads = 2
	cfg.Duration = 30 * time.Millisecond
	cfg.Warmup = 0
	start := time.Now()
	res := Run(CounterIncrementOnly(), cfg)
	if time.Since(start) > 5*time.Second {
		t.Fatal("time mode did not stop promptly")
	}
	if res.Ops == 0 {
		t.Fatal("no operations recorded")
	}
}

func TestSweepShape(t *testing.T) {
	threads := []int{1, 2, 4}
	results := Sweep(CounterJUC(), tinyConfig(1), threads)
	if len(results) != len(threads) {
		t.Fatalf("sweep returned %d results", len(results))
	}
	for i, r := range results {
		if r.Threads != threads[i] {
			t.Fatalf("result %d has threads=%d", i, r.Threads)
		}
	}
}

func TestPearsonThroughputStalls(t *testing.T) {
	// Synthesize the paper's shape: throughput falls while stalls rise.
	results := []Result{
		{Ops: 1000000, Elapsed: time.Second, Threads: 1, Stalls: 10},
		{Ops: 1500000, Elapsed: time.Second, Threads: 2, Stalls: 4000},
		{Ops: 1700000, Elapsed: time.Second, Threads: 4, Stalls: 30000},
		{Ops: 1800000, Elapsed: time.Second, Threads: 8, Stalls: 220000},
	}
	r, err := PearsonThroughputStalls(results)
	if err != nil {
		t.Fatal(err)
	}
	if r > -0.5 {
		t.Fatalf("pearson = %v, want strongly negative", r)
	}
}

func TestThreadKeysPartition(t *testing.T) {
	cfg := tinyConfig(4)
	keys := threadKeys(cfg)
	seen := map[int]bool{}
	total := 0
	for _, part := range keys {
		for _, k := range part {
			if seen[k] {
				t.Fatalf("key %d in two partitions", k)
			}
			seen[k] = true
			total++
		}
	}
	if total != cfg.KeyRange {
		t.Fatalf("partitioned %d keys, want %d", total, cfg.KeyRange)
	}
}

func TestFigurePrinters(t *testing.T) {
	if testing.Short() {
		t.Skip("figure smoke test")
	}
	cfg := DefaultConfig()
	cfg.OpsPerThread = 300
	cfg.InitialItems = 256
	cfg.KeyRange = 512
	threads := []int{1, 2}

	var sb strings.Builder
	Figure6(&sb, cfg, threads, true)
	out := sb.String()
	for _, want := range []string{"Figure 6", "CounterIncrementOnly", "QueueMASP",
		"AtomicWriteOnceReference", "ExtendedSegmentedHashMap", "ConcurrentSkipListMap",
		"AdaptiveMap"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure6 output missing %q", want)
		}
	}

	sb.Reset()
	Figure7(&sb, cfg, threads, []int{25, 100})
	out = sb.String()
	if !strings.Contains(out, "25% updates") || !strings.Contains(out, "100% updates") {
		t.Error("Figure7 output missing ratio tables")
	}
	for _, want := range []string{"AdaptiveMapHotWholesale", "AdaptiveMapHotPerRange"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure7 output missing the hot-range workload %q", want)
		}
	}

	sb.Reset()
	Figure8(&sb, cfg, threads)
	out = sb.String()
	if !strings.Contains(out, "16K initial items") || !strings.Contains(out, "64K initial items") {
		t.Error("Figure8 output missing working-set tables")
	}

	sb.Reset()
	got := FigureHotRange(&sb, cfg, threads)
	out = sb.String()
	for _, want := range []string{"Hot-range skew", "AdaptiveMapHotWholesale", "AdaptiveMapHotPerRange"} {
		if !strings.Contains(out, want) {
			t.Errorf("FigureHotRange output missing %q", want)
		}
	}
	// Titles must stay distinct per scale (a rounded %dK title would collide
	// for sub-1K smoke configs and drop sweeps from the JSON artifact).
	if len(got) != 3 {
		t.Errorf("FigureHotRange returned %d scale sections, want 3", len(got))
	}
}

func TestFormatTableAlignsSeries(t *testing.T) {
	series := map[string][]Result{
		"b-obj": {{Ops: 100, Elapsed: time.Second, Threads: 1}},
		"a-obj": {{Ops: 200, Elapsed: time.Second, Threads: 1}},
	}
	out := FormatTable("T", series, []int{1})
	ai, bi := strings.Index(out, "a-obj"), strings.Index(out, "b-obj")
	if ai == -1 || bi == -1 || ai > bi {
		t.Fatalf("table rows unordered:\n%s", out)
	}
}

func TestAblationWorkloadsRun(t *testing.T) {
	for _, wl := range []Workload{
		SegBase(), SegHash(), SegExtended(), CounterUnpadded(), CounterGuarded(),
	} {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			t.Parallel()
			res := Run(wl, tinyConfig(4))
			if res.Ops != 4*2000 {
				t.Fatalf("ops = %d", res.Ops)
			}
		})
	}
}

func TestAblationsPrinter(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation smoke test")
	}
	cfg := DefaultConfig()
	cfg.OpsPerThread = 200
	cfg.InitialItems = 256
	cfg.KeyRange = 512
	var sb strings.Builder
	Ablations(&sb, cfg, []int{1, 2})
	out := sb.String()
	for _, want := range []string{"Ablation 1", "BaseSegmentation", "HashSegmentation",
		"ExtendedSegmentation", "CounterUnpadded", "CounterGuarded"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation output missing %q", want)
		}
	}
}

// TestPearsonNegativeOnContendedCounter validates the §6.2 methodology: a
// sweep whose per-thread throughput falls while its stall proxy rises must
// come out anti-correlated. The assertion is on a fixed sweep with a known
// coefficient — per-thread throughput 4, 3, 1, 2 Kops/s against stalls
// 1000, 2000, 3000, 4000 (one of them recorded as mutex wait) is exactly
// −0.8 — because what a live sweep measures depends on who else is using the
// machine. The live CAS-counter sweep still runs outside -short, and its
// coefficient is logged for the curious (the paper reports −0.93).
func TestPearsonNegativeOnContendedCounter(t *testing.T) {
	fixed := []Result{
		{Threads: 1, Ops: 4000, Elapsed: time.Second, Stalls: 1000},
		{Threads: 2, Ops: 6000, Elapsed: time.Second, Stalls: 2000},
		{Threads: 4, Ops: 4000, Elapsed: time.Second, Runtime: contention.Runtime{MutexSec: 3e-6}},
		{Threads: 8, Ops: 16000, Elapsed: time.Second, Stalls: 4000},
	}
	r, err := PearsonThroughputStalls(fixed)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-(-0.8)) > 1e-9 {
		t.Errorf("pearson of the fixed sweep = %v, want -0.8", r)
	}

	if testing.Short() {
		return
	}
	cfg := DefaultConfig()
	cfg.Duration = 60 * time.Millisecond
	cfg.Warmup = 10 * time.Millisecond
	results := Sweep(CounterJUC(), cfg, []int{1, 2, 4, 8})
	var totalStalls int64
	for _, res := range results {
		totalStalls += res.Stalls
	}
	if live, err := PearsonThroughputStalls(results); err != nil {
		t.Logf("live sweep: %d CAS failures, no coefficient: %v", totalStalls, err)
	} else {
		t.Logf("live sweep: %d CAS failures, pearson = %+.2f", totalStalls, live)
	}
}

// TestRunContract pins what Run promises a workload, which the Retwis
// program's DAP partition (h.ID() mod Threads) relies on: worker tid runs on
// handle id tid, the first handle Setup registers has id Threads, and
// op-count mode runs exactly OpsPerThread operations on each worker.
func TestRunContract(t *testing.T) {
	for _, threads := range []int{1, 4} {
		cfg := tinyConfig(threads)
		firstSetupID := -1
		ids := make([]int, threads)
		counts := make([]int, threads)
		res := Run(Workload{Name: "contract", Setup: func(cfg Config, reg *core.Registry) (OpFunc, *contention.Probe) {
			firstSetupID = reg.MustRegister().ID()
			return func(tid int, h *core.Handle, _ *rand.Rand) {
				ids[tid] = h.ID()
				counts[tid]++
			}, nil
		}}, cfg)
		if firstSetupID != threads {
			t.Errorf("threads=%d: the first handle Setup registered has id %d, want %d", threads, firstSetupID, threads)
		}
		for tid := range threads {
			if ids[tid] != tid {
				t.Errorf("threads=%d: worker %d ran on handle id %d", threads, tid, ids[tid])
			}
			if counts[tid] != cfg.OpsPerThread {
				t.Errorf("threads=%d: worker %d ran %d ops, want %d", threads, tid, counts[tid], cfg.OpsPerThread)
			}
		}
		if want := int64(threads * cfg.OpsPerThread); res.Ops != want {
			t.Errorf("threads=%d: Result.Ops = %d, want %d", threads, res.Ops, want)
		}
	}
}

package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sync/atomic"

	"github.com/adjusted-objects/dego"
	"github.com/adjusted-objects/dego/internal/contention"
	"github.com/adjusted-objects/dego/internal/core"
	"github.com/adjusted-objects/dego/internal/hashmap"
)

// Ablations isolate the paper's design decisions: which segmentation to use
// (§5.2 offers three), whether cache-line padding matters (the
// write-amplification trade-off of §8), and what the runtime permission
// guards cost.

// SegBase benchmarks the BaseSegmentation map: cheap writes, O(#segments)
// lookups.
func SegBase() Workload {
	return Workload{Name: "BaseSegmentation", Setup: func(cfg Config, reg *core.Registry) (OpFunc, *contention.Probe) {
		m := hashmap.NewBaseSegmented[int, int](reg, cfg.InitialItems/max(cfg.Threads, 1)+16, intHash, false)
		keys := threadKeys(cfg)
		return func(tid int, h *core.Handle, rng *rand.Rand) {
			mine := keys[tid]
			if len(mine) == 0 {
				return
			}
			if int(rng.Int31n(100)) < cfg.UpdateRatio {
				m.Put(h, mine[rng.Intn(len(mine))], tid)
			} else {
				m.Get(rng.Intn(cfg.KeyRange))
			}
		}, nil
	}}
}

// SegHash benchmarks the HashSegmentation map: one-segment lookups, writes
// routed by hash.
func SegHash() Workload {
	return Workload{Name: "HashSegmentation", Setup: func(cfg Config, reg *core.Registry) (OpFunc, *contention.Probe) {
		m := hashmap.NewHashSegmented[int, int](cfg.Threads, cfg.InitialItems/max(cfg.Threads, 1)+16, intHash, false)
		// Partition keys by the map's own segment routing so each worker is
		// the single writer of the segments it touches.
		keys := make([][]int, cfg.Threads)
		segOwner := make(map[int]int) // segment -> owning tid
		for k := 0; k < cfg.KeyRange; k++ {
			seg := m.SegmentOf(k)
			tid, ok := segOwner[seg]
			if !ok {
				tid = seg % cfg.Threads
				segOwner[seg] = tid
			}
			keys[tid] = append(keys[tid], k)
		}
		return func(tid int, h *core.Handle, rng *rand.Rand) {
			mine := keys[tid]
			if len(mine) == 0 {
				return
			}
			if int(rng.Int31n(100)) < cfg.UpdateRatio {
				m.Put(h, mine[rng.Intn(len(mine))], tid)
			} else {
				m.Get(rng.Intn(cfg.KeyRange))
			}
		}, nil
	}}
}

// SegExtended benchmarks hashmap.Segmented, HashMapDEGO's structure, under
// the same routed workload as the other two rows: one node per key, whose
// owner field is the extended segmentation's binding of the key to the thread
// that first stored it.
func SegExtended() Workload {
	return Workload{Name: "ExtendedSegmentation", Setup: func(cfg Config, reg *core.Registry) (OpFunc, *contention.Probe) {
		m := dego.Must(dego.Map[int, int](dego.CommutingWriters(), dego.On(reg),
			dego.Capacity(cfg.InitialItems), dego.Buckets(cfg.KeyRange*2))).Representation().(*dego.SegmentedMap[int, int])
		keys := threadKeys(cfg)
		return func(tid int, h *core.Handle, rng *rand.Rand) {
			mine := keys[tid]
			if len(mine) == 0 {
				return
			}
			if int(rng.Int31n(100)) < cfg.UpdateRatio {
				m.Put(h, mine[rng.Intn(len(mine))], tid)
			} else {
				m.Get(rng.Intn(cfg.KeyRange))
			}
		}, nil
	}}
}

// unpaddedCells is the IncrementOnly counter with the padding removed: all
// cells share cache lines, so owner-only writes still collide in hardware —
// the false-sharing failure mode the padding exists to prevent.
type unpaddedCells struct {
	cells []atomic.Int64
}

// CounterUnpadded benchmarks the false-sharing strawman.
func CounterUnpadded() Workload {
	return Workload{Name: "CounterUnpadded", Setup: func(cfg Config, reg *core.Registry) (OpFunc, *contention.Probe) {
		c := &unpaddedCells{cells: make([]atomic.Int64, reg.Capacity())}
		return func(tid int, h *core.Handle, rng *rand.Rand) {
			cell := &c.cells[h.ID()]
			cell.Store(cell.Load() + 1)
		}, nil
	}}
}

// CounterGuarded benchmarks IncrementOnly with the CWSR guard enabled, to
// price the runtime permission checking.
func CounterGuarded() Workload {
	return Workload{Name: "CounterGuarded", Setup: func(cfg Config, reg *core.Registry) (OpFunc, *contention.Probe) {
		c := dego.Must(dego.Counter(dego.Blind(), dego.SingleReader(), dego.Checked(),
			dego.On(reg))).Representation().(*dego.IncrementOnlyCounter)
		return func(tid int, h *core.Handle, rng *rand.Rand) {
			c.Inc(h)
		}, nil
	}}
}

// Ablations runs the three studies and prints their tables.
func Ablations(w io.Writer, base Config, threads []int) {
	fmt.Fprintf(w, "=== Ablation 1: segmentation forms (§5.2), %d%% updates ===\n\n", base.UpdateRatio)
	series := map[string][]Result{}
	for _, wl := range []Workload{SegBase(), SegHash(), SegExtended()} {
		series[wl.Name] = Sweep(wl, base, threads)
	}
	fmt.Fprint(w, FormatTable("segmentations", series, threads))
	fmt.Fprintln(w)

	readHeavy := base
	readHeavy.UpdateRatio = 10
	fmt.Fprintf(w, "=== Ablation 1b: segmentation forms, 10%% updates ===\n\n")
	series = map[string][]Result{}
	for _, wl := range []Workload{SegBase(), SegHash(), SegExtended()} {
		series[wl.Name] = Sweep(wl, readHeavy, threads)
	}
	fmt.Fprint(w, FormatTable("segmentations (read-heavy)", series, threads))
	fmt.Fprintln(w)

	fmt.Fprintf(w, "=== Ablation 2: cache-line padding (false sharing) ===\n\n")
	series = map[string][]Result{}
	for _, wl := range []Workload{CounterIncrementOnly(), CounterUnpadded()} {
		series[wl.Name] = Sweep(wl, base, threads)
	}
	fmt.Fprint(w, FormatTable("padding", series, threads))
	fmt.Fprintln(w)

	fmt.Fprintf(w, "=== Ablation 3: permission-guard overhead ===\n\n")
	series = map[string][]Result{}
	for _, wl := range []Workload{CounterIncrementOnly(), CounterGuarded()} {
		series[wl.Name] = Sweep(wl, base, threads)
	}
	fmt.Fprint(w, FormatTable("guards", series, threads))
	fmt.Fprintln(w)
}

package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sync/atomic"

	"github.com/adjusted-objects/dego/internal/contention"
	"github.com/adjusted-objects/dego/internal/core"
	"github.com/adjusted-objects/dego/internal/counter"
	"github.com/adjusted-objects/dego/internal/hashmap"
)

// Ablations isolate the paper's design decisions: which segmentation to use
// (§5.2 offers three), whether cache-line padding matters (the
// write-amplification trade-off of §8), and what the runtime permission
// guards cost.

// routedMap is what the segmentation ablation calls on each form.
type routedMap interface {
	Put(h *core.Handle, key, val int)
	Get(key int) (int, bool)
}

// routedOps is the segmentation ablation's workload over m: an update puts
// one of the worker's own keys (keys[tid]), so each key has one writer, and
// a read looks up a random key.
func routedOps(cfg Config, m routedMap, keys [][]int) OpFunc {
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
	}
}

// SegBase benchmarks the BaseSegmentation map: cheap writes, O(#segments)
// lookups.
func SegBase() Workload {
	return Workload{Name: "BaseSegmentation", Setup: func(cfg Config, reg *core.Registry) (OpFunc, *contention.Probe) {
		m := hashmap.NewBaseSegmented[int, int](reg, cfg.InitialItems/max(cfg.Threads, 1)+16, intHash, false)
		return routedOps(cfg, m, threadKeys(cfg)), nil
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
		return routedOps(cfg, m, keys), nil
	}}
}

// SegExtended benchmarks hashmap.Segmented, HashMapDEGO's structure, under
// the same routed workload as the other two rows: one node per key, whose
// owner field is the extended segmentation's binding of the key to the thread
// that first stored it.
func SegExtended() Workload {
	return Workload{Name: "ExtendedSegmentation", Setup: func(cfg Config, reg *core.Registry) (OpFunc, *contention.Probe) {
		m := hashmap.NewSegmented[int, int](reg, cfg.InitialItems, cfg.KeyRange*2, intHash, false)
		return routedOps(cfg, m, threadKeys(cfg)), nil
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
		c := counter.NewIncrementOnly(reg, true)
		return func(tid int, h *core.Handle, rng *rand.Rand) {
			c.Inc(h)
		}, nil
	}}
}

// Ablations runs the three studies and prints their tables.
func Ablations(w io.Writer, base Config, threads []int) {
	segmentations := []Workload{SegBase(), SegHash(), SegExtended()}
	fmt.Fprintf(w, "=== Ablation 1: segmentation forms (§5.2), %d%% updates ===\n\n", base.UpdateRatio)
	sweepTable(w, "segmentations", base, threads, segmentations...)

	readHeavy := base
	readHeavy.UpdateRatio = 10
	fmt.Fprintf(w, "=== Ablation 1b: segmentation forms, 10%% updates ===\n\n")
	sweepTable(w, "segmentations (read-heavy)", readHeavy, threads, segmentations...)

	fmt.Fprintf(w, "=== Ablation 2: cache-line padding (false sharing) ===\n\n")
	sweepTable(w, "padding", base, threads, CounterIncrementOnly(), CounterUnpadded())

	fmt.Fprintf(w, "=== Ablation 3: permission-guard overhead ===\n\n")
	sweepTable(w, "guards", base, threads, CounterIncrementOnly(), CounterGuarded())
}

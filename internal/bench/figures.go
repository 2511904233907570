package bench

import (
	"fmt"
	"io"
)

// This file regenerates the data behind Figures 6, 7 and 8 of the paper.
// Each Figure function prints the human-readable tables to w and returns the
// measured series (section title → object name → one Result per thread
// count) so callers — the CI bench-smoke job in particular — can persist the
// raw data as JSON.

// sweepTable sweeps each workload under cfg across the thread counts,
// prints the results as one table titled title and a blank line, and
// returns them by workload name. Every figure and ablation table is one call.
func sweepTable(w io.Writer, title string, cfg Config, threads []int, wls ...Workload) map[string][]Result {
	series := map[string][]Result{}
	for _, wl := range wls {
		series[wl.Name] = Sweep(wl, cfg, threads)
	}
	fmt.Fprintln(w, FormatTable(title, series, threads))
	return series
}

// Figure6 runs the five object families under high contention (100%
// updates for the data structures) across the thread sweep and prints one
// table per family. With pearson set, it also prints the correlation
// between throughput and the stall proxy for the probed (JUC) objects.
func Figure6(w io.Writer, base Config, threads []int, pearson bool) map[string]map[string][]Result {
	base.UpdateRatio = 100
	out := map[string]map[string][]Result{}
	fmt.Fprintf(w, "=== Figure 6: DEGO vs JUC under high contention ===\n")
	fmt.Fprintf(w, "(initial=%d items, range=%d, duration=%v/point)\n\n",
		base.InitialItems, base.KeyRange, base.Duration)
	for _, family := range []string{"Counter", "HashMap", "SkipListMap", "Reference", "Queue"} {
		series := sweepTable(w, family, base, threads, Figure6Families()[family]...)
		out[family] = series
		if pearson {
			for name, results := range series {
				if r, err := PearsonThroughputStalls(results); err == nil {
					fmt.Fprintf(w, "  pearson(throughput, stalls) %s = %+.2f\n", name, r)
				}
			}
			fmt.Fprintln(w)
		}
	}
	return out
}

// Figure7 varies the update ratio for the hash table (Unordered) and the
// skip list (Ordered), printing one table per ratio. The sweep includes the
// skewed hot-range pair (AdaptiveMapHotWholesale vs AdaptiveMapHotPerRange):
// identical key skew — updates concentrated on one hash-prefix bucket,
// reads on the cold buckets — differing only in promotion granularity, so
// their gap at read-heavy ratios is the cold-range read tax of wholesale
// promotion that the per-range directory removes.
func Figure7(w io.Writer, base Config, threads []int, ratios []int) map[string]map[string][]Result {
	out := map[string]map[string][]Result{}
	fmt.Fprintf(w, "=== Figure 7: varying the update ratio ===\n\n")
	for _, ratio := range ratios {
		cfg := base
		cfg.UpdateRatio = ratio
		title := fmt.Sprintf("%d%% updates", ratio)
		out[title] = sweepTable(w, title, cfg, threads, HashMapJUC(), HashMapDEGO(), AdaptiveMap(),
			AdaptiveMapHotWholesale(), AdaptiveMapHotPerRange(), SkipListJUC(), SkipListDEGO())
	}
	return out
}

// Figure8 varies the working set of the hash tables at 75% updates:
// 16K/32K, 32K/64K and 64K/128K initial items / key range.
func Figure8(w io.Writer, base Config, threads []int) map[string]map[string][]Result {
	out := map[string]map[string][]Result{}
	fmt.Fprintf(w, "=== Figure 8: varying the working set (75%% updates) ===\n\n")
	for _, scale := range []int{1, 2, 4} {
		cfg := base
		cfg.UpdateRatio = 75
		cfg.InitialItems = (16 << 10) * scale
		cfg.KeyRange = (32 << 10) * scale
		title := fmt.Sprintf("%dK initial items", cfg.InitialItems>>10)
		out[title] = sweepTable(w, title, cfg, threads, HashMapJUC(), HashMapDEGO())
	}
	return out
}

// FigureFlat is the flat-family evaluation: the planner's flat pick
// (FlatShardedMap) against the lock-striped baseline, the extended-
// segmented map and sync.Map, at a mixed ratio (30% updates) with keys
// drawn randomly per operation, swept over working-set scale. The scales
// follow the intmap-exemplar methodology: at the base working set the slot
// array sits below L2 and every representation is cache-resident; at 4× it
// is L3-resident; at 32× the structures outgrow L3 on typical parts and
// each probe is DRAM-bound — where the flat layout's single contiguous
// probe sequence (no node-chain pointer chase, no per-entry box) should
// separate from the node-based representations. When base.InitialItems is
// tiny (CI smoke), the scaling keeps the run cheap; the table is then a
// harness check, not a measurement.
func FigureFlat(w io.Writer, base Config, threads []int) map[string]map[string][]Result {
	out := map[string]map[string][]Result{}
	fmt.Fprintf(w, "=== Flat family: open-addressing vs node-based maps (30%% updates, randomized keys) ===\n\n")
	for _, scale := range []int{1, 4, 32} {
		cfg := base
		cfg.UpdateRatio = 30
		cfg.InitialItems = base.InitialItems * scale
		cfg.KeyRange = base.KeyRange * scale
		// Raw count, as FigureHotRange: sub-1K smoke bases would collide on
		// a rounded "0K" title.
		title := fmt.Sprintf("%d initial items", cfg.InitialItems)
		out[title] = sweepTable(w, title, cfg, threads, FlatShardedMap(), HashMapJUC(), HashMapDEGO(), SyncMap())
	}
	return out
}

// FigureHotRange is the per-range directory evaluation: the skewed
// hot-range pair (identical skew, wholesale vs per-range promotion) swept
// over working-set scale at a read-heavy ratio (10% updates, all of them in
// the hot range). The overlay tax wholesale promotion puts on cold reads is
// one extra hash probe into the (empty) shadow, so the gap tracks the
// memory hierarchy: negligible while the shadow directory is cache-resident
// at the base working set, it widens as the structures outgrow the caches
// and the wasted probe becomes a second DRAM-class miss per cold read —
// exactly the working-set axis of Figure 8. Per-range promotion deletes
// that probe (cold ranges never leave the cheap rep) at every scale. When
// base.InitialItems is tiny (CI smoke), the scaling keeps the run cheap;
// the table is then a harness check, not a measurement.
func FigureHotRange(w io.Writer, base Config, threads []int) map[string]map[string][]Result {
	out := map[string]map[string][]Result{}
	fmt.Fprintf(w, "=== Hot-range skew: per-range vs wholesale promotion (10%% updates, hot-range writes, cold-range reads) ===\n\n")
	for _, scale := range []int{1, 4, 8} {
		cfg := base
		cfg.UpdateRatio = 10
		cfg.InitialItems = base.InitialItems * scale
		cfg.KeyRange = base.KeyRange * scale
		// The raw count, not Figure8's %dK: the base here is CLI-provided, and
		// sub-1K smoke configs would collide on a rounded "0K" title,
		// silently overwriting a sweep in the returned map and JSON artifact.
		title := fmt.Sprintf("%d initial items", cfg.InitialItems)
		out[title] = sweepTable(w, title, cfg, threads, AdaptiveMapHotWholesale(), AdaptiveMapHotPerRange())
	}
	return out
}

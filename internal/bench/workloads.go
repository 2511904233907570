package bench

import (
	"math/rand"
	"runtime"
	"sync"

	"github.com/adjusted-objects/dego"
	"github.com/adjusted-objects/dego/internal/contention"
	"github.com/adjusted-objects/dego/internal/core"
	"github.com/adjusted-objects/dego/internal/counter"
	"github.com/adjusted-objects/dego/internal/flatmap"
	"github.com/adjusted-objects/dego/internal/hashmap"
	"github.com/adjusted-objects/dego/internal/queue"
	"github.com/adjusted-objects/dego/internal/ref"
	"github.com/adjusted-objects/dego/internal/skiplist"
	"github.com/adjusted-objects/dego/internal/stats"
)

// This file defines the object workloads of Figures 6-8. Naming follows the
// figure legends. Update operations are commuting, as in §6.2: "each request
// is routed to a particular thread (using, e.g., the hash of the data
// item)" — thread t works on the keys k with Hash64(k) mod Threads == t.
//
// Each DEGO and JUC object is built directly from its internal package,
// with the arguments the planner passes for the declaration the figure
// legend implies (TestFigureDeclarations pins that the declaration still
// plans that representation), so the sweep measures the object, not the
// facade's indirection. The adaptive objects are declared through the
// public profile API and the hot loop runs on what Adaptive returns.

func intHash(k int) uint64 { return stats.Hash64(uint64(k)) }

// threadKeys partitions the key range among threads by hash routing.
func threadKeys(cfg Config) [][]int {
	keys := make([][]int, cfg.Threads)
	for k := 0; k < cfg.KeyRange; k++ {
		t := int(intHash(k) % uint64(cfg.Threads))
		keys[t] = append(keys[t], k)
	}
	return keys
}

// --- Counters (Figure 6: threads repeatedly call incrementAndGet) ---------

// CounterJUC is the AtomicLong baseline.
func CounterJUC() Workload {
	return Workload{Name: "CounterJUC", Setup: func(cfg Config, reg *core.Registry) (OpFunc, *contention.Probe) {
		probe := new(contention.Probe)
		c := counter.NewAtomic(probe)
		return func(tid int, h *core.Handle, rng *rand.Rand) {
			c.IncrementAndGet()
		}, probe
	}}
}

// LongAdder is the striped-CAS adder.
func LongAdder() Workload {
	return Workload{Name: "LongAdder", Setup: func(cfg Config, reg *core.Registry) (OpFunc, *contention.Probe) {
		probe := new(contention.Probe)
		// LongAdder grows its cell array up to the number of CPUs
		// (Striped64); beyond that, threads share cells and CAS-retry.
		c := counter.NewAdder(runtime.GOMAXPROCS(0), probe)
		return func(tid int, h *core.Handle, rng *rand.Rand) {
			c.Inc(h)
		}, probe
	}}
}

// CounterIncrementOnly is the adjusted counter (C3, CWSR).
func CounterIncrementOnly() Workload {
	return Workload{Name: "CounterIncrementOnly", Setup: func(cfg Config, reg *core.Registry) (OpFunc, *contention.Probe) {
		c := counter.NewIncrementOnly(reg, false)
		return func(tid int, h *core.Handle, rng *rand.Rand) {
			c.Inc(h)
		}, nil
	}}
}

// --- Hash maps (Figures 6, 7, 8) -------------------------------------------

// mapOps builds the §6.2 mixed workload over a put/remove/get interface:
// updates split evenly between adds and removes on the caller's own keys;
// reads look up a random key. Values are pointers made up front
// (valueBoxes) and stored as they are, so neither side of the DEGO/JUC
// comparison allocates per operation — matching Java, where both maps store
// references the caller created.
func mapOps(cfg Config, put func(h *core.Handle, k int), remove func(h *core.Handle, k int),
	get func(k int)) OpFunc {
	keys := threadKeys(cfg)
	return func(tid int, h *core.Handle, rng *rand.Rand) {
		mine := keys[tid]
		if len(mine) == 0 {
			return
		}
		if int(rng.Int31n(100)) < cfg.UpdateRatio {
			k := mine[rng.Intn(len(mine))]
			if rng.Intn(2) == 0 {
				put(h, k)
			} else {
				remove(h, k)
			}
		} else {
			get(rng.Intn(cfg.KeyRange))
		}
	}
}

// valueBoxes pre-allocates one value pointer per key.
func valueBoxes(cfg Config) []*int {
	boxes := make([]*int, cfg.KeyRange)
	for i := range boxes {
		v := i
		boxes[i] = &v
	}
	return boxes
}

// populate inserts the initial items (uniformly drawn, as in §6.2) through
// the provided put.
func populate(cfg Config, put func(k int)) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < cfg.InitialItems; i++ {
		put(rng.Intn(cfg.KeyRange))
	}
}

// populatePartitions inserts the initial items as populate does, but
// respecting the CWMR routing: through one priming handle per thread
// partition, so each initial key binds to the segment that partition's
// worker (and only that worker) will keep writing. The priming handles stay
// registered for the run: releasing them would let a worker reuse an id and
// alias another partition's segment.
func populatePartitions(cfg Config, reg *core.Registry, put func(h *core.Handle, k int)) {
	handles := make([]*core.Handle, cfg.Threads)
	for t := range handles {
		handles[t] = reg.MustRegister()
	}
	populate(cfg, func(k int) { put(handles[intHash(k)%uint64(cfg.Threads)], k) })
}

// HashMapJUC is the ConcurrentHashMap stand-in (lock-striped buckets).
func HashMapJUC() Workload {
	return Workload{Name: "ConcurrentHashMap", Setup: func(cfg Config, reg *core.Registry) (OpFunc, *contention.Probe) {
		probe := new(contention.Probe)
		m := hashmap.NewStriped[int, *int](256, cfg.InitialItems, intHash, probe)
		boxes := valueBoxes(cfg)
		populate(cfg, func(k int) { m.Put(k, boxes[k]) })
		return mapOps(cfg,
			func(_ *core.Handle, k int) { m.Put(k, boxes[k]) },
			func(_ *core.Handle, k int) { m.Remove(k) },
			func(k int) { m.Get(k) },
		), probe
	}}
}

// HashMapDEGO is the ExtendedSegmentedHashMap (M2, CWMR).
func HashMapDEGO() Workload {
	return Workload{Name: "ExtendedSegmentedHashMap", Setup: func(cfg Config, reg *core.Registry) (OpFunc, *contention.Probe) {
		m := hashmap.NewSegmented[int, *int](reg, cfg.InitialItems, cfg.KeyRange*2, intHash, false)
		boxes := valueBoxes(cfg)
		populatePartitions(cfg, reg, func(h *core.Handle, k int) { m.Put(h, k, boxes[k]) })
		return mapOps(cfg,
			func(h *core.Handle, k int) { m.Put(h, k, boxes[k]) },
			func(h *core.Handle, k int) { m.Remove(h, k) },
			func(k int) { m.Get(k) },
		), nil
	}}
}

// AdaptiveMap is the contention-adaptive hash map: lock-striped until the
// windowed lock-wait rate crosses the promotion threshold, extended-segmented
// afterwards. Population goes through a single priming handle — it stays in
// the cheap striped representation, and each key is re-homed by its owning
// partition's worker on its first post-promotion write (the lazy drain).
func AdaptiveMap() Workload {
	return Workload{Name: "AdaptiveMap", Setup: func(cfg Config, reg *core.Registry) (OpFunc, *contention.Probe) {
		m := dego.Must(dego.Map[int, int](dego.CommutingWriters(), dego.Adaptive(), dego.On(reg),
			dego.Stripes(256), dego.Capacity(cfg.InitialItems), dego.Buckets(cfg.KeyRange*2))).Adaptive()
		boxes := valueBoxes(cfg)
		prime := reg.MustRegister()
		populate(cfg, func(k int) { m.PutRef(prime, k, boxes[k]) })
		return mapOps(cfg,
			func(h *core.Handle, k int) { m.PutRef(h, k, boxes[k]) },
			func(h *core.Handle, k int) { m.Remove(h, k) },
			func(k int) { m.Get(k) },
		), m.Probe()
	}}
}

// --- Skip lists (Figures 6, 7) ---------------------------------------------

// SkipListJUC is the ConcurrentSkipListMap stand-in (lock-free CAS list).
func SkipListJUC() Workload {
	return Workload{Name: "ConcurrentSkipListMap", Setup: func(cfg Config, reg *core.Registry) (OpFunc, *contention.Probe) {
		probe := new(contention.Probe)
		m := skiplist.NewConcurrent[int, *int](probe)
		boxes := valueBoxes(cfg)
		populate(cfg, func(k int) { m.Put(k, boxes[k]) })
		return mapOps(cfg,
			func(_ *core.Handle, k int) { m.Put(k, boxes[k]) },
			func(_ *core.Handle, k int) { m.Remove(k) },
			func(k int) { m.Get(k) },
		), probe
	}}
}

// SkipListDEGO is the ExtendedSegmentedSkipListMap.
func SkipListDEGO() Workload {
	return Workload{Name: "ExtendedSegmentedSkipListMap", Setup: func(cfg Config, reg *core.Registry) (OpFunc, *contention.Probe) {
		m := skiplist.NewSegmented[int, *int](reg, cfg.KeyRange*2, intHash, false)
		boxes := valueBoxes(cfg)
		populatePartitions(cfg, reg, func(h *core.Handle, k int) { m.Put(h, k, boxes[k]) })
		return mapOps(cfg,
			func(h *core.Handle, k int) { m.Put(h, k, boxes[k]) },
			func(h *core.Handle, k int) { m.Remove(h, k) },
			func(k int) { m.Get(k) },
		), nil
	}}
}

// --- Flat representations (flat figure) ------------------------------------

// FlatShardedMap is the planner's flat pick for an integer-keyed commuting
// profile with a declared capacity: padded per-shard open-addressing tables,
// key and value inline in the slot array — no per-entry boxes for the GC to
// trace and no node-chain pointer chases on the probe path. Capacity covers
// the whole key range so the sweep measures steady-state probing, never a
// mid-run table growth.
func FlatShardedMap() Workload {
	return Workload{Name: "FlatShardedMap", Setup: func(cfg Config, reg *core.Registry) (OpFunc, *contention.Probe) {
		m := flatmap.NewSharded[int](flatmap.DefaultShards(), cfg.KeyRange)
		populate(cfg, func(k int) { m.Put(uint64(k), k) })
		return mapOps(cfg,
			func(_ *core.Handle, k int) { m.Put(uint64(k), k) },
			func(_ *core.Handle, k int) { m.Remove(uint64(k)) },
			func(k int) { m.Get(uint64(k)) },
		), nil
	}}
}

// SyncMap is the sync.Map baseline of the flat figure: the standard
// library's concurrent map, boxed values (pre-allocated, as valueBoxes —
// the comparison is about representation, not per-op allocation) and
// interface-typed entries on every path.
func SyncMap() Workload {
	return Workload{Name: "sync.Map", Setup: func(cfg Config, reg *core.Registry) (OpFunc, *contention.Probe) {
		var m sync.Map
		boxes := valueBoxes(cfg)
		populate(cfg, func(k int) { m.Store(k, boxes[k]) })
		return mapOps(cfg,
			func(_ *core.Handle, k int) { m.Store(k, boxes[k]) },
			func(_ *core.Handle, k int) { m.Delete(k) },
			func(k int) { m.Load(k) },
		), nil
	}}
}

// --- Hot-range skew (Figure 7 companion) -----------------------------------

// hotRangeBits carves the key space into 1<<hotRangeBits hash-prefix
// buckets; the bucket at prefix 0 is the hot range. Both variants below use
// the same skew, so the only difference measured is the promotion
// granularity.
const hotRangeBits = 4

// hotRangeMap builds the skewed workload of the per-range directory
// evaluation: every update lands on a key of ONE hash-prefix bucket (the hot
// range, 1/16th of the key space), while reads draw uniformly from the cold
// buckets. The map starts with the hot range already promoted — the
// steady state a write-hot range converges to — so the sweep isolates the
// read cost the promotion imposes on cold keys: under wholesale promotion
// (ranges=1) every cold read pays the shadow-miss-then-backing double
// lookup; under per-range promotion (ranges=1<<hotRangeBits) cold ranges
// stay quiescent and read the striped rep in a single lookup. DemoteSamples
// is effectively disabled so the comparison cannot flap mid-run.
func hotRangeMap(name string, ranges int) Workload {
	return Workload{Name: name, Setup: func(cfg Config, reg *core.Registry) (OpFunc, *contention.Probe) {
		pol := dego.DefaultAdaptivePolicy()
		pol.DemoteSamples = 1 << 30
		m := dego.Must(dego.Map[int, int](dego.CommutingWriters(), dego.Adaptive(dego.WithPolicy(pol), dego.Ranges(ranges)),
			dego.On(reg), dego.Stripes(256), dego.Capacity(cfg.InitialItems),
			dego.Buckets(cfg.KeyRange*2))).Adaptive()
		boxes := valueBoxes(cfg)
		prime := reg.MustRegister()
		populate(cfg, func(k int) { m.PutRef(prime, k, boxes[k]) })

		// Hot keys: hash prefix 0 — identical in both variants, and exactly
		// directory range 0 of the per-range variant. Hot updates are
		// partitioned among threads (CWMR); cold keys serve the reads.
		hot := make([][]int, cfg.Threads)
		var cold []int
		for k := 0; k < cfg.KeyRange; k++ {
			if intHash(k)>>(64-hotRangeBits) == 0 {
				t := int(intHash(k) % uint64(cfg.Threads))
				hot[t] = append(hot[t], k)
			} else {
				cold = append(cold, k)
			}
		}
		if m.Ranges() > 1 {
			m.ForcePromoteRange(0)
		} else {
			m.ForcePromote()
		}
		return func(tid int, h *core.Handle, rng *rand.Rand) {
			if mine := hot[tid]; len(mine) > 0 && int(rng.Int31n(100)) < cfg.UpdateRatio {
				k := mine[rng.Intn(len(mine))]
				if rng.Intn(2) == 0 {
					m.PutRef(h, k, boxes[k])
				} else {
					m.Remove(h, k)
				}
			} else {
				m.Get(cold[rng.Intn(len(cold))])
			}
		}, m.Probe()
	}}
}

// AdaptiveMapHotWholesale is the skewed workload over a single-range
// directory: the hot range's promotion drags every cold key behind the
// overlay.
func AdaptiveMapHotWholesale() Workload {
	return hotRangeMap("AdaptiveMapHotWholesale", 1)
}

// AdaptiveMapHotPerRange is the same skew over a 16-range directory: only
// the hot bucket promotes, cold reads stay single-lookup.
func AdaptiveMapHotPerRange() Workload {
	return hotRangeMap("AdaptiveMapHotPerRange", 1<<hotRangeBits)
}

// --- References (Figure 6: continuous gets once initialized) ---------------

// ReferenceJUC is the AtomicReference baseline.
func ReferenceJUC() Workload {
	return Workload{Name: "AtomicReference", Setup: func(cfg Config, reg *core.Registry) (OpFunc, *contention.Probe) {
		v := 42
		r := ref.NewAtomic(&v)
		return func(tid int, h *core.Handle, rng *rand.Rand) {
			if r.Get() == nil {
				panic("bench: reference lost")
			}
		}, nil
	}}
}

// ReferenceDEGO is the AtomicWriteOnceReference of Listing 1.
func ReferenceDEGO() Workload {
	return Workload{Name: "AtomicWriteOnceReference", Setup: func(cfg Config, reg *core.Registry) (OpFunc, *contention.Probe) {
		w := ref.NewWriteOnce[int](reg)
		init := reg.MustRegister()
		v := 42
		if !w.TrySet(init, &v) {
			panic("bench: init failed")
		}
		return func(tid int, h *core.Handle, rng *rand.Rand) {
			if w.Get(h) == nil {
				panic("bench: reference lost")
			}
		}, nil
	}}
}

// --- Queues (Figure 6: all threads offer, one polls) -----------------------

// QueueJUC is the Michael–Scott baseline (ConcurrentLinkedQueue).
func QueueJUC() Workload {
	return Workload{Name: "ConcurrentLinkedQueue", Setup: func(cfg Config, reg *core.Registry) (OpFunc, *contention.Probe) {
		probe := new(contention.Probe)
		q := queue.NewMS[int](probe)
		for i := 0; i < 1024; i++ {
			q.Offer(i)
		}
		return func(tid int, h *core.Handle, rng *rand.Rand) {
			if tid == 0 && cfg.Threads > 1 {
				q.Poll()
			} else {
				q.Offer(tid)
			}
		}, probe
	}}
}

// QueueDEGO is QueueMASP (Q1, MWSR): multi-producer single-consumer.
func QueueDEGO() Workload {
	return Workload{Name: "QueueMASP", Setup: func(cfg Config, reg *core.Registry) (OpFunc, *contention.Probe) {
		probe := new(contention.Probe)
		q := queue.NewMPSC[int](probe, false)
		seed := reg.MustRegister()
		for i := 0; i < 1024; i++ {
			q.Offer(seed, i)
		}
		return func(tid int, h *core.Handle, rng *rand.Rand) {
			if tid == 0 && cfg.Threads > 1 {
				q.Poll(h)
			} else {
				q.Offer(h, tid)
			}
		}, probe
	}}
}

// Figure6Families lists the five object families of Figure 6, DEGO after
// JUC, with the adaptive map alongside the hash maps so the sweep compares
// static-adjusted against adaptive.
func Figure6Families() map[string][]Workload {
	return map[string][]Workload{
		"Counter":     {CounterJUC(), LongAdder(), CounterIncrementOnly()},
		"HashMap":     {HashMapJUC(), HashMapDEGO(), AdaptiveMap()},
		"SkipListMap": {SkipListJUC(), SkipListDEGO()},
		"Reference":   {ReferenceJUC(), ReferenceDEGO()},
		"Queue":       {QueueJUC(), QueueDEGO()},
	}
}

// Root benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation, thin wrappers over the sweep harnesses in
// internal/bench and internal/retwis. The ns/op column includes setup (the
// harness populates structures inside Run); the ops/s and Kops/s/thread
// metrics reported via ReportMetric are measured over the operation phase
// only and correspond to the paper's axes.
//
// The full parameter sweeps behind each figure are produced by the commands:
//
//	go run ./cmd/dego-bench   -fig all    (Figures 6, 7, 8)
//	go run ./cmd/retwis-bench -fig all    (Figures 9, 10, Table 2)
//	go run ./cmd/miner        -fig all    (Figures 1, 4, 5)
//	go run ./cmd/igraph                   (Figure 2, Figure 3, Table 1)
package dego_test

import (
	"runtime"
	"strconv"
	"testing"

	"github.com/adjusted-objects/dego/internal/bench"
	"github.com/adjusted-objects/dego/internal/igraph"
	"github.com/adjusted-objects/dego/internal/retwis"
	"github.com/adjusted-objects/dego/internal/spec"
)

func runWorkload(b *testing.B, wl bench.Workload, updateRatio, items, keyRange int) {
	b.Helper()
	threads := runtime.GOMAXPROCS(0)
	cfg := bench.DefaultConfig()
	cfg.Threads = threads
	cfg.UpdateRatio = updateRatio
	cfg.InitialItems = items
	cfg.KeyRange = keyRange
	cfg.OpsPerThread = b.N/threads + 1
	res := bench.Run(wl, cfg)
	b.ReportMetric(res.Kops()*1000, "ops/s")
	b.ReportMetric(res.KopsPerThread(), "Kops/s/thread")
}

// --- Figure 6: high contention, DEGO vs JUC --------------------------------

func BenchmarkFig6CounterJUC(b *testing.B) { runWorkload(b, bench.CounterJUC(), 100, 0, 1) }
func BenchmarkFig6CounterLongAdder(b *testing.B) {
	runWorkload(b, bench.LongAdder(), 100, 0, 1)
}
func BenchmarkFig6CounterIncrementOnly(b *testing.B) {
	runWorkload(b, bench.CounterIncrementOnly(), 100, 0, 1)
}

func BenchmarkFig6HashMapJUC(b *testing.B) {
	runWorkload(b, bench.HashMapJUC(), 100, 16<<10, 32<<10)
}
func BenchmarkFig6HashMapDEGO(b *testing.B) {
	runWorkload(b, bench.HashMapDEGO(), 100, 16<<10, 32<<10)
}

func BenchmarkFig6SkipListJUC(b *testing.B) {
	runWorkload(b, bench.SkipListJUC(), 100, 16<<10, 32<<10)
}
func BenchmarkFig6SkipListDEGO(b *testing.B) {
	runWorkload(b, bench.SkipListDEGO(), 100, 16<<10, 32<<10)
}

func BenchmarkFig6ReferenceJUC(b *testing.B) {
	runWorkload(b, bench.ReferenceJUC(), 0, 0, 1)
}
func BenchmarkFig6ReferenceDEGO(b *testing.B) {
	runWorkload(b, bench.ReferenceDEGO(), 0, 0, 1)
}

func BenchmarkFig6QueueJUC(b *testing.B)  { runWorkload(b, bench.QueueJUC(), 100, 0, 1) }
func BenchmarkFig6QueueDEGO(b *testing.B) { runWorkload(b, bench.QueueDEGO(), 100, 0, 1) }

// --- Figure 7: update-ratio sweep -------------------------------------------

func BenchmarkFig7(b *testing.B) {
	for _, ratio := range []int{25, 50, 75, 100} {
		for _, wl := range []bench.Workload{
			bench.HashMapJUC(), bench.HashMapDEGO(),
			bench.SkipListJUC(), bench.SkipListDEGO(),
		} {
			wl := wl
			b.Run(wl.Name+"/upd="+strconv.Itoa(ratio), func(b *testing.B) {
				runWorkload(b, wl, ratio, 16<<10, 32<<10)
			})
		}
	}
}

// --- Figure 8: working-set sweep ---------------------------------------------

func BenchmarkFig8(b *testing.B) {
	for _, scale := range []int{1, 2, 4} {
		items := (16 << 10) * scale
		for _, wl := range []bench.Workload{bench.HashMapJUC(), bench.HashMapDEGO()} {
			wl := wl
			b.Run(wl.Name+"/items="+strconv.Itoa(items>>10)+"K", func(b *testing.B) {
				runWorkload(b, wl, 75, items, items*2)
			})
		}
	}
}

// --- Figures 9 & 10: the Retwis application ----------------------------------

func runRetwis(b *testing.B, kind retwis.Kind, users int, alpha float64) {
	b.Helper()
	p := retwis.DefaultParams()
	p.Users = users
	p.Threads = runtime.GOMAXPROCS(0)
	p.Alpha = alpha
	p.MaxDegree = 128
	p.OpsPerThread = b.N/p.Threads + 1
	res, err := retwis.Run(kind, p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.Kops()*1000, "ops/s")
}

func BenchmarkFig9RetwisJUC(b *testing.B)  { runRetwis(b, retwis.KindJUC, 50_000, 1) }
func BenchmarkFig9RetwisDEGO(b *testing.B) { runRetwis(b, retwis.KindDEGO, 50_000, 1) }
func BenchmarkFig9RetwisDAP(b *testing.B)  { runRetwis(b, retwis.KindDAP, 50_000, 1) }

func BenchmarkFig10Alpha(b *testing.B) {
	for _, alpha := range []float64{0, 1, 2} {
		for _, kind := range []retwis.Kind{retwis.KindJUC, retwis.KindDEGO, retwis.KindDAP} {
			kind := kind
			alpha := alpha
			b.Run(kind.String()+"/alpha="+strconv.FormatFloat(alpha, 'g', -1, 64), func(b *testing.B) {
				runRetwis(b, kind, 20_000, alpha)
			})
		}
	}
}

// --- Figure 2 / Table 1: the theory toolkit ----------------------------------

func BenchmarkFig2GraphConstruction(b *testing.B) {
	c := spec.Counter(spec.C1)
	bag := []*spec.Op{c.Op("rmw", 1), c.Op("rmw", 3), c.Op("rmw", 5)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := igraph.New(bag, c.Init)
		if g.NumClasses() != 1 {
			b.Fatal("wrong class count")
		}
	}
}

func BenchmarkTable1ConsensusSearch(b *testing.B) {
	opts := igraph.DefaultSearchOpts()
	types := spec.AllCatalogTypes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dt := types[i%len(types)]
		igraph.ConsensusNumber(dt, opts)
	}
}

// --- Ablations: design-choice studies ----------------------------------------

func BenchmarkAblationSegmentation(b *testing.B) {
	for _, wl := range []bench.Workload{
		bench.SegBase(), bench.SegHash(), bench.SegExtended(),
	} {
		wl := wl
		b.Run(wl.Name, func(b *testing.B) {
			runWorkload(b, wl, 50, 16<<10, 32<<10)
		})
	}
}

func BenchmarkAblationPadding(b *testing.B) {
	for _, wl := range []bench.Workload{
		bench.CounterIncrementOnly(), bench.CounterUnpadded(),
	} {
		wl := wl
		b.Run(wl.Name, func(b *testing.B) {
			runWorkload(b, wl, 100, 0, 1)
		})
	}
}

func BenchmarkAblationGuards(b *testing.B) {
	for _, wl := range []bench.Workload{
		bench.CounterIncrementOnly(), bench.CounterGuarded(),
	} {
		wl := wl
		b.Run(wl.Name, func(b *testing.B) {
			runWorkload(b, wl, 100, 0, 1)
		})
	}
}

package hashmap

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/adjusted-objects/dego/internal/core"
	"github.com/adjusted-objects/dego/internal/stats"
)

// swmrPresent and swmrFresh size BenchmarkSWMR's map: swmrPresent keys are
// stored up front, and a map takes swmrFresh fresh keys before it is
// rebuilt, so no Put of a fresh key ever grows the table.
const swmrPresent, swmrFresh = 1 << 13, 1 << 12

// BenchmarkSWMR is the layer benchmark of the single-writer map on a
// served shard's declaration: string keys, pointer values, Capacity(1<<14),
// so it holds every key of a run without growing. Get/hit and Get/miss look
// up random present and absent keys from every goroutine. Put/present
// updates a random present key and Put/fresh inserts a key never stored;
// both run on the one writer, beside GOMAXPROCS-1 readers doing Get/hit, so
// at -cpu 1 the writer runs alone. Put/fresh rebuilds the map, off the
// clock, every swmrFresh inserts.
func BenchmarkSWMR(b *testing.B) {
	present := benchKeys("key", swmrPresent)
	absent := benchKeys("miss", swmrPresent)
	fresh := benchKeys("fresh", swmrFresh)
	v := new(int)
	build := func() *SWMR[string, *int] {
		m := NewSWMR[string, *int](1<<14, stats.HashString, false)
		for _, k := range present {
			m.Put(nil, k, v)
		}
		return m
	}
	read := func(m *SWMR[string, *int], keys []string) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			var seed atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				rnd := rand.New(rand.NewSource(seed.Add(1)))
				for pb.Next() {
					m.Get(keys[rnd.Intn(len(keys))])
				}
			})
		}
	}
	m := build()
	b.Run("Get/hit", read(m, present))
	b.Run("Get/miss", read(m, absent))
	b.Run("Put/present", func(b *testing.B) {
		defer beside(m, present)()
		rnd := rand.New(rand.NewSource(1))
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			m.Put(nil, present[rnd.Intn(len(present))], v)
		}
	})
	b.Run("Put/fresh", func(b *testing.B) {
		m := build()
		stop := beside(m, present)
		b.ReportAllocs()
		b.ResetTimer()
		for i := range b.N {
			if i > 0 && i%swmrFresh == 0 {
				b.StopTimer()
				stop()
				m = build()
				stop = beside(m, present)
				b.StartTimer()
			}
			m.Put(nil, fresh[i%swmrFresh], v)
		}
		b.StopTimer()
		stop()
	})
}

// beside starts GOMAXPROCS-1 readers looking up keys of m and returns the
// function that stops them and waits for them to exit.
func beside(m *SWMR[string, *int], keys []string) func() {
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 1; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(g)))
			for !stop.Load() {
				m.Get(keys[rnd.Intn(len(keys))])
			}
		}(g)
	}
	return func() { stop.Store(true); wg.Wait() }
}

func benchKeys(prefix string, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s:%d", prefix, i)
	}
	return keys
}

// BenchmarkSegmented is the layer benchmark of the segmented map with
// pointer values, the DEGO row of the figures: 16 k of 32 k int keys
// stored up front by their owners. Get looks up random keys from every
// goroutine; Put updates random present keys of the goroutine's own residue
// class (so the commuting-writers contract holds), storing the pointer as it
// is.
func BenchmarkSegmented(b *testing.B) {
	const items, keys = 16 << 10, 32 << 10
	writers := runtime.GOMAXPROCS(0)
	r := core.NewRegistry(writers)
	hs := make([]*core.Handle, writers)
	for i := range hs {
		hs[i] = r.MustRegister()
	}
	m := NewSegmented[int, *int](r, 0, 2*keys, intHash, false)
	v := new(int)
	owned := make([][]int, writers)
	rnd := rand.New(rand.NewSource(1))
	for range items {
		k := rnd.Intn(keys)
		m.Put(hs[k%writers], k, v)
		owned[k%writers] = append(owned[k%writers], k)
	}
	b.Run("Get", func(b *testing.B) {
		b.ReportAllocs()
		var seed atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			rnd := rand.New(rand.NewSource(seed.Add(1)))
			for pb.Next() {
				m.Get(rnd.Intn(keys))
			}
		})
	})
	b.Run("Put", func(b *testing.B) {
		b.ReportAllocs()
		var next atomic.Int32
		b.RunParallel(func(pb *testing.PB) {
			g := int(next.Add(1)-1) % writers
			h, mine, rnd := hs[g], owned[g], rand.New(rand.NewSource(int64(g)))
			for pb.Next() {
				m.Put(h, mine[rnd.Intn(len(mine))], v)
			}
		})
	})
}

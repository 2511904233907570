package skiplist

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/adjusted-objects/dego/internal/core"
)

// orderedOps is what BenchmarkOrdered drives: the two concurrent ordered
// maps behind one set of calls, so both run the same loop.
type orderedOps struct {
	put     func(h *core.Handle, k int, v *int)
	remove  func(h *core.Handle, k int)
	get     func(k int)
	rng     func(f func(k, v int) bool)
	between func(from, to int, f func(k, v int) bool)
}

// BenchmarkOrdered is the layer benchmark of the ordered maps, under the op
// mix of Figures 6 and 7: 16 k puts of random keys over 32 k keys, values
// boxed up front, one goroutine per GOMAXPROCS. Each goroutine writes only
// the keys of its own residue class (so Segmented's commuting-writers
// contract holds) and reads any key. uN has N % updates, half PutRef and half
// Remove, and the rest lookups. Range is a full ordered scan; RangeBetween
// scans an interval that holds 2 entries.
func BenchmarkOrdered(b *testing.B) {
	const items, keys = 16 << 10, 32 << 10
	boxes := make([]*int, keys)
	for k := range boxes {
		boxes[k] = &k
	}
	for _, impl := range []struct {
		name  string
		build func(r *core.Registry) orderedOps
	}{
		{"Segmented", func(r *core.Registry) orderedOps {
			m := NewSegmented[int, int](r, 2*keys, intHash, false)
			return orderedOps{m.PutRef, func(h *core.Handle, k int) { m.Remove(h, k) },
				func(k int) { m.GetRef(k) }, m.Range, m.RangeBetween}
		}},
		{"Concurrent", func(*core.Registry) orderedOps {
			m := NewConcurrent[int, int](nil)
			return orderedOps{func(_ *core.Handle, k int, v *int) { m.PutRef(k, v) },
				func(_ *core.Handle, k int) { m.Remove(k) }, func(k int) { m.Get(k) }, m.Range,
				func(from, to int, f func(k, v int) bool) {
					m.RangeFrom(from, func(k, v int) bool { return k < to && f(k, v) })
				}}
		}},
	} {
		// fill builds the map populated by its owners, one handle per
		// goroutine the benchmark will run.
		fill := func() (orderedOps, []*core.Handle) {
			writers := runtime.GOMAXPROCS(0)
			r := core.NewRegistry(writers)
			m := impl.build(r)
			hs := make([]*core.Handle, writers)
			for i := range hs {
				hs[i] = r.MustRegister()
			}
			rnd := rand.New(rand.NewSource(1))
			for range items {
				k := rnd.Intn(keys)
				m.put(hs[k%writers], k, boxes[k])
			}
			return m, hs
		}
		b.Run(impl.name, func(b *testing.B) {
			for _, u := range []int{0, 10, 100} {
				b.Run(fmt.Sprintf("u%d", u), func(b *testing.B) {
					m, hs := fill()
					var next atomic.Int32
					b.ResetTimer()
					b.RunParallel(func(pb *testing.PB) {
						g := int(next.Add(1) - 1)
						h, rnd := hs[g], rand.New(rand.NewSource(int64(g)))
						for pb.Next() {
							if rnd.Intn(100) >= u {
								m.get(rnd.Intn(keys))
								continue
							}
							k := rnd.Intn(keys/len(hs))*len(hs) + g
							if rnd.Intn(2) == 0 {
								m.put(h, k, boxes[k])
							} else {
								m.remove(h, k)
							}
						}
					})
				})
			}
			m, _ := fill()
			visit := func(int, int) bool { return true }
			b.Run("Range", func(b *testing.B) {
				b.ReportAllocs()
				for range b.N {
					m.rng(visit)
				}
			})
			// The first two entries at or above the middle key.
			var two []int
			m.between(keys/2, keys, func(k, _ int) bool {
				two = append(two, k)
				return len(two) < 2
			})
			b.Run("RangeBetween", func(b *testing.B) {
				b.ReportAllocs()
				for range b.N {
					m.between(two[0], two[1]+1, visit)
				}
			})
		})
	}
}

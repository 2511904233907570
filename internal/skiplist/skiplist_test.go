package skiplist

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"github.com/adjusted-objects/dego/internal/contention"
	"github.com/adjusted-objects/dego/internal/core"
	"github.com/adjusted-objects/dego/internal/stats"
)

func intHash(k int) uint64 { return stats.Hash64(uint64(k)) }

type listAPI interface {
	put(k, v int)
	remove(k int) bool
	get(k int) (int, bool)
	len() int
	rng(f func(k, v int) bool)
}

type swmrL struct {
	m *SWMR[int, int]
	h *core.Handle
}

func (a swmrL) put(k, v int)              { a.m.Put(a.h, k, v) }
func (a swmrL) remove(k int) bool         { return a.m.Remove(a.h, k) }
func (a swmrL) get(k int) (int, bool)     { return a.m.Get(k) }
func (a swmrL) len() int                  { return a.m.Len() }
func (a swmrL) rng(f func(k, v int) bool) { a.m.Range(f) }

type concL struct{ m *Concurrent[int, int] }

func (a concL) put(k, v int)              { a.m.Put(k, v) }
func (a concL) remove(k int) bool         { return a.m.Remove(k) }
func (a concL) get(k int) (int, bool)     { return a.m.Get(k) }
func (a concL) len() int                  { return a.m.Len() }
func (a concL) rng(f func(k, v int) bool) { a.m.Range(f) }

type segL struct {
	m *Segmented[int, int]
	h *core.Handle
}

func (a segL) put(k, v int)              { a.m.Put(a.h, k, v) }
func (a segL) remove(k int) bool         { return a.m.Remove(a.h, k) }
func (a segL) get(k int) (int, bool)     { return a.m.Get(k) }
func (a segL) len() int                  { return a.m.Len() }
func (a segL) rng(f func(k, v int) bool) { a.m.Range(f) }

func eachList(t *testing.T, f func(t *testing.T, m listAPI)) {
	t.Helper()
	t.Run("SWMR", func(t *testing.T) {
		r := core.NewRegistry(4)
		f(t, swmrL{NewSWMR[int, int](false), r.MustRegister()})
	})
	t.Run("Concurrent", func(t *testing.T) {
		f(t, concL{NewConcurrent[int, int](nil)})
	})
	t.Run("Segmented", func(t *testing.T) {
		r := core.NewRegistry(4)
		f(t, segL{NewSegmented[int, int](r, 128, intHash, false), r.MustRegister()})
	})
}

func TestListBasics(t *testing.T) {
	eachList(t, func(t *testing.T, m listAPI) {
		if _, ok := m.get(5); ok {
			t.Fatal("fresh list must miss")
		}
		m.put(5, 50)
		m.put(3, 30)
		m.put(8, 80)
		if v, ok := m.get(3); !ok || v != 30 {
			t.Fatalf("get(3) = %d,%v", v, ok)
		}
		m.put(3, 31)
		if v, _ := m.get(3); v != 31 {
			t.Fatalf("updated get(3) = %d", v)
		}
		if m.len() != 3 {
			t.Fatalf("len = %d, want 3", m.len())
		}
		if !m.remove(5) || m.remove(5) {
			t.Fatal("remove semantics wrong")
		}
		if _, ok := m.get(5); ok {
			t.Fatal("removed key still visible")
		}
	})
}

func TestListOrderedIteration(t *testing.T) {
	eachList(t, func(t *testing.T, m listAPI) {
		perm := rand.New(rand.NewSource(3)).Perm(500)
		for _, k := range perm {
			m.put(k, k*7)
		}
		var keys []int
		m.rng(func(k, v int) bool {
			if v != k*7 {
				t.Fatalf("value mismatch at %d", k)
			}
			keys = append(keys, k)
			return true
		})
		if len(keys) != 500 {
			t.Fatalf("iterated %d keys, want 500", len(keys))
		}
		if !sort.IntsAreSorted(keys) {
			t.Fatal("iteration not in ascending key order")
		}
	})
}

func TestListMatchesOracleQuick(t *testing.T) {
	eachList(t, func(t *testing.T, m listAPI) {
		oracle := map[int]int{}
		prop := func(ops []uint16) bool {
			for _, raw := range ops {
				k := int(raw % 128)
				switch raw % 3 {
				case 0:
					m.put(k, int(raw))
					oracle[k] = int(raw)
				case 1:
					got := m.remove(k)
					_, want := oracle[k]
					delete(oracle, k)
					if got != want {
						return false
					}
				default:
					gv, gok := m.get(k)
					wv, wok := oracle[k]
					if gok != wok || (gok && gv != wv) {
						return false
					}
				}
			}
			return m.len() == len(oracle)
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSWMRListConcurrentReaders(t *testing.T) {
	const permanent = 512
	r := core.NewRegistry(16)
	w := r.MustRegister()
	m := NewSWMR[int, int](false)
	for i := 0; i < permanent; i++ {
		m.Put(w, i*2, i) // even keys permanent
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var failures atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := g
			for {
				select {
				case <-stop:
					return
				default:
					k := (i % permanent) * 2
					if v, ok := m.Get(k); !ok || v != k/2 {
						failures.Add(1)
						return
					}
					i++
				}
			}
		}(g)
	}
	// Writer churns odd keys amid the readers.
	for round := 0; round < 300; round++ {
		for i := 0; i < 50; i++ {
			m.Put(w, (round*50+i)*2+1, i)
		}
		for i := 0; i < 50; i++ {
			m.Remove(w, (round*50+i)*2+1)
		}
	}
	close(stop)
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d reader failures", failures.Load())
	}
	if m.Len() != permanent {
		t.Fatalf("len = %d, want %d", m.Len(), permanent)
	}
}

func TestConcurrentSkipListParallelDisjoint(t *testing.T) {
	const writers, perW = 8, 4000
	probe := contention.NewProbe()
	m := NewConcurrent[int, int](probe)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				k := w*perW + i
				m.Put(k, k*2)
				if v, ok := m.Get(k); !ok || v != k*2 {
					t.Errorf("lost own write %d", k)
					return
				}
				if i%4 == 0 {
					if !m.Remove(k) {
						t.Errorf("failed to remove own key %d", k)
						return
					}
					m.Put(k, k*2)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := m.Len(); got != writers*perW {
		t.Fatalf("len = %d, want %d", got, writers*perW)
	}
	var keys []int
	m.Range(func(k, v int) bool {
		keys = append(keys, k)
		return true
	})
	if !sort.IntsAreSorted(keys) || len(keys) != writers*perW {
		t.Fatalf("iteration broken: %d keys sorted=%v", len(keys), sort.IntsAreSorted(keys))
	}
}

func TestConcurrentSkipListContendedSameKeys(t *testing.T) {
	// All threads fight over the same small key space: exercises marking,
	// helping and physical removal. Each key's final presence must match
	// a last-writer outcome (no torn state, Len consistent with contents).
	const goroutines, rounds, keys = 8, 3000, 16
	m := NewConcurrent[int, int](contention.NewProbe())
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < rounds; i++ {
				k := rnd.Intn(keys)
				if rnd.Intn(2) == 0 {
					m.Put(k, g)
				} else {
					m.Remove(k)
				}
			}
		}(g)
	}
	wg.Wait()
	count := 0
	m.Range(func(k, v int) bool {
		if _, ok := m.Get(k); !ok {
			t.Errorf("Range sees key %d that Get misses", k)
		}
		count++
		return true
	})
	if got := m.Len(); got != count {
		t.Fatalf("Len = %d but iteration found %d", got, count)
	}
}

func TestConcurrentRemoveReturnsOncePerKey(t *testing.T) {
	// Exactly one of N concurrent removers of a key may win.
	const goroutines = 8
	m := NewConcurrent[int, int](nil)
	for round := 0; round < 200; round++ {
		m.Put(7, round)
		var winners atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if m.Remove(7) {
					winners.Add(1)
				}
			}()
		}
		wg.Wait()
		if w := winners.Load(); w != 1 {
			t.Fatalf("round %d: %d remove winners, want 1", round, w)
		}
		if m.Len() != 0 {
			t.Fatalf("round %d: len = %d after removal", round, m.Len())
		}
	}
}

func TestSegmentedSkipListCommutingWriters(t *testing.T) {
	const writers, perW = 8, 2000
	r := core.NewRegistry(writers)
	m := NewSegmented[int, int](r, 1<<12, intHash, true)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := r.MustRegister()
			for i := 0; i < perW; i++ {
				k := w*perW + i
				m.Put(h, k, k+1)
			}
		}(w)
	}
	wg.Wait()
	if got := m.Len(); got != writers*perW {
		t.Fatalf("len = %d, want %d", got, writers*perW)
	}
	var keys []int
	m.Range(func(k, v int) bool {
		if v != k+1 {
			t.Fatalf("value mismatch at %d", k)
		}
		keys = append(keys, k)
		return true
	})
	if !sort.IntsAreSorted(keys) {
		t.Fatal("merged iteration not sorted")
	}
}

// rangerFrom abstracts the three lists' ordered from-iteration for the
// shared suffix test (the sorted-map overlay depends on it on every rep).
func TestListRangeFrom(t *testing.T) {
	type fromAPI struct {
		name string
		put  func(k, v int)
		from func(from int, f func(k, v int) bool)
	}
	r := core.NewRegistry(8)
	h := r.MustRegister()
	swmr := NewSWMR[int, int](false)
	conc := NewConcurrent[int, int](nil)
	seg := NewSegmented[int, int](r, 128, intHash, false)
	for _, api := range []fromAPI{
		{"SWMR", func(k, v int) { swmr.Put(h, k, v) },
			func(from int, f func(k, v int) bool) {
				swmr.RangeRefFrom(from, func(k int, v *int) bool { return f(k, *v) })
			}},
		{"Concurrent", conc.Put, conc.RangeFrom},
		{"Segmented", func(k, v int) { seg.Put(h, k, v) }, seg.RangeFrom},
	} {
		api := api
		t.Run(api.name, func(t *testing.T) {
			perm := rand.New(rand.NewSource(7)).Perm(200)
			for _, k := range perm {
				api.put(k*2, k) // even keys 0..398
			}
			// From an absent key: the suffix must start at the next present
			// key and come back sorted and complete.
			var keys []int
			api.from(101, func(k, v int) bool {
				if v != k/2 {
					t.Fatalf("value mismatch at %d", k)
				}
				keys = append(keys, k)
				return true
			})
			if len(keys) != 149 || keys[0] != 102 || keys[len(keys)-1] != 398 {
				t.Fatalf("suffix = %d keys [%d..%d], want 149 [102..398]",
					len(keys), keys[0], keys[len(keys)-1])
			}
			if !sort.IntsAreSorted(keys) {
				t.Fatal("suffix not sorted")
			}
			// From a present key: inclusive.
			n := 0
			api.from(102, func(k, v int) bool {
				if n == 0 && k != 102 {
					t.Fatalf("inclusive start = %d, want 102", k)
				}
				n++
				return false // early stop
			})
			if n != 1 {
				t.Fatalf("early stop visited %d", n)
			}
			// Past the end: empty.
			api.from(1000, func(k, v int) bool {
				t.Fatalf("unexpected key %d past the end", k)
				return false
			})
		})
	}
}

func TestSegmentedRangeRefBetween(t *testing.T) {
	const writers, perW = 4, 100
	r := core.NewRegistry(writers)
	m := NewSegmented[int, int](r, 1<<10, intHash, false)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := r.MustRegister()
			for i := 0; i < perW; i++ {
				k := i*writers + w // interleaved ownership across segments
				m.Put(h, k, k)
			}
		}(w)
	}
	wg.Wait()
	// [37, 301): inclusive lower bound, exclusive upper, sorted, complete.
	var keys []int
	m.RangeRefBetween(37, 301, func(k int, v *int) bool {
		keys = append(keys, k)
		return true
	})
	if len(keys) != 301-37 || keys[0] != 37 || keys[len(keys)-1] != 300 {
		t.Fatalf("got %d keys [%d..%d], want 264 [37..300]",
			len(keys), keys[0], keys[len(keys)-1])
	}
	if !sort.IntsAreSorted(keys) {
		t.Fatal("bounded iteration not sorted")
	}
	// Degenerate intervals.
	m.RangeRefBetween(10, 10, func(k int, v *int) bool {
		t.Fatalf("empty interval emitted %d", k)
		return false
	})
	m.RangeRefBetween(20, 5, func(k int, v *int) bool {
		t.Fatalf("inverted interval emitted %d", k)
		return false
	})
}

func TestGetRefBoxIdentity(t *testing.T) {
	r := core.NewRegistry(4)
	h := r.MustRegister()
	box := new(int)
	*box = 42

	swmr := NewSWMR[int, int](false)
	swmr.PutRef(h, 1, box)
	if got, ok := swmr.GetRef(1); !ok || got != box {
		t.Fatal("SWMR.GetRef did not return the stored box")
	}
	found := false
	swmr.RangeRef(func(k int, v *int) bool {
		found = found || (k == 1 && v == box)
		return true
	})
	if !found {
		t.Fatal("SWMR.RangeRef did not yield the stored box")
	}

	seg := NewSegmented[int, int](r, 64, intHash, false)
	seg.PutRef(h, 1, box)
	if got, ok := seg.GetRef(1); !ok || got != box {
		t.Fatal("Segmented.GetRef did not return the stored box")
	}
	if _, ok := seg.GetRef(2); ok {
		t.Fatal("Segmented.GetRef found an absent key")
	}
	found = false
	seg.RangeRef(func(k int, v *int) bool {
		found = found || (k == 1 && v == box)
		return true
	})
	if !found {
		t.Fatal("Segmented.RangeRef did not yield the stored box")
	}
}

func TestSWMRMin(t *testing.T) {
	r := core.NewRegistry(2)
	h := r.MustRegister()
	m := NewSWMR[int, string](false)
	if _, _, ok := m.Min(); ok {
		t.Fatal("empty Min must miss")
	}
	m.Put(h, 9, "nine")
	m.Put(h, 4, "four")
	k, v, ok := m.Min()
	if !ok || k != 4 || v != "four" {
		t.Fatalf("Min = %d,%s,%v", k, v, ok)
	}
}

func TestSkipListStringKeys(t *testing.T) {
	m := NewConcurrent[string, int](nil)
	m.Put("banana", 2)
	m.Put("apple", 1)
	m.Put("cherry", 3)
	var got []string
	m.Range(func(k string, v int) bool {
		got = append(got, k)
		return true
	})
	want := []string{"apple", "banana", "cherry"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v", got)
		}
	}
}

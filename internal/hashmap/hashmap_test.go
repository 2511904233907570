package hashmap

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"github.com/adjusted-objects/dego/internal/contention"
	"github.com/adjusted-objects/dego/internal/core"
	"github.com/adjusted-objects/dego/internal/stats"
)

func intHash(k int) uint64 { return stats.Hash64(uint64(k)) }

// mapAPI unifies the three maps for shared tests.
type mapAPI interface {
	put(k, v int)
	remove(k int) bool
	get(k int) (int, bool)
	len() int
	rng(f func(k, v int) bool)
}

type swmrAPI struct {
	m *SWMR[int, int]
	h *core.Handle
}

func (a swmrAPI) put(k, v int)          { a.m.Put(a.h, k, v) }
func (a swmrAPI) remove(k int) bool     { return a.m.Remove(a.h, k) }
func (a swmrAPI) get(k int) (int, bool) { return a.m.Get(k) }
func (a swmrAPI) len() int              { return a.m.Len() }
func (a swmrAPI) rng(f func(k, v int) bool) {
	a.m.Range(f)
}

type stripedAPI struct{ m *Striped[int, int] }

func (a stripedAPI) put(k, v int)              { a.m.Put(k, v) }
func (a stripedAPI) remove(k int) bool         { return a.m.Remove(k) }
func (a stripedAPI) get(k int) (int, bool)     { return a.m.Get(k) }
func (a stripedAPI) len() int                  { return a.m.Len() }
func (a stripedAPI) rng(f func(k, v int) bool) { a.m.Range(f) }

type segmentedAPI struct {
	m *Segmented[int, int]
	h *core.Handle
}

func (a segmentedAPI) put(k, v int)              { a.m.Put(a.h, k, v) }
func (a segmentedAPI) remove(k int) bool         { return a.m.Remove(a.h, k) }
func (a segmentedAPI) get(k int) (int, bool)     { return a.m.Get(k) }
func (a segmentedAPI) len() int                  { return a.m.Len() }
func (a segmentedAPI) rng(f func(k, v int) bool) { a.m.Range(f) }

func eachMap(t *testing.T, f func(t *testing.T, m mapAPI)) {
	t.Helper()
	t.Run("SWMR", func(t *testing.T) {
		r := core.NewRegistry(4)
		f(t, swmrAPI{NewSWMR[int, int](16, intHash, false), r.MustRegister()})
	})
	t.Run("Striped", func(t *testing.T) {
		f(t, stripedAPI{NewStriped[int, int](16, 16, intHash, nil)})
	})
	t.Run("Segmented", func(t *testing.T) {
		r := core.NewRegistry(4)
		f(t, segmentedAPI{NewSegmented[int, int](r, 64, 64, intHash, false), r.MustRegister()})
	})
}

func TestMapBasics(t *testing.T) {
	eachMap(t, func(t *testing.T, m mapAPI) {
		if _, ok := m.get(1); ok {
			t.Fatal("fresh map must miss")
		}
		m.put(1, 10)
		m.put(2, 20)
		if v, ok := m.get(1); !ok || v != 10 {
			t.Fatalf("get(1) = %d,%v", v, ok)
		}
		m.put(1, 11) // update in place
		if v, _ := m.get(1); v != 11 {
			t.Fatalf("updated get(1) = %d", v)
		}
		if m.len() != 2 {
			t.Fatalf("len = %d, want 2", m.len())
		}
		if !m.remove(1) || m.remove(1) {
			t.Fatal("remove semantics wrong")
		}
		if _, ok := m.get(1); ok {
			t.Fatal("get after remove must miss")
		}
		if m.len() != 1 {
			t.Fatalf("len = %d, want 1", m.len())
		}
	})
}

func TestMapGrowth(t *testing.T) {
	// Force several resizes and verify every entry survives.
	eachMap(t, func(t *testing.T, m mapAPI) {
		const n = 5000
		for i := 0; i < n; i++ {
			m.put(i, i*3)
		}
		if m.len() != n {
			t.Fatalf("len = %d, want %d", m.len(), n)
		}
		for i := 0; i < n; i++ {
			if v, ok := m.get(i); !ok || v != i*3 {
				t.Fatalf("get(%d) = %d,%v after growth", i, v, ok)
			}
		}
		// Range sees each key exactly once.
		seen := make(map[int]bool, n)
		m.rng(func(k, v int) bool {
			if seen[k] {
				t.Fatalf("Range visited key %d twice", k)
			}
			seen[k] = true
			return true
		})
		if len(seen) != n {
			t.Fatalf("Range visited %d keys, want %d", len(seen), n)
		}
	})
}

func TestMapMatchesOracleQuick(t *testing.T) {
	eachMap(t, func(t *testing.T, m mapAPI) {
		oracle := map[int]int{}
		prop := func(ops []uint16) bool {
			for _, raw := range ops {
				k := int(raw % 64)
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
		if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSWMRConcurrentReadersDuringWrites(t *testing.T) {
	// One writer continuously inserting/updating/removing and resizing;
	// readers must always see a value they were promised (keys 0..BASE are
	// permanent with stable values).
	const permanent = 512
	r := core.NewRegistry(16)
	m := NewSWMR[int, int](8, intHash, false) // start tiny to force resizes
	w := r.MustRegister()
	for i := 0; i < permanent; i++ {
		m.Put(w, i, i)
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
					k := i % permanent
					v, ok := m.Get(k)
					if !ok || v != k {
						failures.Add(1)
						return
					}
					i++
				}
			}
		}(g)
	}
	// Writer churns volatile keys above the permanent range, forcing
	// resizes and unlinks concurrent with the readers.
	for round := 0; round < 200; round++ {
		base := permanent + round*97
		for i := 0; i < 97; i++ {
			m.Put(w, base+i, i)
		}
		for i := 0; i < 97; i++ {
			m.Remove(w, base+i)
		}
	}
	close(stop)
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d reader failures: a permanent key vanished or changed", failures.Load())
	}
	if m.Len() != permanent {
		t.Fatalf("len = %d, want %d", m.Len(), permanent)
	}
}

func TestSWMRGuardRejectsSecondWriter(t *testing.T) {
	r := core.NewRegistry(4)
	m := NewSWMR[int, int](8, intHash, true)
	w1, w2 := r.MustRegister(), r.MustRegister()
	m.Put(w1, 1, 1)
	if _, ok := m.Get(1); !ok { // reads unrestricted
		t.Fatal("reader failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("second writer must trip the SWMR guard")
		}
	}()
	m.Put(w2, 2, 2)
}

func TestStripedConcurrentMixed(t *testing.T) {
	const goroutines, perG = 8, 20000
	probe := contention.NewProbe()
	m := NewStriped[int, int](64, 1024, intHash, probe)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := g*perG + i
				m.Put(k, k)
				if v, ok := m.Get(k); !ok || v != k {
					t.Errorf("lost own write %d", k)
					return
				}
				if i%3 == 0 {
					m.Remove(k)
				}
			}
		}(g)
	}
	wg.Wait()
	want := 0
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			if i%3 != 0 {
				want++
			}
		}
	}
	if got := m.Len(); got != want {
		t.Fatalf("len = %d, want %d", got, want)
	}
}

func TestSegmentedCommutingWriters(t *testing.T) {
	// The CWMR contract of Figures 6-7: each thread owns a disjoint key
	// range. All writes must be conflict-free and the union visible to all.
	const writers, perW = 8, 5000
	r := core.NewRegistry(writers + 1)
	m := NewSegmented[int, int](r, writers*perW, 1<<14, intHash, true)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := r.MustRegister()
			for i := 0; i < perW; i++ {
				k := w*perW + i
				m.Put(h, k, k*2)
				if i%4 == 0 {
					m.Remove(h, k)
					m.Put(h, k, k*2)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := m.Len(); got != writers*perW {
		t.Fatalf("len = %d, want %d", got, writers*perW)
	}
	for k := 0; k < writers*perW; k += 97 {
		if v, ok := m.Get(k); !ok || v != k*2 {
			t.Fatalf("get(%d) = %d,%v", k, v, ok)
		}
	}
}

func TestMapStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	// All three maps under their legal concurrency pattern, checked against
	// per-thread oracles.
	const writers, keys = 8, 2000
	r := core.NewRegistry(writers)
	seg := NewSegmented[int, int](r, writers*keys, 1<<14, intHash, false)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := r.MustRegister()
			oracle := map[int]int{}
			rnd := uint64(w + 1)
			for i := 0; i < 40000; i++ {
				rnd = rnd*6364136223846793005 + 1442695040888963407
				k := w*keys + int(rnd%keys)
				switch rnd % 3 {
				case 0:
					seg.Put(h, k, i)
					oracle[k] = i
				case 1:
					got := seg.Remove(h, k)
					_, want := oracle[k]
					delete(oracle, k)
					if got != want {
						t.Errorf("writer %d: remove(%d) = %v, want %v", w, k, got, want)
						return
					}
				default:
					gv, gok := seg.Get(k)
					wv, wok := oracle[k]
					if gok != wok || (gok && gv != wv) {
						t.Errorf("writer %d: get(%d) = (%d,%v), want (%d,%v)", w, k, gv, gok, wv, wok)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestMapKeyTypes(t *testing.T) {
	// The maps are generic; exercise a string-keyed instantiation.
	r := core.NewRegistry(2)
	h := r.MustRegister()
	m := NewSWMR[string, []int](4, stats.HashString, false)
	for i := 0; i < 100; i++ {
		m.Put(h, fmt.Sprintf("key-%d", i), []int{i})
	}
	if v, ok := m.Get("key-42"); !ok || v[0] != 42 {
		t.Fatalf("string map get = %v,%v", v, ok)
	}
}

func TestBaseSegmentedMap(t *testing.T) {
	const writers, perW = 4, 2000
	r := core.NewRegistry(writers)
	m := NewBaseSegmented[int, int](r, 1024, intHash, true)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := r.MustRegister()
			for i := 0; i < perW; i++ {
				k := w*perW + i
				m.Put(h, k, k+1)
				if i%5 == 0 {
					m.Remove(h, k)
					m.Put(h, k, k+1)
				}
			}
		}(w)
	}
	wg.Wait()
	if m.Len() != writers*perW {
		t.Fatalf("len = %d, want %d", m.Len(), writers*perW)
	}
	// Reads scan all segments and must find every key.
	for k := 0; k < writers*perW; k += 173 {
		if v, ok := m.Get(k); !ok || v != k+1 {
			t.Fatalf("get(%d) = (%d,%v)", k, v, ok)
		}
	}
	seen := 0
	m.Range(func(k, v int) bool { seen++; return true })
	if seen != writers*perW {
		t.Fatalf("Range saw %d", seen)
	}
	if m.Contains(-1) {
		t.Fatal("phantom key")
	}
}

func TestHashSegmentedMap(t *testing.T) {
	r := core.NewRegistry(8)
	m := NewHashSegmented[int, int](4, 256, intHash, false)
	h := r.MustRegister()
	for k := 0; k < 1000; k++ {
		m.Put(h, k, k*2)
	}
	if m.Len() != 1000 {
		t.Fatalf("len = %d", m.Len())
	}
	for k := 0; k < 1000; k += 97 {
		if v, ok := m.Get(k); !ok || v != k*2 {
			t.Fatalf("get(%d) = (%d,%v)", k, v, ok)
		}
		if m.SegmentOf(k) < 0 || m.SegmentOf(k) >= 4 {
			t.Fatalf("segment out of range")
		}
	}
	if !m.Remove(h, 97) || m.Contains(97) {
		t.Fatal("remove failed")
	}
	n := 0
	m.Range(func(k, v int) bool { n++; return n < 10 })
	if n != 10 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestSWMRRangeRefSeesBoxIdentity(t *testing.T) {
	m := NewSWMR[int, int](16, intHash, false)
	tomb := new(int)
	box := new(int)
	*box = 7
	m.PutRef(nil, 1, box)
	m.PutRef(nil, 2, tomb)
	seen := map[int]*int{}
	m.RangeRef(func(k int, v *int) bool {
		seen[k] = v
		return true
	})
	if len(seen) != 2 || seen[1] != box || seen[2] != tomb {
		t.Fatalf("RangeRef boxes = %v (box=%p tomb=%p)", seen, box, tomb)
	}
}

func TestSegmentedRangeRefDrains(t *testing.T) {
	r := core.NewRegistry(4)
	m := NewSegmented[int, int](r, 64, 128, intHash, false)
	h1 := r.MustRegister()
	h2 := r.MustRegister()
	boxes := map[int]*int{}
	for k := 0; k < 10; k++ {
		v := k * k
		box := &v
		boxes[k] = box
		if k%2 == 0 {
			m.PutRef(h1, k, box)
		} else {
			m.PutRef(h2, k, box)
		}
	}
	got := map[int]*int{}
	m.RangeRef(func(k int, v *int) bool {
		got[k] = v
		return true
	})
	if len(got) != 10 {
		t.Fatalf("RangeRef saw %d entries, want 10", len(got))
	}
	for k, box := range boxes {
		if got[k] != box {
			t.Fatalf("key %d: box %p, want %p", k, got[k], box)
		}
	}
	// Early stop is honored.
	n := 0
	m.RangeRef(func(int, *int) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early-stop RangeRef visited %d entries", n)
	}
}

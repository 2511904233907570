package core_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"github.com/adjusted-objects/dego/internal/core"
	"github.com/adjusted-objects/dego/internal/hashmap"
	"github.com/adjusted-objects/dego/internal/skiplist"
	"github.com/adjusted-objects/dego/internal/stats"
)

func TestCellForms(t *testing.T) {
	// Direct: the slot holds the pointer itself, nil as the sentinel.
	p := core.FormFor[*int]()
	var c core.Cell[*int]
	if _, ok := p.Load(&c); ok {
		t.Fatal("a zero cell is present")
	}
	x := 7
	p.Store(&c, &x)
	if v, ok := p.Load(&c); !ok || v != &x {
		t.Fatalf("Load = %p, %v; want %p", v, ok, &x)
	}
	if had := p.Swap(&c, nil); !had {
		t.Fatal("Swap missed the stored pointer")
	}
	if v, ok := p.Load(&c); !ok || v != nil {
		t.Fatalf("a stored nil loads as %p, %v", v, ok)
	}
	if !c.Clear() || c.Clear() {
		t.Fatal("Clear did not make the cell absent once")
	}
	if got := testing.AllocsPerRun(100, func() { p.Store(&c, &x); p.Store(&c, nil) }); got != 0 {
		t.Fatalf("a direct store allocated %v times", got)
	}

	m := core.FormFor[map[int]int]()
	var mc core.Cell[map[int]int]
	m.Store(&mc, map[int]int{1: 2})
	if v, ok := m.Load(&mc); !ok || v[1] != 2 {
		t.Fatal("a map value did not round-trip")
	}
	ch := core.FormFor[chan int]()
	var cc core.Cell[chan int]
	ch.Store(&cc, nil)
	if v, ok := ch.Load(&cc); !ok || v != nil {
		t.Fatal("a nil channel did not load as present and nil")
	}
	u := core.FormFor[unsafe.Pointer]()
	var uc core.Cell[unsafe.Pointer]
	u.Store(&uc, unsafe.Pointer(&x))
	if v, ok := u.Load(&uc); !ok || v != unsafe.Pointer(&x) {
		t.Fatal("an unsafe.Pointer did not round-trip")
	}

	// Boxed: zero values, zero-size values and values wider than a word.
	z := core.FormFor[int]()
	var zc core.Cell[int]
	z.Store(&zc, 0)
	if v, ok := z.Load(&zc); !ok || v != 0 {
		t.Fatal("a stored zero is absent")
	}
	e := core.FormFor[struct{}]()
	var ec core.Cell[struct{}]
	if e.Swap(&ec, struct{}{}) {
		t.Fatal("a zero cell held a value")
	}
	if _, ok := e.Load(&ec); !ok {
		t.Fatal("an empty value is absent")
	}
	w := core.FormFor[[3]string]()
	var wc core.Cell[[3]string]
	w.Store(&wc, [3]string{"a", "b", "c"})
	if v, ok := w.Load(&wc); !ok || v != [3]string{"a", "b", "c"} {
		t.Fatalf("a wide value loads as %v, %v", v, ok)
	}
	if got := testing.AllocsPerRun(100, func() { z.Store(&zc, 1) }); got != 1 {
		t.Fatalf("a boxed store allocated %v times, want its box", got)
	}
}

// tagged is a value that is not a pointer, so every site boxes it. It
// names the key it was stored under and the round that stored it.
type tagged struct{ key, round int }

// churnSite is one of the four representations that publish a value in a
// cell, behind the calls the churn makes: the segmented directory (through
// hashmap.Segmented), the SWMR hash map, the SWMR skip list and the
// lock-free skip list.
type churnSite[V any] struct {
	name   string
	put    func(h *core.Handle, k int, v V)
	remove func(h *core.Handle, k int)
	get    func(k int) (V, bool)
}

func churnSites[V any](r *core.Registry) []churnSite[V] {
	hash := func(k int) uint64 { return stats.Hash64(uint64(k)) }
	seg := hashmap.NewSegmented[int, V](r, 0, 64, hash, true)
	swmr := hashmap.NewSWMR[int, V](0, hash, true)
	list := skiplist.NewSWMR[int, V](true)
	conc := skiplist.NewConcurrent[int, V](nil)
	return []churnSite[V]{
		{"Directory", seg.Put, func(h *core.Handle, k int) { seg.Remove(h, k) }, seg.Get},
		{"SWMRMap", swmr.Put, func(h *core.Handle, k int) { swmr.Remove(h, k) }, swmr.Get},
		{"SWMRSkipList", list.Put, func(h *core.Handle, k int) { list.Remove(h, k) }, list.Get},
		{"ConcurrentSkipList", func(_ *core.Handle, k int, v V) { conc.Put(k, v) },
			func(_ *core.Handle, k int) { conc.Remove(k) }, conc.Get},
	}
}

// churn runs one writer that removes and re-puts every key, round after
// round, beside readers that look the keys up. value(k, round) is what the
// writer stores; a reader may see only absence or a value valid(k, v) says
// the writer stored under k. After the writer stops, every key must hold
// its last round's value.
func churn[V comparable](t *testing.T, s churnSite[V], h *core.Handle, value func(k, round int) V,
	valid func(k int, v V) bool) {
	const keys, rounds, readers = 32, 300, 2
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; !stop.Load(); i++ {
				k := i % keys
				if v, ok := s.get(k); ok && !valid(k, v) {
					t.Errorf("%s: key %d read %v, which the writer never stored under it", s.name, k, v)
					return
				}
			}
		}(g)
	}
	for round := 0; round < rounds; round++ {
		for k := 0; k < keys; k++ {
			s.remove(h, k)
			s.put(h, k, value(k, round))
		}
	}
	stop.Store(true)
	wg.Wait()
	for k := 0; k < keys; k++ {
		if v, ok := s.get(k); !ok || v != value(k, rounds-1) {
			t.Errorf("%s: key %d ends as %v, %v; want its last value", s.name, k, v, ok)
		}
	}
}

// TestCellAbsenceUnderChurn checks the absence encoding at every site that
// adopts the cell: a read that races a remove and a re-put loads the cell
// once, so it sees absence or a value stored under its key — never the nil
// sentinel as absence, a stored nil as a stored pointer, or a zero value
// where nothing was stored. Odd keys store nil pointers in odd rounds, even
// keys never store nil, so a present nil on an even key is a fault.
func TestCellAbsenceUnderChurn(t *testing.T) {
	const keys = 32
	targets := make([][2]int, keys)
	ptr := func(k, round int) *int {
		if k%2 == 1 && round%2 == 1 {
			return nil
		}
		return &targets[k][round%2]
	}
	validPtr := func(k int, v *int) bool {
		return v == &targets[k][0] || v == &targets[k][1] || (v == nil && k%2 == 1)
	}
	r := core.NewRegistry(1)
	h := r.MustRegister()
	for _, s := range churnSites[*int](r) {
		t.Run("pointer/"+s.name, func(t *testing.T) {
			churn(t, s, h, ptr, validPtr)
		})
	}
	box := func(k, round int) tagged { return tagged{k, 1 + round%2} }
	validBox := func(k int, v tagged) bool { return v.key == k && (v.round == 1 || v.round == 2) }
	for _, s := range churnSites[tagged](r) {
		t.Run("boxed/"+s.name, func(t *testing.T) {
			churn(t, s, h, box, validBox)
		})
	}
}

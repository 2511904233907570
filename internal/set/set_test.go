package set

import (
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"github.com/adjusted-objects/dego/internal/core"
	"github.com/adjusted-objects/dego/internal/stats"
)

func intHash(k int) uint64 { return stats.Hash64(uint64(k)) }

type setAPI interface {
	add(x int)
	remove(x int) bool
	contains(x int) bool
	len() int
	rng(f func(x int) bool)
}

type swmrS struct {
	s *SWMR[int]
	h *core.Handle
}

func (a swmrS) add(x int)            { a.s.Add(a.h, x) }
func (a swmrS) remove(x int) bool    { return a.s.Remove(a.h, x) }
func (a swmrS) contains(x int) bool  { return a.s.Contains(x) }
func (a swmrS) len() int             { return a.s.Len() }
func (a swmrS) rng(f func(int) bool) { a.s.Range(f) }

type segS struct {
	s *Segmented[int]
	h *core.Handle
}

func (a segS) add(x int)            { a.s.Add(a.h, x) }
func (a segS) remove(x int) bool    { return a.s.Remove(a.h, x) }
func (a segS) contains(x int) bool  { return a.s.Contains(x) }
func (a segS) len() int             { return a.s.Len() }
func (a segS) rng(f func(int) bool) { a.s.Range(f) }

type strS struct{ s *Striped[int] }

func (a strS) add(x int)            { a.s.Add(x) }
func (a strS) remove(x int) bool    { return a.s.Remove(x) }
func (a strS) contains(x int) bool  { return a.s.Contains(x) }
func (a strS) len() int             { return a.s.Len() }
func (a strS) rng(f func(int) bool) { a.s.Range(f) }

type lockedS struct{ s *Locked[int] }

func (a lockedS) add(x int)            { a.s.Add(x) }
func (a lockedS) remove(x int) bool    { return a.s.Remove(x) }
func (a lockedS) contains(x int) bool  { return a.s.Contains(x) }
func (a lockedS) len() int             { return a.s.Len() }
func (a lockedS) rng(f func(int) bool) { a.s.Range(f) }

func eachSet(t *testing.T, f func(t *testing.T, s setAPI)) {
	t.Helper()
	t.Run("SWMR", func(t *testing.T) {
		r := core.NewRegistry(4)
		f(t, swmrS{NewSWMR[int](16, intHash, false), r.MustRegister()})
	})
	t.Run("Segmented", func(t *testing.T) {
		r := core.NewRegistry(4)
		f(t, segS{NewSegmented[int](r, 64, intHash, false), r.MustRegister()})
	})
	t.Run("Striped", func(t *testing.T) {
		f(t, strS{NewStriped[int](16, 64, intHash, nil)})
	})
	t.Run("Locked", func(t *testing.T) {
		f(t, lockedS{NewLocked[int]()})
	})
}

func TestSetBasics(t *testing.T) {
	eachSet(t, func(t *testing.T, s setAPI) {
		// Every method but Add first runs on a set that never had an
		// element (Locked makes its map at the first Add).
		if s.contains(1) || s.remove(1) || s.len() != 0 {
			t.Fatal("fresh set must be empty")
		}
		s.rng(func(int) bool { t.Fatal("Range visited an element of a fresh set"); return false })
		s.add(1)
		s.add(2)
		s.add(1) // idempotent
		if !s.contains(1) || !s.contains(2) || s.contains(3) {
			t.Fatal("membership wrong")
		}
		if s.len() != 2 {
			t.Fatalf("len = %d, want 2", s.len())
		}
		if !s.remove(1) || s.remove(1) {
			t.Fatal("remove semantics wrong")
		}
		n := 0
		s.rng(func(int) bool { n++; return true })
		if n != 1 {
			t.Fatalf("Range visited %d, want 1", n)
		}
	})
}

func TestSetMatchesOracleQuick(t *testing.T) {
	eachSet(t, func(t *testing.T, s setAPI) {
		oracle := map[int]bool{}
		prop := func(ops []uint16) bool {
			for _, raw := range ops {
				x := int(raw % 64)
				switch raw % 3 {
				case 0:
					s.add(x)
					oracle[x] = true
				case 1:
					got := s.remove(x)
					want := oracle[x]
					delete(oracle, x)
					if got != want {
						return false
					}
				default:
					if s.contains(x) != oracle[x] {
						return false
					}
				}
			}
			return s.len() == len(oracle)
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSegmentedSetConcurrent(t *testing.T) {
	const writers, perW = 8, 3000
	r := core.NewRegistry(writers)
	s := NewSegmented[int](r, 1<<13, intHash, true)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := r.MustRegister()
			for i := 0; i < perW; i++ {
				s.Add(h, w*perW+i)
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != writers*perW {
		t.Fatalf("len = %d, want %d", s.Len(), writers*perW)
	}
	for k := 0; k < writers*perW; k += 101 {
		if !s.Contains(k) {
			t.Fatalf("missing element %d", k)
		}
	}
}

// TestLockedMatchesOracle drives a Locked set against a Go map through sets
// of 0 to 3×smallMax elements: growing one element at a time, shrinking back
// to empty, then a seeded random walk, so the slice→map switch is crossed in
// both directions. Every method is compared after every step.
func TestLockedMatchesOracle(t *testing.T) {
	const universe = 3 * smallMax
	s := NewLocked[int]()
	oracle := map[int]bool{}
	step, promotions, demotions, wasBig := 0, 0, 0, false
	verify := func(op string) {
		t.Helper()
		step++
		if isBig := s.b != nil && s.b.big != nil; isBig != wasBig {
			if isBig {
				promotions++
			} else {
				demotions++
			}
			wasBig = isBig
		}
		if s.Len() != len(oracle) {
			t.Fatalf("step %d (%s): Len = %d, want %d", step, op, s.Len(), len(oracle))
		}
		for x := -1; x <= universe; x++ {
			if s.Contains(x) != oracle[x] {
				t.Fatalf("step %d (%s): Contains(%d) = %v, want %v", step, op, x, !oracle[x], oracle[x])
			}
		}
		seen := map[int]bool{}
		s.Range(func(x int) bool {
			if seen[x] || !oracle[x] {
				t.Fatalf("step %d (%s): Range visited %d (seen before: %v, in oracle: %v)", step, op, x, seen[x], oracle[x])
			}
			seen[x] = true
			return true
		})
		if len(seen) != len(oracle) {
			t.Fatalf("step %d (%s): Range visited %d elements, want %d", step, op, len(seen), len(oracle))
		}
		if len(oracle) > 1 {
			n := 0
			s.Range(func(int) bool { n++; return false })
			if n != 1 {
				t.Fatalf("step %d (%s): Range went on for %d elements after f returned false", step, op, n)
			}
		}
	}
	add := func(x int) {
		s.Add(x)
		oracle[x] = true
		verify(fmt.Sprintf("Add(%d)", x))
	}
	remove := func(x int) {
		if got := s.Remove(x); got != oracle[x] {
			t.Fatalf("step %d: Remove(%d) = %v, want %v", step, x, got, oracle[x])
		}
		delete(oracle, x)
		verify(fmt.Sprintf("Remove(%d)", x))
	}

	verify("fresh")
	remove(0)
	for x := 0; x < universe; x++ {
		add(x)
		add(x) // idempotent
	}
	for x := universe - 1; x >= 0; x -= 2 {
		remove(x)
	}
	for x := 0; x < universe; x += 2 {
		remove(x)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4000; i++ {
		// Phases of mostly adds and mostly removes swing the size between
		// about 20 and about 4 elements.
		addPct := 85
		if i/200%2 == 1 {
			addPct = 15
		}
		if x := rng.Intn(universe); rng.Intn(100) < addPct {
			add(x)
		} else {
			remove(x)
		}
	}
	if promotions < 10 || demotions < 10 {
		t.Fatalf("the walk moved to a map %d times and back %d times, want at least 10 each", promotions, demotions)
	}
}

// TestLockedConcurrentAcrossSwitch has four goroutines add and remove the
// same elements at once, so the set converts between slice and map under
// contention. Each goroutine ends every round by removing what it added
// except the multiples of smallMax, which are only ever added, so the final
// contents are exact.
func TestLockedConcurrentAcrossSwitch(t *testing.T) {
	const goroutines, rounds, universe = 4, 300, 3 * smallMax
	s := NewLocked[int]()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := 0; i < universe; i++ {
					s.Add((i + g*smallMax/2) % universe)
				}
				s.Contains(g)
				for i := 0; i < universe; i++ {
					if x := (i + g) % universe; x%smallMax != 0 {
						s.Remove(x)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	want := map[int]bool{}
	for x := 0; x < universe; x += smallMax {
		want[x] = true
	}
	got := map[int]bool{}
	s.Range(func(x int) bool { got[x] = true; return true })
	if s.Len() != len(want) || !maps.Equal(got, want) {
		t.Fatalf("final contents %v (Len %d), want %v", got, s.Len(), want)
	}
}

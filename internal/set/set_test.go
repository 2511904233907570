package set

import (
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// The shared hash sets' basics, oracle walk and concurrent test are the
// root package's, run through dego.Set over every planned set row; these
// two keep Locked's.

func TestSetBasics(t *testing.T) {
	t.Run("Locked", func(t *testing.T) {
		s := NewLocked[int]()
		// Every method but Add first runs on a set that never had an
		// element (Locked makes its body at the first Add).
		if s.Contains(1) || s.Remove(1) || s.Len() != 0 {
			t.Fatal("fresh set must be empty")
		}
		s.Range(func(int) bool { t.Fatal("Range visited an element of a fresh set"); return false })
		s.Add(1)
		s.Add(2)
		s.Add(1) // idempotent
		if !s.Contains(1) || !s.Contains(2) || s.Contains(3) {
			t.Fatal("membership wrong")
		}
		if s.Len() != 2 {
			t.Fatalf("len = %d, want 2", s.Len())
		}
		if !s.Remove(1) || s.Remove(1) {
			t.Fatal("remove semantics wrong")
		}
		n := 0
		s.Range(func(int) bool { n++; return true })
		if n != 1 {
			t.Fatalf("Range visited %d, want 1", n)
		}
	})
}

func TestSetMatchesOracleQuick(t *testing.T) {
	t.Run("Locked", func(t *testing.T) {
		s := NewLocked[int]()
		oracle := map[int]bool{}
		prop := func(ops []uint16) bool {
			for _, raw := range ops {
				x := int(raw % 64)
				switch raw % 3 {
				case 0:
					s.Add(x)
					oracle[x] = true
				case 1:
					got := s.Remove(x)
					want := oracle[x]
					delete(oracle, x)
					if got != want {
						return false
					}
				default:
					if s.Contains(x) != oracle[x] {
						return false
					}
				}
			}
			return s.Len() == len(oracle)
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatal(err)
		}
	})
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

package dego

import (
	"sync"
	"testing"
	"testing/quick"
)

// setRowDecls declares each planned set row: the options that plan it and
// how many threads may write it under that declaration.
var setRowDecls = []struct {
	rep     string
	opts    []Option
	writers int
}{
	{"FlatSWMRSet", []Option{SingleWriter(), Capacity(64), Checked()}, 1},
	{"FlatSet", []Option{CommutingWriters(), Capacity(64)}, 8},
	{"SegmentedSet", []Option{CommutingWriters(), Checked()}, 8},
	{"SWMRSet", []Option{SingleWriter(), Checked()}, 1},
	{"StripedSet", nil, 8},
}

// eachSetRow runs f on every planned set row, built once unrecorded and
// once WithUsageRecording, over a fresh registry of regCap handles.
func eachSetRow(t *testing.T, regCap int, f func(t *testing.T, reg *Registry, s *AdjustedSet[int], writers int)) {
	t.Helper()
	for _, row := range setRowDecls {
		for _, recorded := range []bool{false, true} {
			name := row.rep
			if recorded {
				name += "/recorded"
			}
			t.Run(name, func(t *testing.T) {
				reg := NewRegistry(regCap)
				opts := append([]Option{On(reg)}, row.opts...)
				if recorded {
					opts = append(opts, WithUsageRecording())
				}
				s := Must(Set[int](opts...))
				if got := s.Plan().Rep; got != row.rep {
					t.Fatalf("declaration planned %s, want %s", got, row.rep)
				}
				f(t, reg, s, row.writers)
			})
		}
	}
}

func TestSetBasics(t *testing.T) {
	eachSetRow(t, 2, func(t *testing.T, reg *Registry, s *AdjustedSet[int], _ int) {
		h := reg.MustRegister()
		if s.Contains(1) || s.Remove(h, 1) || s.Len() != 0 {
			t.Fatal("fresh set must be empty")
		}
		s.Range(func(int) bool { t.Fatal("Range visited an element of a fresh set"); return false })
		s.Add(h, 1)
		s.Add(h, 2)
		s.Add(h, 1) // idempotent
		if !s.Contains(1) || !s.Contains(2) || s.Contains(3) {
			t.Fatal("membership wrong")
		}
		if s.Len() != 2 {
			t.Fatalf("len = %d, want 2", s.Len())
		}
		if !s.Remove(h, 1) || s.Remove(h, 1) {
			t.Fatal("remove semantics wrong")
		}
		n := 0
		s.Range(func(int) bool { n++; return true })
		if n != 1 {
			t.Fatalf("Range visited %d, want 1", n)
		}
		s.Add(h, 3)
		n = 0
		s.Range(func(int) bool { n++; return false })
		if n != 1 {
			t.Fatalf("Range went on for %d elements after f returned false", n)
		}
	})
}

func TestSetMatchesOracleQuick(t *testing.T) {
	eachSetRow(t, 2, func(t *testing.T, reg *Registry, s *AdjustedSet[int], _ int) {
		h := reg.MustRegister()
		oracle := map[int]bool{}
		prop := func(ops []uint16) bool {
			for _, raw := range ops {
				x := int(raw % 64)
				switch raw % 3 {
				case 0:
					s.Add(h, x)
					oracle[x] = true
				case 1:
					got := s.Remove(h, x)
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

// TestSetConcurrent fills every set row as its declaration permits — eight
// writers adding disjoint elements, or the single writer adding them all —
// while two readers test membership, then checks the contents are exact.
// `make race` runs it under the race detector.
func TestSetConcurrent(t *testing.T) {
	const elems, readers = 24_000, 2
	eachSetRow(t, 8+readers, func(t *testing.T, reg *Registry, s *AdjustedSet[int], writers int) {
		per := elems / writers
		var wg, rg sync.WaitGroup
		done := make(chan struct{})
		for r := 0; r < readers; r++ {
			rg.Add(1)
			go func() {
				defer rg.Done()
				for x := 0; ; x = (x + 97) % elems {
					select {
					case <-done:
						return
					default:
						s.Contains(x)
					}
				}
			}()
		}
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				h := reg.MustRegister()
				for i := 0; i < per; i++ {
					s.Add(h, w*per+i)
				}
			}(w)
		}
		wg.Wait()
		close(done)
		rg.Wait()
		if s.Len() != elems {
			t.Fatalf("len = %d, want %d", s.Len(), elems)
		}
		for x := 0; x < elems; x += 101 {
			if !s.Contains(x) {
				t.Fatalf("missing element %d", x)
			}
		}
	})
}

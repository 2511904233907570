package dego

// Conformance tests: every library object is driven side by side with its
// Table 1 sequential specification (the spec automaton is the oracle). This
// closes the loop between the theory half of the reproduction and the
// implementation half — the same spec.DataType that yields consensus numbers
// and indistinguishability graphs decides whether the Go objects behave.

import (
	"math/rand"
	"testing"

	"github.com/adjusted-objects/dego/internal/core"
	"github.com/adjusted-objects/dego/internal/counter"
	"github.com/adjusted-objects/dego/internal/queue"
	"github.com/adjusted-objects/dego/internal/ref"
	"github.com/adjusted-objects/dego/internal/spec"
)

func TestCounterConformsToC3(t *testing.T) {
	// The adjusted counter implements (C3, CWSR): blind inc, readable, no
	// reset, no rmw. Drive both with a random op stream.
	c3 := spec.Counter(spec.C3)
	reg := core.NewRegistry(4)
	w, r := reg.MustRegister(), reg.MustRegister()
	impl := counter.NewIncrementOnly(reg, false)
	st := c3.Init

	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		if rng.Intn(3) > 0 {
			impl.Inc(w)
			st, _ = c3.Op("inc").Exec(st)
		} else {
			var v spec.Value
			st, v = c3.Op("get").Exec(st)
			if got := impl.Get(r); !spec.ValueEq(spec.Value(got), v) {
				t.Fatalf("step %d: impl=%d spec=%v", i, got, v)
			}
		}
	}
	// Interface narrowing is structural: IncrementOnly has no Reset and no
	// read-modify-write — the d-arrow of Figure 3 made code, checked by the
	// compiler rather than a runtime assertion.
}

func TestQueueConformsToQ1(t *testing.T) {
	q1 := spec.Queue()
	reg := core.NewRegistry(2)
	h := reg.MustRegister()
	mpsc := queue.NewMPSC[int](nil, false)
	ms := queue.NewMS[int](nil)
	st := q1.Init

	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 3000; i++ {
		if rng.Intn(2) == 0 {
			v := rng.Intn(64)
			mpsc.Offer(h, v)
			ms.Offer(v)
			st, _ = q1.Op("offer", v).Exec(st)
		} else {
			var want spec.Value
			st, want = q1.Op("poll").Exec(st)
			gv, gok := mpsc.Poll(h)
			mv, mok := ms.Poll()
			if spec.IsBottom(want) {
				if gok || mok {
					t.Fatalf("step %d: poll on empty returned a value", i)
				}
			} else if !gok || !mok || gv != want.(int) || mv != want.(int) {
				t.Fatalf("step %d: impl=(%d,%v)/(%d,%v) spec=%v", i, gv, gok, mv, mok, want)
			}
		}
	}
}

func TestRefConformsToR2(t *testing.T) {
	r2 := spec.Ref(spec.R2)
	reg := core.NewRegistry(2)
	h := reg.MustRegister()
	impl := ref.NewWriteOnce[int](reg)
	st := r2.Init
	boxes := map[int]*int{}
	box := func(v int) *int {
		if boxes[v] == nil {
			vv := v
			boxes[v] = &vv
		}
		return boxes[v]
	}

	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 500; i++ {
		if rng.Intn(2) == 0 {
			v := 1 + rng.Intn(4)
			// The spec fails silently when s ≠ ⊥; the implementation
			// reports the failure via TrySet = false. Both leave the state
			// unchanged.
			specBefore := st.(*spec.RefState).Set
			st, _ = r2.Op("set", v).Exec(st)
			got := impl.TrySet(h, box(v))
			if got == specBefore {
				t.Fatalf("step %d: TrySet=%v but spec pre was satisfied=%v", i, got, !specBefore)
			}
		} else {
			var want spec.Value
			st, want = r2.Op("get").Exec(st)
			got := impl.Get(h)
			if spec.IsBottom(want) {
				if got != nil {
					t.Fatalf("step %d: Get=%v, want nil", i, got)
				}
			} else if got == nil || *got != want.(int) {
				t.Fatalf("step %d: Get=%v, want %v", i, got, want)
			}
		}
	}
}

// TestSegmentedSetConformsToS2 drives every planned set row against the
// Table 1 variant its plan declares and against S2: every row keeps S2's
// useful remove, which S3 voids (a weaker adjustment along the same
// r-arrow). Each step checks the variant's postcondition over the set's
// contents before and after the call and the response the call returned;
// Add returns nothing, so an S1 add's hit response is the spec's own and
// only its transition is checked.
func TestSegmentedSetConformsToS2(t *testing.T) {
	contents := func(s *AdjustedSet[int]) *spec.SetState {
		st := spec.NewSetState()
		s.Range(func(x int) bool { st.Elems[x] = true; return true })
		return st
	}
	eachSetRow(t, 2, func(t *testing.T, reg *Registry, s *AdjustedSet[int], _ int) {
		declared, ok := spec.CatalogType(s.Plan().Variant)
		if !ok {
			t.Fatalf("plan declares unknown variant %q", s.Plan().Variant)
		}
		variants := []*spec.DataType{declared, spec.Set(spec.S2)}
		h := reg.MustRegister()
		prev := contents(s)
		rng := rand.New(rand.NewSource(19))
		for i := 0; i < 3000; i++ {
			x := rng.Intn(48)
			var name string
			var r spec.Value // nil while the call returns nothing
			switch rng.Intn(3) {
			case 0:
				name = "add"
				s.Add(h, x)
			case 1:
				name = "remove"
				r = s.Remove(h, x)
			default:
				name = "contains"
				r = s.Contains(x)
			}
			next := contents(s)
			for _, dt := range variants {
				op, resp := dt.Op(name, x), r
				if resp == nil {
					_, resp = op.Exec(prev)
				}
				if !op.PostHolds(prev, next, resp) {
					t.Fatalf("step %d: %s(%d) → %v breaks %s's postcondition", i, name, x, r, dt.Name)
				}
			}
			prev = next
		}
		if s.Len() != len(prev.Elems) {
			t.Fatalf("final size: Len=%d, Range=%d", s.Len(), len(prev.Elems))
		}
	})
}

func TestSegmentedMapConformsToM2(t *testing.T) {
	m2 := spec.Map(spec.M2)
	reg := core.NewRegistry(4)
	h := reg.MustRegister()
	impl := Must(Map[int, int](CommutingWriters(), On(reg), Capacity(64), Buckets(128)))
	st := m2.Init

	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 3000; i++ {
		k := rng.Intn(48)
		switch rng.Intn(3) {
		case 0:
			v := rng.Intn(1000)
			impl.Put(h, k, v)
			st, _ = m2.Op("put", k, v).Exec(st)
		case 1:
			impl.Remove(h, k)
			st, _ = m2.Op("remove", k).Exec(st)
		default:
			var want spec.Value
			st, want = m2.Op("contains", k).Exec(st)
			if got := impl.Contains(k); got != want.(bool) {
				t.Fatalf("step %d: contains(%d)=%v, spec=%v", i, k, got, want)
			}
			// Values agree with the spec state too.
			if sv, ok := st.(*spec.MapState).Entries[k]; ok {
				if got, gok := impl.Get(k); !gok || got != sv {
					t.Fatalf("step %d: get(%d)=(%d,%v), spec=%d", i, k, got, gok, sv)
				}
			}
		}
	}
}

package dego

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// Integration tests exercise the public facade end to end: every object is
// constructed through the profile API the way the README shows, across
// goroutines, under -race in CI.

func TestFacadeCounterFamily(t *testing.T) {
	reg := NewRegistry(16)
	c := Must(Counter(Blind(), SingleReader(), On(reg)))
	ad := Must(Counter(Blind(), Capacity(8)))
	at := Must(Counter())

	if got, want := c.Plan().Rep, "IncrementOnlyCounter"; got != want {
		t.Fatalf("CWSR counter planned %q, want %q", got, want)
	}
	if got, want := ad.Plan().Rep, "Adder"; got != want {
		t.Fatalf("blind counter planned %q, want %q", got, want)
	}
	if got, want := at.Plan().Rep, "AtomicCounter"; got != want {
		t.Fatalf("unadjusted counter planned %q, want %q", got, want)
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := reg.MustRegister()
			defer h.Release()
			for j := 0; j < 10_000; j++ {
				c.Inc(h)
				ad.Inc(h)
				at.Inc(h)
			}
		}()
	}
	wg.Wait()
	reader := reg.MustRegister()
	defer reader.Release()
	const want = 80_000
	if got := c.Get(reader); got != want {
		t.Errorf("Counter = %d, want %d", got, want)
	}
	if got := ad.Get(reader); got != want {
		t.Errorf("Adder = %d, want %d", got, want)
	}
	if got := at.Get(reader); got != want {
		t.Errorf("AtomicCounter = %d, want %d", got, want)
	}
}

func TestFacadeWriteOnceAndRCU(t *testing.T) {
	reg := NewRegistry(8)
	h := reg.MustRegister()
	w := Must(Ref[string](nil, WriteOnce(), On(reg)))
	v1, v2 := "a", "b"
	if err := w.Set(h, &v1); err != nil {
		t.Fatal(err)
	}
	if err := w.Set(h, &v2); !errors.Is(err, ErrAlreadySet) {
		t.Fatalf("err = %v, want ErrAlreadySet", err)
	}
	if got := w.Get(h); got != &v1 {
		t.Fatal("write-once value lost")
	}

	box := Must(Ref(&[]string{"x"}, SingleWriter()))
	if got, want := box.Plan().Rep, "RCUBox"; got != want {
		t.Fatalf("SWMR ref planned %q, want %q", got, want)
	}
	box.Update(h, func(old *[]string) *[]string {
		next := append(append([]string(nil), *old...), "y")
		return &next
	})
	if got := *box.Get(h); len(got) != 2 || got[1] != "y" {
		t.Fatalf("RCU snapshot = %v", got)
	}

	r := Must(Ref[int](nil)).rep.(atomicRefRep[int]).r
	one := 1
	if !r.CompareAndSet(nil, &one) || r.Get() != &one {
		t.Fatal("AtomicRef CAS broken")
	}
}

func TestFacadeQueuesPipeline(t *testing.T) {
	reg := NewRegistry(8)
	mpsc := Must(Queue[int](SingleReader()))
	ms := Must(Queue[int]())

	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			h := reg.MustRegister()
			defer h.Release()
			for i := 0; i < 5_000; i++ {
				mpsc.Offer(h, p*5_000+i)
				ms.Offer(h, p*5_000+i)
			}
		}(p)
	}
	wg.Wait()
	consumer := reg.MustRegister()
	defer consumer.Release()
	got := 0
	for {
		if _, ok := mpsc.Poll(consumer); !ok {
			break
		}
		got++
	}
	if got != 20_000 {
		t.Errorf("MPSC drained %d, want 20000", got)
	}
	if n := ms.rep.(msQueueRep[int]).q.Len(); n != 20_000 {
		t.Errorf("MS len = %d, want 20000", n)
	}
}

func TestFacadeMapsAgree(t *testing.T) {
	reg := NewRegistry(8)
	h := reg.MustRegister()
	seg := Must(Map[string, int](CommutingWriters(), On(reg), Capacity(128), Buckets(256)))
	swmr := Must(Map[string, int](SingleWriter(), Capacity(128)))
	striped := Must(Map[string, int](Stripes(16), Capacity(128)))
	oracle := map[string]int{}

	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("k%d", i%97)
		seg.Put(h, k, i)
		swmr.Put(h, k, i)
		striped.Put(h, k, i)
		oracle[k] = i
		if i%5 == 0 {
			seg.Remove(h, k)
			swmr.Remove(h, k)
			striped.Remove(h, k)
			delete(oracle, k)
		}
	}
	for k, want := range oracle {
		for name, get := range map[string]func(string) (int, bool){
			"segmented": seg.Get,
			"swmr":      swmr.Get,
			"striped":   striped.Get,
		} {
			if got, ok := get(k); !ok || got != want {
				t.Fatalf("%s.Get(%s) = (%d,%v), want %d", name, k, got, ok, want)
			}
		}
	}
	if seg.Len() != len(oracle) || swmr.Len() != len(oracle) || striped.Len() != len(oracle) {
		t.Fatalf("lens: seg=%d swmr=%d striped=%d oracle=%d",
			seg.Len(), swmr.Len(), striped.Len(), len(oracle))
	}
}

func TestFacadeSkipListsOrdered(t *testing.T) {
	reg := NewRegistry(8)
	h := reg.MustRegister()
	seg := Must(Ordered[int, string](CommutingWriters(), On(reg), Buckets(256)))
	swmr := Must(Ordered[int, string](SingleWriter()))
	conc := Must(Ordered[int, string]())

	for _, k := range []int{5, 1, 9, 3, 7} {
		v := fmt.Sprintf("v%d", k)
		seg.Put(h, k, v)
		swmr.Put(h, k, v)
		conc.Put(h, k, v)
	}
	wantOrder := []int{1, 3, 5, 7, 9}
	check := func(name string, rng func(func(int, string) bool)) {
		var got []int
		rng(func(k int, v string) bool {
			got = append(got, k)
			return true
		})
		if len(got) != len(wantOrder) {
			t.Fatalf("%s: %v", name, got)
		}
		for i := range wantOrder {
			if got[i] != wantOrder[i] {
				t.Fatalf("%s order = %v", name, got)
			}
		}
	}
	check("segmented", seg.Range)
	check("swmr", swmr.Range)
	check("concurrent", conc.Range)

	// RangeFrom and RangeBetween hold on every representation.
	for name, o := range map[string]*AdjustedOrdered[int, string]{
		"segmented": seg, "swmr": swmr, "concurrent": conc,
	} {
		var from []int
		o.RangeFrom(5, func(k int, _ string) bool { from = append(from, k); return true })
		if len(from) != 3 || from[0] != 5 || from[2] != 9 {
			t.Fatalf("%s RangeFrom(5) = %v", name, from)
		}
		var between []int
		o.RangeBetween(3, 9, func(k int, _ string) bool { between = append(between, k); return true })
		if len(between) != 3 || between[0] != 3 || between[2] != 7 {
			t.Fatalf("%s RangeBetween(3,9) = %v", name, between)
		}
	}
}

func TestFacadeSetsAndGuards(t *testing.T) {
	reg := NewRegistry(8)
	h := reg.MustRegister()
	seg := Must(Set[int](CommutingWriters(), On(reg), Capacity(64)))
	striped := Must(Set[int](Stripes(8), Capacity(64)))
	for i := 0; i < 50; i++ {
		seg.Add(h, i)
		striped.Add(h, i)
	}
	if seg.Len() != 50 || striped.Len() != 50 {
		t.Fatal("set lens wrong")
	}

	// Guards on: a second consumer on a checked MPSC queue must panic.
	q := Must(Queue[int](SingleReader(), Checked()))
	c1, c2 := reg.MustRegister(), reg.MustRegister()
	q.Offer(c1, 1)
	q.Offer(c2, 2)
	if _, ok := q.Poll(c1); !ok {
		t.Fatal("consumer poll failed")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second consumer did not trip the guard")
			}
		}()
		q.Poll(c2)
	}()
}

func TestModesExported(t *testing.T) {
	for _, m := range []Mode{ModeAll, ModeSWMR, ModeMWSR, ModeCWMR, ModeCWSR} {
		if !m.Valid() {
			t.Errorf("mode %v invalid through facade", m)
		}
	}
}

func TestFacadeScalesWithGOMAXPROCS(t *testing.T) {
	// Sanity: the adjusted counter completes a parallel workload without
	// degrading by orders of magnitude versus sequential — a cheap guard
	// against accidental serialization (full scalability claims live in the
	// benchmarks).
	procs := runtime.GOMAXPROCS(0)
	if procs < 2 {
		t.Skip("single-proc environment")
	}
	reg := NewRegistry(procs + 1)
	c := Must(Counter(Blind(), SingleReader(), On(reg)))
	var wg sync.WaitGroup
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := reg.MustRegister()
			defer h.Release()
			for j := 0; j < 200_000; j++ {
				c.Inc(h)
			}
		}()
	}
	wg.Wait()
	r := reg.MustRegister()
	if got := c.Get(r); got != int64(procs)*200_000 {
		t.Fatalf("count = %d", got)
	}
}

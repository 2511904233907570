package dego

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// TestConcurrentConstruction builds objects from many goroutines at once, as
// a program registering users on several threads does. Construction shares
// three things across calls: the memoised decisions, the interned plans and
// the recycled profiles. Each object's Plan must equal the one a sequential
// build makes, equal declarations must share one interned *Plan, also when
// they are planned for the first time at once, and no adaptive map's range
// count may leak into another's plan. `make race` runs it under the
// detector.
func TestConcurrentConstruction(t *testing.T) {
	reg := NewRegistry(8)
	type kind struct {
		name  string
		build func() *Plan
	}
	kinds := []kind{
		{"Queue(SingleReader)", func() *Plan { return Must(Queue[int](SingleReader())).plan }},
		{"segmented Map", func() *Plan {
			return Must(Map[int, int](CommutingWriters(), On(reg), Capacity(16), Buckets(32), WithHash(HashInt))).plan
		}},
	}
	ranges := []int{1, 2, 4, 8}
	for _, n := range ranges {
		kinds = append(kinds, kind{fmt.Sprintf("adaptive Map, Ranges(%d)", n), func() *Plan {
			return Must(Map[int, int](CommutingWriters(), Adaptive(Ranges(n)), On(reg), Capacity(16))).plan
		}})
	}
	want := make([]*Plan, len(kinds))
	for i, k := range kinds {
		want[i] = k.build()
	}
	for i, n := range ranges {
		if got := want[2+i].Ranges; got != n {
			t.Fatalf("%s planned %d ranges", kinds[2+i].name, got)
		}
	}

	const goroutines, rounds = 4, 64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(kinds)
				got := kinds[i].build()
				if *got != *want[i] {
					t.Errorf("%s: concurrent build planned %+v, sequential %+v", kinds[i].name, *got, *want[i])
				}
				if got != want[i] {
					t.Errorf("%s: concurrent build has its own plan, not the interned one", kinds[i].name)
				}
			}
		}(g)
	}
	wg.Wait()

	// A declaration no goroutine has planned yet, made by GOMAXPROCS
	// goroutines at once: each misses the memo and the intern table, and
	// all must still get one *Plan. Emptying the intern table leaves the
	// objects built above with their plans; only a later build of the same
	// declaration gets a fresh pointer.
	forgetDecisions()
	plans.Lock()
	plans.m = nil
	plans.Unlock()
	procs := runtime.GOMAXPROCS(0)
	got := make([]*Plan, procs)
	start := make(chan struct{})
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[g] = kinds[0].build()
		}()
	}
	close(start)
	wg.Wait()
	for g, p := range got {
		if p != got[0] || *p != *want[0] {
			t.Errorf("goroutine %d planned %p %+v, goroutine 0 %p %+v", g, p, *p, got[0], *got[0])
		}
	}

	// declare recycles its profile zeroed: the pool must not keep a
	// caller's registry or hash reachable.
	if _, _, _, err := declare(&mapType,
		[]Option{CommutingWriters(), Adaptive(), On(reg), WithHash(HashInt)}, false); err != nil {
		t.Fatal(err)
	}
	p := profiles.Get().(*profile)
	defer profiles.Put(p)
	if p.registry != nil || p.hash != nil {
		t.Errorf("recycled profile keeps registry %p, hash %v", p.registry, p.hash != nil)
	}
}

// BenchmarkConstruct times construction from every goroutine at once, as a
// program registering users on several threads does: the Retwis DEGO row's
// per-user timeline queue, its table declaration (a pointer-valued
// segmented map) and a segmented set. Every call repeats one declaration,
// so after the first it is a memo hit; what is left is folding the options
// and building the representation.
func BenchmarkConstruct(b *testing.B) {
	reg := NewRegistry(8)
	for _, c := range []struct {
		name  string
		build func()
	}{
		{"QueueSingleReader", func() { Must(Queue[int](SingleReader())) }},
		{"MapDEGO", func() {
			Must(Map[int, *int](Capacity(16), CommutingWriters(), On(reg), Buckets(32), WithHash(HashInt)))
		}},
		{"SetSegmented", func() {
			Must(Set[int](Capacity(16), CommutingWriters(), On(reg), Buckets(32), WithHash(HashInt)))
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					c.build()
				}
			})
		})
	}
}

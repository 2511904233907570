package dego

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentConstruction builds objects from many goroutines at once, as
// a program registering users on several threads does. Construction shares
// two things across calls: the interned plans and the recycled profiles.
// Each object's Plan must equal the one a sequential build makes, equal
// declarations must share one interned *Plan, and no adaptive map's range
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

	// declare recycles its profile zeroed: the pool must not keep a
	// caller's registry or hash reachable.
	if _, _, _, err := declare("Map", mapTakes,
		[]Option{CommutingWriters(), Adaptive(), On(reg), WithHash(HashInt)},
		mapRows, false); err != nil {
		t.Fatal(err)
	}
	p := profiles.Get().(*profile)
	defer profiles.Put(p)
	if p.registry != nil || p.hash != nil {
		t.Errorf("recycled profile keeps registry %p, hash %v", p.registry, p.hash != nil)
	}
}

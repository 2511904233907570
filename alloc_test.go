//go:build !race

package dego

import (
	"testing"
	"unsafe"
)

// Allocation ceilings of construction and of the facade's hot paths, per
// call of the row's function. Timing on a shared box cannot hold a line;
// these counts repeat exactly, so they can. A change may lower a number
// here, never raise one. (The race detector allocates on its own, hence
// the build tag; `make cover` runs this file.)
//
// Construction counts matter because a program may build one object per
// user: the Retwis program plans one timeline queue per user, and a queue's
// facade and representation are one allocation (its plan is interned, its
// profile recycled). A segmented
// Put of a present key pays one value box, of a fresh key the box and its
// directory node (a set's empty value needs no box); an MPSC Offer pays one
// node.
func TestAllocCeilings(t *testing.T) {
	reg := NewRegistry(8)
	h := Must(reg.Register())
	segmented := Must(Map[int, int](CommutingWriters(), On(reg), Capacity(16), Buckets(32), WithHash(HashInt)))
	segSet := Must(Set[int](CommutingWriters(), On(reg), Capacity(16), Buckets(32), WithHash(HashInt)))
	flat := Must(Map[int, int](CommutingWriters(), On(reg), Capacity(16)))
	recorded := Must(Map[int, int](CommutingWriters(), On(reg), Capacity(16), WithUsageRecording()))
	set := Must(Set[int](CommutingWriters(), On(reg), Capacity(16)))
	mpsc := Must(Queue[int](SingleReader(), On(reg)))
	for k := 0; k < 8; k++ {
		segmented.Put(h, k, k)
		flat.Put(h, k, k)
		recorded.Put(h, k, k)
		set.Add(h, k)
	}
	if segmented.Plan().Rep != "SegmentedMap" || segSet.Plan().Rep != "SegmentedSet" {
		t.Fatalf("segmented rows planned %s and %s", segmented.Plan().Rep, segSet.Plan().Rep)
	}
	fresh := 1 << 20 // keys above every key stored so far

	for _, row := range []struct {
		name    string
		ceiling float64
		f       func()
	}{
		{"Queue(SingleReader())", 1, func() {
			Must(Queue[int](SingleReader()))
		}},
		{"Map(CommutingWriters, On, Capacity, Buckets, WithHash)", 6, func() {
			Must(Map[int, int](CommutingWriters(), On(reg), Capacity(16), Buckets(32), WithHash(HashInt)))
		}},
		{"Set(CommutingWriters, On, Capacity)", 15, func() {
			Must(Set[int](CommutingWriters(), On(reg), Capacity(16)))
		}},
		{"segmented AdjustedMap.Get", 0, func() { segmented.Get(3) }},
		{"segmented AdjustedMap.Put, present key", 1, func() { segmented.Put(h, 3, 4) }},
		{"segmented AdjustedMap.Put, fresh key", 2, func() { fresh++; segmented.Put(h, fresh, 4) }},
		{"segmented AdjustedSet.Add, fresh element", 1, func() { fresh++; segSet.Add(h, fresh) }},
		{"flat AdjustedMap.Get and Put", 0, func() { flat.Get(3); flat.Put(h, 3, 4) }},
		{"recorded AdjustedMap.Put", 0, func() { recorded.Put(h, 3, 4) }},
		{"AdjustedSet.Contains", 0, func() { set.Contains(3) }},
		{"MPSC AdjustedQueue.Offer and Poll", 1, func() { mpsc.Offer(h, 1); mpsc.Poll(h) }},
	} {
		for i := 0; i < 64; i++ {
			row.f() // reach steady state
		}
		if got := testing.AllocsPerRun(200, row.f); got > row.ceiling {
			t.Errorf("%s: %v allocations per run, ceiling %v", row.name, got, row.ceiling)
		} else if got < row.ceiling {
			t.Logf("%s: %v allocations per run, ceiling %v — lower the ceiling", row.name, got, row.ceiling)
		}
	}
}

// TestWrapperSizes pins each Adjusted* wrapper at what one object holds, in
// machine words: an interned *Plan, the representation behind its planner
// view (an interface, two words), the adaptive object where one is planned,
// the probe and recorder it reports through, and a keyed object's recording
// hash. A per-user object pays this on top of its representation.
func TestWrapperSizes(t *testing.T) {
	const word = unsafe.Sizeof(uintptr(0))
	for _, row := range []struct {
		name  string
		size  uintptr
		words uintptr
	}{
		{"AdjustedCounter", unsafe.Sizeof(AdjustedCounter{}), 6},
		{"AdjustedMap", unsafe.Sizeof(AdjustedMap[int, int]{}), 7},
		{"AdjustedSet", unsafe.Sizeof(AdjustedSet[int]{}), 7},
		{"AdjustedOrdered", unsafe.Sizeof(AdjustedOrdered[int, int]{}), 7},
		{"AdjustedQueue", unsafe.Sizeof(AdjustedQueue[int]{}), 5},
		{"AdjustedRef", unsafe.Sizeof(AdjustedRef[int]{}), 4},
	} {
		if row.size != row.words*word {
			t.Errorf("%s is %d bytes, want %d words (%d bytes)", row.name, row.size, row.words, row.words*word)
		}
	}
}

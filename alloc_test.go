//go:build !race

package dego

import (
	"fmt"
	"testing"
	"unsafe"

	"github.com/adjusted-objects/dego/internal/alloctest"
	"github.com/adjusted-objects/dego/internal/queue"
)

// Allocation and byte ceilings of construction and of the facade's hot
// paths, per call of the row's function. Timing on
// a shared box cannot hold a line; these counts repeat exactly, so they
// can. A change may lower a number here, never raise one. (The race
// detector allocates on its own, hence the build tag; `make cover` runs
// this file.)
//
// Construction counts matter because a program may build one object per
// user: the Retwis program plans one timeline queue per user, and a queue's
// facade and representation are one allocation (its plan is interned, its
// profile recycled). A segmented
// Put of a present key pays one value box (also right after a Remove, which
// keeps the key's node), of a fresh key the box and a sixteenth of its
// owner's slab of directory nodes (a set's empty value needs no box); a
// pointer value needs no box either, in the segmented map and the SWMR map
// alike, since the node's cell stores the pointer as it is; an SWMR map's
// fresh key pays its whole node; an adaptive map's Put boxes its value in
// every state, so a promotion can store the box as it is; an MPSC Offer pays
// one node.
func TestAllocCeilings(t *testing.T) {
	reg := NewRegistry(8)
	h := Must(reg.Register())
	segmented := Must(Map[int, int](CommutingWriters(), On(reg), Capacity(16), Buckets(32), WithHash(HashInt)))
	segSet := Must(Set[int](CommutingWriters(), On(reg), Capacity(16), Buckets(32), WithHash(HashInt)))
	flat := Must(Map[int, int](CommutingWriters(), On(reg), Capacity(16)))
	adaptive := Must(Map[int, int](CommutingWriters(), Adaptive(), On(reg), Capacity(16)))
	// The promoted map never samples, so no controller demotes it while its
	// rows run.
	promoted := Must(Map[int, int](CommutingWriters(), Adaptive(WithPolicy(AdaptivePolicy{SampleEvery: 1 << 62})), On(reg), Capacity(16)))
	recorded := Must(Map[int, int](CommutingWriters(), On(reg), Capacity(16), WithUsageRecording()))
	// Pointer-valued maps on the segmented and the served (SWMR) rows. The
	// SWMR map holds every fresh key of its rows without growing its table.
	ptrSegmented := Must(Map[int, *int](CommutingWriters(), On(reg), Capacity(16), Buckets(32), WithHash(HashInt)))
	ptrSWMR := Must(Map[string, *int](SingleWriter(), On(reg), Capacity(4096)))
	freshKeys := make([]string, 2048)
	for i := range freshKeys {
		freshKeys[i] = fmt.Sprint("fresh", i)
	}
	// The other wrappers, each built once unrecorded and once recorded:
	// recording is itself allocation-free.
	v := 1
	type hot struct {
		counter *AdjustedCounter
		ref     *AdjustedRef[int]
		ordered *AdjustedOrdered[int, int]
		mpsc    *AdjustedQueue[int]
	}
	hots := make([]hot, 2)
	for i := range hots {
		opts := []Option{On(reg)}
		if i == 1 {
			opts = append(opts, WithUsageRecording())
		}
		hots[i] = hot{
			counter: Must(Counter(append(opts, Blind())...)),
			ref:     Must(Ref(&v, opts...)),
			ordered: Must(Ordered[int, int](append(opts, CommutingWriters())...)),
			mpsc:    Must(Queue[int](append(opts, SingleReader())...)),
		}
		hots[i].ordered.Put(h, 3, 3)
	}
	unrec, rec := hots[0], hots[1]
	// An ordered scan walks the segmented list in place: a RangeBetween over
	// two keys and a full Range cost the same however many keys it holds.
	small := Must(Ordered[int, int](CommutingWriters(), On(reg)))
	large := Must(Ordered[int, int](CommutingWriters(), On(reg)))
	for k := 0; k < 100_000; k++ {
		if k < 1_000 {
			small.Put(h, k, k)
		}
		large.Put(h, k, k)
	}
	visit := func(int, int) bool { return true }
	for k := 0; k < 8; k++ {
		segmented.Put(h, k, k)
		flat.Put(h, k, k)
		adaptive.Put(h, k, k)
		promoted.Put(h, k, k)
		recorded.Put(h, k, k)
		ptrSegmented.Put(h, k, &v)
		ptrSWMR.Put(h, fmt.Sprint(k), &v)
	}
	if segmented.Plan().Rep != "SegmentedMap" || segSet.Plan().Rep != "SegmentedSet" {
		t.Fatalf("segmented rows planned %s and %s", segmented.Plan().Rep, segSet.Plan().Rep)
	}
	if ptrSegmented.Plan().Rep != "SegmentedMap" || ptrSWMR.Plan().Rep != "SWMRMap" {
		t.Fatalf("pointer-valued rows planned %s and %s", ptrSegmented.Plan().Rep, ptrSWMR.Plan().Rep)
	}
	if adaptive.Plan().Rep != "AdaptiveMap" {
		t.Fatalf("adaptive row planned %s", adaptive.Plan().Rep)
	}
	// The promoted map's keys 0..7 stay in the frozen striped backing; after
	// the promotion key 1 is shadowed by the segmented map and key 2 masked
	// by a tombstone.
	if !promoted.Adaptive().ForcePromote() {
		t.Fatal("ForcePromote refused a quiescent adaptive map")
	}
	promoted.Put(h, 1, 11)
	promoted.Remove(h, 2)
	// An adaptive map's first contention sample, after SampleEvery writes,
	// sizes the sampler's two tally slices once; write past it, so that the
	// rows measure the steady state.
	for i := 0; i < 2*DefaultAdaptivePolicy().SampleEvery; i++ {
		adaptive.Put(h, 3, 3)
	}
	fresh := 1 << 20 // keys above every key stored so far
	// A segmented directory takes fresh nodes from its owner's slab, 16
	// nodes of 32 B once the slabs have grown, so the fresh-key rows insert
	// 16 keys a call: any 16 takes in a row open exactly one slab, and a
	// window of single inserts would split one.
	const slab = 16

	// Construction pins bytes beside allocations: a per-user object's
	// footprint is what it allocates, not how often.
	for _, row := range []struct {
		name                  string
		ceilAllocs, ceilBytes float64
		f                     func()
	}{
		{"Queue(SingleReader())", 1, 112, func() {
			Must(Queue[int](SingleReader()))
		}},
		{"Map(CommutingWriters, On, Capacity, Buckets, WithHash)", 6, 1544, func() {
			Must(Map[int, int](CommutingWriters(), On(reg), Capacity(16), Buckets(32), WithHash(HashInt)))
		}},
		{"Set(CommutingWriters, On, Capacity)", 14, 2416, func() {
			Must(Set[int](CommutingWriters(), On(reg), Capacity(16)))
		}},
	} {
		alloctest.Check(t, row.name, row.ceilAllocs, row.ceilBytes, row.f)
	}

	type allocRow struct {
		name                  string
		ceilAllocs, ceilBytes float64
		f                     func()
	}
	rows := []allocRow{
		{"segmented AdjustedMap.Get", 0, 0, func() { segmented.Get(3) }},
		{"segmented AdjustedMap.Put, present key", 1, 8, func() { segmented.Put(h, 3, 4) }},
		{"segmented AdjustedMap.Put, 16 fresh keys", 17, 640, func() {
			for range slab {
				fresh++
				segmented.Put(h, fresh, 4)
			}
		}},
		{"segmented AdjustedSet.Add, 16 fresh elements", 1, 512, func() {
			for range slab {
				fresh++
				segSet.Add(h, fresh)
			}
		}},
		{"pointer-valued segmented AdjustedMap.Put, present key", 0, 0, func() { ptrSegmented.Put(h, 3, nil); ptrSegmented.Put(h, 3, &v) }},
		{"pointer-valued segmented AdjustedMap.Put, 16 fresh keys", 1, 512, func() {
			for range slab {
				fresh++
				ptrSegmented.Put(h, fresh, &v)
			}
		}},
		{"pointer-valued SWMR AdjustedMap.Put, present key", 0, 0, func() { ptrSWMR.Put(h, "3", nil); ptrSWMR.Put(h, "3", &v) }},
		{"pointer-valued SWMR AdjustedMap.Put, fresh key", 1, 48, func() { ptrSWMR.Put(h, freshKeys[0], &v); freshKeys = freshKeys[1:] }},
		{"adaptive AdjustedMap.Get", 0, 0, func() { adaptive.Get(3) }},
		{"adaptive AdjustedMap.Put, present key", 1, 8, func() { adaptive.Put(h, 3, 4) }},
		{"promoted adaptive AdjustedMap.Get, shadowed key", 0, 0, func() { promoted.Get(1) }},
		{"promoted adaptive AdjustedMap.Get, backed key", 0, 0, func() { promoted.Get(3) }},
		{"promoted adaptive AdjustedMap.Get, tombstoned key", 0, 0, func() { promoted.Get(2) }},
		{"promoted adaptive AdjustedMap.Put, present key", 1, 8, func() { promoted.Put(h, 4, 5) }},
		{"promoted adaptive AdjustedMap.Remove then Put of a backed key", 1, 8, func() { promoted.Remove(h, 5); promoted.Put(h, 5, 5) }},
		{"flat AdjustedMap.Get and Put", 0, 0, func() { flat.Get(3); flat.Put(h, 3, 4) }},
		{"recorded AdjustedMap.Put", 0, 0, func() { recorded.Put(h, 3, 4) }},
		{"MPSC AdjustedQueue.Offer and Poll", 1, 16, func() { unrec.mpsc.Offer(h, 1); unrec.mpsc.Poll(h) }},
		{"AdjustedCounter.Inc and Get", 0, 0, func() { unrec.counter.Inc(h); unrec.counter.Get(h) }},
		{"recorded AdjustedCounter.Inc and Get", 0, 0, func() { rec.counter.Inc(h); rec.counter.Get(h) }},
		{"AdjustedRef.Get and Set", 0, 0, func() { unrec.ref.Set(h, unrec.ref.Get(h)) }},
		{"recorded AdjustedRef.Get and Set", 0, 0, func() { rec.ref.Set(h, rec.ref.Get(h)) }},
		{"segmented AdjustedOrdered.Get", 0, 0, func() { unrec.ordered.Get(3) }},
		{"recorded segmented AdjustedOrdered.Get", 0, 0, func() { rec.ordered.Get(3) }},
		{"recorded MPSC AdjustedQueue.Offer and Poll", 1, 16, func() { rec.mpsc.Offer(h, 1); rec.mpsc.Poll(h) }},
		{"segmented AdjustedOrdered.Put, present key", 1, 8, func() { unrec.ordered.Put(h, 3, 4) }},
		{"segmented AdjustedOrdered.Remove then Put of the same key", 1, 8, func() { unrec.ordered.Remove(h, 3); unrec.ordered.Put(h, 3, 3) }},
		{"segmented AdjustedOrdered.RangeBetween, 2 of 1 k keys", 0, 0, func() { small.RangeBetween(10, 12, visit) }},
		{"segmented AdjustedOrdered.RangeBetween, 2 of 100 k keys", 0, 0, func() { large.RangeBetween(10, 12, visit) }},
		{"segmented AdjustedOrdered.Range, 1 k keys", 0, 0, func() { small.Range(visit) }},
		{"segmented AdjustedOrdered.Range, 100 k keys", 0, 0, func() { large.Range(visit) }},
	}
	// Every set row, unrecorded and recorded. A set's Range wraps the
	// visitor in a key-only adapter that escapes through the planner view's
	// interface call: one allocation a call.
	visitSet := func(int) bool { return true }
	for _, decl := range setRowDecls {
		for _, prefix := range []string{"", "recorded "} {
			opts := append([]Option{On(reg)}, decl.opts...)
			if prefix != "" {
				opts = append(opts, WithUsageRecording())
			}
			s := Must(Set[int](opts...))
			for k := 0; k < 8; k++ {
				s.Add(h, k)
			}
			name := prefix + decl.rep + " AdjustedSet."
			rows = append(rows,
				allocRow{name + "Add and Contains", 0, 0, func() { s.Add(h, 3); s.Contains(3) }},
				allocRow{name + "Range, 8 elements", 1, 24, func() { s.Range(visitSet) }})
		}
	}
	for _, row := range rows {
		alloctest.Check(t, row.name, row.ceilAllocs, row.ceilBytes, row.f)
	}
}

// TestWrapperSizes pins each Adjusted* wrapper at what one object holds, in
// machine words: an interned *Plan and the representation behind its
// planner view (an interface, two words). A recorder lives in the recording
// decorator, not here. A per-user object pays this on top of its
// representation.
func TestWrapperSizes(t *testing.T) {
	const word = unsafe.Sizeof(uintptr(0))
	for _, row := range []struct {
		name  string
		size  uintptr
		words uintptr
	}{
		{"AdjustedCounter", unsafe.Sizeof(AdjustedCounter{}), 3},
		{"AdjustedMap", unsafe.Sizeof(AdjustedMap[int, int]{}), 3},
		{"AdjustedSet", unsafe.Sizeof(AdjustedSet[int]{}), 3},
		{"AdjustedOrdered", unsafe.Sizeof(AdjustedOrdered[int, int]{}), 3},
		{"AdjustedQueue", unsafe.Sizeof(AdjustedQueue[int]{}), 3},
		{"AdjustedRef", unsafe.Sizeof(AdjustedRef[int]{}), 3},
	} {
		if row.size != row.words*word {
			t.Errorf("%s is %d bytes, want %d words (%d bytes)", row.name, row.size, row.words, row.words*word)
		}
	}
}

// TestQueueWithSize pins one per-user MPSC queue, facade and representation
// together, for a 16-byte element (a Retwis tweet): 120 B, within the two
// cache lines of the head and the tail. The allocation rounds up to Go's
// 128 B size class, so the 8 B short of two lines are no saving per user.
func TestQueueWithSize(t *testing.T) {
	type t16 struct{ a, b int64 }
	if size := unsafe.Sizeof(queueWith[t16, queue.MPSC[t16]]{}); size > 120 {
		t.Errorf("an MPSC queue of a 16-byte element is %d bytes with its facade, want at most 120", size)
	}
}

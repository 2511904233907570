//go:build !race

package dego

import (
	"testing"
	"unsafe"

	"github.com/adjusted-objects/dego/internal/queue"
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
// Put of a present key pays one value box (also right after a Remove, which
// keeps the key's node), of a fresh key the box and its directory node (a
// set's empty value needs no box); an adaptive map's Put boxes its value in
// every state, so a promotion can store the box as it is; an MPSC Offer
// pays one node.
func TestAllocCeilings(t *testing.T) {
	reg := NewRegistry(8)
	h := Must(reg.Register())
	segmented := Must(Map[int, int](CommutingWriters(), On(reg), Capacity(16), Buckets(32), WithHash(HashInt)))
	segSet := Must(Set[int](CommutingWriters(), On(reg), Capacity(16), Buckets(32), WithHash(HashInt)))
	flat := Must(Map[int, int](CommutingWriters(), On(reg), Capacity(16)))
	adaptive := Must(Map[int, int](CommutingWriters(), Adaptive(), On(reg), Capacity(16)))
	promoted := Must(Map[int, int](CommutingWriters(), Adaptive(), On(reg), Capacity(16)))
	recorded := Must(Map[int, int](CommutingWriters(), On(reg), Capacity(16), WithUsageRecording()))
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
	}
	if segmented.Plan().Rep != "SegmentedMap" || segSet.Plan().Rep != "SegmentedSet" {
		t.Fatalf("segmented rows planned %s and %s", segmented.Plan().Rep, segSet.Plan().Rep)
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
	fresh := 1 << 20 // keys above every key stored so far

	type allocRow struct {
		name    string
		ceiling float64
		f       func()
	}
	rows := []allocRow{
		{"Queue(SingleReader())", 1, func() {
			Must(Queue[int](SingleReader()))
		}},
		{"Map(CommutingWriters, On, Capacity, Buckets, WithHash)", 6, func() {
			Must(Map[int, int](CommutingWriters(), On(reg), Capacity(16), Buckets(32), WithHash(HashInt)))
		}},
		{"Set(CommutingWriters, On, Capacity)", 14, func() {
			Must(Set[int](CommutingWriters(), On(reg), Capacity(16)))
		}},
		{"segmented AdjustedMap.Get", 0, func() { segmented.Get(3) }},
		{"segmented AdjustedMap.Put, present key", 1, func() { segmented.Put(h, 3, 4) }},
		{"segmented AdjustedMap.Put, fresh key", 2, func() { fresh++; segmented.Put(h, fresh, 4) }},
		{"segmented AdjustedSet.Add, fresh element", 1, func() { fresh++; segSet.Add(h, fresh) }},
		{"adaptive AdjustedMap.Get", 0, func() { adaptive.Get(3) }},
		{"adaptive AdjustedMap.Put, present key", 1, func() { adaptive.Put(h, 3, 4) }},
		{"promoted adaptive AdjustedMap.Get, shadowed key", 0, func() { promoted.Get(1) }},
		{"promoted adaptive AdjustedMap.Get, backed key", 0, func() { promoted.Get(3) }},
		{"promoted adaptive AdjustedMap.Get, tombstoned key", 0, func() { promoted.Get(2) }},
		{"promoted adaptive AdjustedMap.Put, present key", 1, func() { promoted.Put(h, 4, 5) }},
		{"promoted adaptive AdjustedMap.Remove then Put of a backed key", 1, func() { promoted.Remove(h, 5); promoted.Put(h, 5, 5) }},
		{"flat AdjustedMap.Get and Put", 0, func() { flat.Get(3); flat.Put(h, 3, 4) }},
		{"recorded AdjustedMap.Put", 0, func() { recorded.Put(h, 3, 4) }},
		{"MPSC AdjustedQueue.Offer and Poll", 1, func() { unrec.mpsc.Offer(h, 1); unrec.mpsc.Poll(h) }},
		{"AdjustedCounter.Inc and Get", 0, func() { unrec.counter.Inc(h); unrec.counter.Get(h) }},
		{"recorded AdjustedCounter.Inc and Get", 0, func() { rec.counter.Inc(h); rec.counter.Get(h) }},
		{"AdjustedRef.Get and Set", 0, func() { unrec.ref.Set(h, unrec.ref.Get(h)) }},
		{"recorded AdjustedRef.Get and Set", 0, func() { rec.ref.Set(h, rec.ref.Get(h)) }},
		{"segmented AdjustedOrdered.Get", 0, func() { unrec.ordered.Get(3) }},
		{"recorded segmented AdjustedOrdered.Get", 0, func() { rec.ordered.Get(3) }},
		{"recorded MPSC AdjustedQueue.Offer and Poll", 1, func() { rec.mpsc.Offer(h, 1); rec.mpsc.Poll(h) }},
		{"segmented AdjustedOrdered.Put, present key", 1, func() { unrec.ordered.Put(h, 3, 4) }},
		{"segmented AdjustedOrdered.Remove then Put of the same key", 1, func() { unrec.ordered.Remove(h, 3); unrec.ordered.Put(h, 3, 3) }},
		{"segmented AdjustedOrdered.RangeBetween, 2 of 1 k keys", 0, func() { small.RangeBetween(10, 12, visit) }},
		{"segmented AdjustedOrdered.RangeBetween, 2 of 100 k keys", 0, func() { large.RangeBetween(10, 12, visit) }},
		{"segmented AdjustedOrdered.Range, 1 k keys", 0, func() { small.Range(visit) }},
		{"segmented AdjustedOrdered.Range, 100 k keys", 0, func() { large.Range(visit) }},
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
				allocRow{name + "Add and Contains", 0, func() { s.Add(h, 3); s.Contains(3) }},
				allocRow{name + "Range, 8 elements", 1, func() { s.Range(visitSet) }})
		}
	}
	for _, row := range rows {
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
// view (an interface, two words) and, but for a Ref, the probe it reports
// through. A recorder lives in the recording decorator, not here. A per-user
// object pays this on top of its representation.
func TestWrapperSizes(t *testing.T) {
	const word = unsafe.Sizeof(uintptr(0))
	for _, row := range []struct {
		name  string
		size  uintptr
		words uintptr
	}{
		{"AdjustedCounter", unsafe.Sizeof(AdjustedCounter{}), 4},
		{"AdjustedMap", unsafe.Sizeof(AdjustedMap[int, int]{}), 4},
		{"AdjustedSet", unsafe.Sizeof(AdjustedSet[int]{}), 4},
		{"AdjustedOrdered", unsafe.Sizeof(AdjustedOrdered[int, int]{}), 4},
		{"AdjustedQueue", unsafe.Sizeof(AdjustedQueue[int]{}), 4},
		{"AdjustedRef", unsafe.Sizeof(AdjustedRef[int]{}), 3},
	} {
		if row.size != row.words*word {
			t.Errorf("%s is %d bytes, want %d words (%d bytes)", row.name, row.size, row.words, row.words*word)
		}
	}
}

// TestQueueWithSize pins what one per-user MPSC queue allocates, facade and
// representation together, for a 16-byte element (a Retwis tweet): two
// cache lines, the head's and the tail's.
func TestQueueWithSize(t *testing.T) {
	type t16 struct{ a, b int64 }
	if size := unsafe.Sizeof(queueWith[t16, queue.MPSC[t16]]{}); size > 128 {
		t.Errorf("an MPSC queue of a 16-byte element is %d bytes with its facade, want at most 128", size)
	}
}

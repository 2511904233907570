// Package skiplist provides the ordered-map objects of §5.3:
//
//   - SWMR — a single-writer multi-reader skip list: sequential insertion
//     extended for concurrent readers by publishing each node bottom-up with
//     atomic stores (the paper's setRelease/setVolatile construction).
//   - Concurrent — the ConcurrentSkipListMap baseline: the lock-free
//     skip list of Herlihy & Shavit, CAS on every link, so contended updates
//     retry (feeding the stall proxy).
//   - Segmented — the adjusted object, the paper's
//     ExtendedSegmentedSkipListMap: the extended segmentation's directory
//     (segment.Directory, shared with hashmap.Segmented), one node per key
//     bound to the thread that first stored it, whose node also carries a
//     tower linking it into one insert-only lock-free skip list for ordered
//     iteration.
//
// All three hold a value in a core.Cell: a pointer-shaped V as itself (a
// stored nil as the cell's sentinel), any other V in a box. A lookup reads
// it with one load, so a lookup racing a remove and a re-put returns the old
// value, absent or the new one. SWMR and Concurrent unlink or mark a removed
// node and never write its cell again (a lookup still on it linearizes
// before the remove); Segmented clears the cell, and a lookup linearizes at
// its load.
package skiplist

import (
	"cmp"
	"sync/atomic"

	"github.com/adjusted-objects/dego/internal/core"
)

// maxLevel bounds the tower height; 24 levels cover 4^24 ≈ 2.8e14 entries at
// p = 1/4.
const maxLevel = 24

type snode[K cmp.Ordered, V any] struct {
	key  K
	val  core.Cell[V]
	next []atomic.Pointer[snode[K, V]]
}

// SWMR is the single-writer multi-reader skip list map. One thread updates;
// any thread reads concurrently, lock- and retry-free.
type SWMR[K cmp.Ordered, V any] struct {
	head  *snode[K, V]
	level atomic.Int32 // levels currently in use
	form  core.CellForm[V]
	size  atomic.Int64
	rnd   uint64 // writer-only xorshift state of nextHeight
	guard *core.Guard
}

// NewSWMR creates an empty list. When checked is true an SWMR guard verifies
// the single-writer role.
func NewSWMR[K cmp.Ordered, V any](checked bool) *SWMR[K, V] {
	s := &SWMR[K, V]{
		head: &snode[K, V]{next: make([]atomic.Pointer[snode[K, V]], maxLevel)},
		rnd:  0x9e3779b97f4a7c15,
		form: core.FormFor[V](),
	}
	s.level.Store(1)
	if checked {
		s.guard = core.NewGuard(core.ModeSWMR)
	}
	return s
}

// Get returns the value for key. Any thread may call it.
func (s *SWMR[K, V]) Get(key K) (V, bool) {
	n := findGE(s.head, int(s.level.Load()), key)
	if n != nil && n.key == key {
		return s.form.Load(&n.val)
	}
	var zero V
	return zero, false
}

// Contains reports whether key is present.
func (s *SWMR[K, V]) Contains(key K) bool {
	_, ok := s.Get(key)
	return ok
}

// Put inserts or updates key (single writer only). Blind, per M2. An update
// of a pointer-shaped value allocates nothing, mirroring Java's reference
// store.
func (s *SWMR[K, V]) Put(h *core.Handle, key K, val V) {
	s.guard.MustCheck(h, core.Write)
	var preds, succs [maxLevel]*snode[K, V]
	window(s.head, key, &preds, &succs)
	if n := succs[0]; n != nil && n.key == key {
		s.form.Store(&n.val, val) // update in place (setVolatile)
		return
	}

	height := nextHeight(&s.rnd)
	if lv := int(s.level.Load()); height > lv {
		s.level.Store(int32(height))
	}
	n := &snode[K, V]{key: key, next: make([]atomic.Pointer[snode[K, V]], height)}
	s.form.Store(&n.val, val)
	// First wire the node's own forward pointers at every level, so a
	// reader that reaches the node can always continue.
	for i := 0; i < height; i++ {
		n.next[i].Store(succs[i])
	}
	// Then publish bottom-up: the level-0 store is the linearization point
	// (the paper's setVolatile); the upper levels are shortcuts readers may
	// or may not see yet (setRelease).
	for i := 0; i < height; i++ {
		preds[i].next[i].Store(n)
	}
	s.size.Add(1)
}

// Remove deletes key (single writer only), reporting whether it was present.
func (s *SWMR[K, V]) Remove(h *core.Handle, key K) bool {
	s.guard.MustCheck(h, core.Write)
	var preds, succs [maxLevel]*snode[K, V]
	window(s.head, key, &preds, &succs)
	n := succs[0]
	if n == nil || n.key != key {
		return false
	}
	// Unlink top-down so a node is never reachable at level i without being
	// reachable at the levels below; readers holding n keep a valid chain.
	for i := len(n.next) - 1; i >= 0; i-- {
		if preds[i].next[i].Load() == n {
			preds[i].next[i].Store(n.next[i].Load())
		}
	}
	s.size.Add(-1)
	return true
}

// Len returns the number of entries.
func (s *SWMR[K, V]) Len() int { return int(s.size.Load()) }

// Range calls f in ascending key order until it returns false; weakly
// consistent under concurrent writes.
func (s *SWMR[K, V]) Range(f func(key K, val V) bool) {
	walk(s.form, s.head.next[0].Load(), f)
}

// RangeFrom is Range starting at the first key ≥ from.
func (s *SWMR[K, V]) RangeFrom(from K, f func(key K, val V) bool) {
	walk(s.form, findGE(s.head, int(s.level.Load()), from), f)
}

// Min returns the smallest key.
func (s *SWMR[K, V]) Min() (K, V, bool) {
	n := s.head.next[0].Load()
	if n == nil {
		var k K
		var v V
		return k, v, false
	}
	v, _ := s.form.Load(&n.val)
	return n.key, v, true
}

// nextHeight advances the xorshift state *x and samples a geometric tower
// height with p = 1/4 from it. The state is its caller's own: a writer-only
// field, a per-owner slot, or a local copy of a shared draw.
func nextHeight(x *uint64) int {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	h := 1
	for v := *x; v&3 == 0 && h < maxLevel; v >>= 2 {
		h++
	}
	return h
}

// advance walks level from pred to the last node whose key is < key,
// returning it and the successor it stopped on.
func advance[K cmp.Ordered, V any](pred *snode[K, V], level int, key K) (*snode[K, V], *snode[K, V]) {
	for {
		next := pred.next[level].Load()
		if next == nil || next.key >= key {
			return pred, next
		}
		pred = next
	}
}

// window fills preds and succs with key's window at every level, descending
// from head.
func window[K cmp.Ordered, V any](head *snode[K, V], key K, preds, succs *[maxLevel]*snode[K, V]) {
	pred := head
	for level := maxLevel - 1; level >= 0; level-- {
		pred, succs[level] = advance(pred, level, key)
		preds[level] = pred
	}
}

// findGE returns the first node with key ≥ the argument, or nil, descending
// from head's level top-1. It returns the very pointer the level-0 scan
// stopped on: re-loading pred.next[0] here could observe a smaller key a
// writer published after the scan decided, and report a present key absent.
func findGE[K cmp.Ordered, V any](head *snode[K, V], top int, key K) *snode[K, V] {
	pred, next := head, (*snode[K, V])(nil)
	for level := top - 1; level >= 0; level-- {
		for next = pred.next[level].Load(); next != nil && next.key < key; next = pred.next[level].Load() {
			pred = next
		}
	}
	return next
}

// walk calls f for every present entry, from n on at level 0, until f
// returns false.
func walk[K cmp.Ordered, V any](form core.CellForm[V], n *snode[K, V], f func(key K, val V) bool) {
	for ; n != nil; n = n.next[0].Load() {
		if v, ok := form.Load(&n.val); ok && !f(n.key, v) {
			return
		}
	}
}

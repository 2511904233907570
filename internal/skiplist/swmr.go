// Package skiplist provides the ordered-map objects of §5.3:
//
//   - SWMR — a single-writer multi-reader skip list: sequential insertion
//     extended for concurrent readers by publishing each node bottom-up with
//     atomic stores (the paper's setRelease/setVolatile construction).
//   - Concurrent — the ConcurrentSkipListMap baseline: the lock-free
//     skip list of Herlihy & Shavit, CAS on every link, so contended updates
//     retry (feeding the stall proxy).
//   - Segmented — the adjusted object, the paper's
//     ExtendedSegmentedSkipListMap: an extended segmentation of SWMR lists.
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
	val  atomic.Pointer[V]
	next []atomic.Pointer[snode[K, V]]
}

// SWMR is the single-writer multi-reader skip list map. One thread updates;
// any thread reads concurrently, lock- and retry-free.
type SWMR[K cmp.Ordered, V any] struct {
	head  *snode[K, V]
	level atomic.Int32 // levels currently in use
	size  atomic.Int64
	rnd   uint64 // writer-only xorshift state
	guard *core.Guard
}

// NewSWMR creates an empty list. When checked is true an SWMR guard verifies
// the single-writer role.
func NewSWMR[K cmp.Ordered, V any](checked bool) *SWMR[K, V] {
	s := &SWMR[K, V]{
		head: &snode[K, V]{next: make([]atomic.Pointer[snode[K, V]], maxLevel)},
		rnd:  0x9e3779b97f4a7c15,
	}
	s.level.Store(1)
	if checked {
		s.guard = core.NewGuard(core.ModeSWMR)
	}
	return s
}

// Get returns the value for key. Any thread may call it.
func (s *SWMR[K, V]) Get(key K) (V, bool) {
	if p, ok := s.GetRef(key); ok {
		return *p, true
	}
	var zero V
	return zero, false
}

// GetRef returns the stored value box for key. The box is immutable: an
// update replaces the box, never its contents. Any thread may call it.
func (s *SWMR[K, V]) GetRef(key K) (*V, bool) {
	n := s.findGE(key)
	if n != nil && n.key == key {
		return n.val.Load(), true
	}
	return nil, false
}

// Contains reports whether key is present.
func (s *SWMR[K, V]) Contains(key K) bool {
	_, ok := s.Get(key)
	return ok
}

// findGE returns the first node with key ≥ the argument, or nil. It returns
// the very pointer the level-0 scan stopped on: re-loading pred.next[0] here
// could observe a smaller key the writer published after the scan decided,
// and report a present key absent.
func (s *SWMR[K, V]) findGE(key K) *snode[K, V] {
	pred := s.head
	var next *snode[K, V]
	for level := int(s.level.Load()) - 1; level >= 0; level-- {
		for {
			next = pred.next[level].Load()
			if next == nil || next.key >= key {
				break
			}
			pred = next
		}
	}
	return next
}

// Put inserts or updates key (single writer only). Blind, per M2.
func (s *SWMR[K, V]) Put(h *core.Handle, key K, val V) {
	s.PutRef(h, key, &val)
}

// PutRef is Put with a caller-provided value box (no allocation on the
// update path, mirroring Java's reference store). The box must not be
// mutated after the call.
func (s *SWMR[K, V]) PutRef(h *core.Handle, key K, val *V) {
	s.guard.MustCheck(h, core.Write)
	var preds [maxLevel]*snode[K, V]
	pred := s.head
	for level := maxLevel - 1; level >= 0; level-- {
		for {
			next := pred.next[level].Load()
			if next == nil || next.key >= key {
				break
			}
			pred = next
		}
		preds[level] = pred
	}
	if n := pred.next[0].Load(); n != nil && n.key == key {
		n.val.Store(val) // update in place (setVolatile)
		return
	}

	height := s.randomHeight()
	if lv := int(s.level.Load()); height > lv {
		s.level.Store(int32(height))
	}
	n := &snode[K, V]{key: key, next: make([]atomic.Pointer[snode[K, V]], height)}
	n.val.Store(val)
	// First wire the node's own forward pointers at every level, so a
	// reader that reaches the node can always continue.
	for i := 0; i < height; i++ {
		n.next[i].Store(preds[i].next[i].Load())
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
	var preds [maxLevel]*snode[K, V]
	pred := s.head
	for level := maxLevel - 1; level >= 0; level-- {
		for {
			next := pred.next[level].Load()
			if next == nil || next.key >= key {
				break
			}
			pred = next
		}
		preds[level] = pred
	}
	n := pred.next[0].Load()
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
	s.RangeRef(func(k K, v *V) bool { return f(k, *v) })
}

// RangeRef calls f with the stored value box of every entry in ascending key
// order until it returns false. It is the snapshot hook for migration
// (internal/adaptive): overlay wrappers use sentinel boxes as tombstones, and
// only the box identity — not the value — can distinguish them. Weakly
// consistent, like Range.
func (s *SWMR[K, V]) RangeRef(f func(key K, val *V) bool) {
	for n := s.head.next[0].Load(); n != nil; n = n.next[0].Load() {
		if !f(n.key, n.val.Load()) {
			return
		}
	}
}

// RangeRefFrom is RangeRef starting at the first key ≥ from.
func (s *SWMR[K, V]) RangeRefFrom(from K, f func(key K, val *V) bool) {
	for n := s.findGE(from); n != nil; n = n.next[0].Load() {
		if !f(n.key, n.val.Load()) {
			return
		}
	}
}

// Min returns the smallest key.
func (s *SWMR[K, V]) Min() (K, V, bool) {
	n := s.head.next[0].Load()
	if n == nil {
		var k K
		var v V
		return k, v, false
	}
	return n.key, *n.val.Load(), true
}

// randomHeight samples a geometric height with p = 1/4 (writer-only state).
func (s *SWMR[K, V]) randomHeight() int {
	s.rnd ^= s.rnd << 13
	s.rnd ^= s.rnd >> 7
	s.rnd ^= s.rnd << 17
	h := 1
	for x := s.rnd; x&3 == 0 && h < maxLevel; x >>= 2 {
		h++
	}
	return h
}

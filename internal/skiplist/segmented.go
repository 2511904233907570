package skiplist

import (
	"cmp"
	"sync/atomic"

	"github.com/adjusted-objects/dego/internal/core"
)

// Segmented is the paper's ExtendedSegmentedSkipListMap — the adjusted
// ordered map (M2, CWMR). Each key is bound, on first insert, to the thread
// that inserted it (its owner); the binding survives removal, and writes never
// contend as long as distinct threads write distinct keys — the
// commuting-writes contract of CWMR.
//
// A node is the entry {key, owner, value box, chain, tower}, reachable two
// ways. The fixed lock-free hash directory (chain, set before the node is
// published and never changed) serves Get, Remove and the write to a present
// key: one chain walk, then a box Load, or an owner-only box Swap. The tower
// links the node into one insert-only lock-free skip list that serves ordered
// iteration: a lazy level-0 walk that skips nil boxes, allocates nothing per
// entry and is weakly consistent, as §5.3 allows. A key's segment is its
// owner field: the per-owner state is a padded live-key counter, the SWMR
// guard (when checked) that every write to the owner's keys runs, and the
// xorshift state of the owner's tower heights.
//
// Linearization points: the CAS that prepends a fresh node to its bucket
// (insert; Get sees the key from then on), the box Swap (update, remove) and
// the box Load (lookup). A fresh node is then linked bottom-up by a CAS on
// each level's predecessor link; nodes are never unlinked, so a predecessor
// stays valid and a lost CAS only re-finds that level's window. Put returns
// after level 0 is linked, so a Range sees every Put that returned before it
// started.
//
// A nil box means absent; Remove keeps the node and so the binding. Under
// churn over fresh keys the nodes accumulate: inserting 4096 fresh int keys
// and removing them all, 50 rounds over, retains 74.7 B of heap per removed
// key (runtime.MemStats after GC, amd64). Per-owner SWMR lists that unlink
// removed nodes, behind a directory of bare bindings, retain 24.0 B. Nothing
// reclaims these nodes yet.
type Segmented[K cmp.Ordered, V any] struct {
	head    *snode[K, V] // tower of maxLevel; key and box unused
	buckets []atomic.Pointer[segNode[K, V]]
	mask    uint64
	hash    func(K) uint64
	reg     *core.Registry
	owners  []ownerSlot
}

// segNode is an entry: a skip-list node (its key, box and tower) that the
// directory also chains, with the binding to its owner.
type segNode[K cmp.Ordered, V any] struct {
	snode[K, V]
	owner int32
	chain *segNode[K, V]
}

// ownerSlot is one thread's segment: the number of live keys bound to it, the
// guard of its single-writer role (nil when unchecked) and the state its
// tower heights are drawn from, alone on a cache line so owners never share
// one.
type ownerSlot struct {
	_     core.Pad
	live  atomic.Int64
	guard *core.Guard
	rnd   uint64
	_     [core.CacheLineSize - 24]byte
}

// NewSegmented creates a segmented skip list over a registry. dirBuckets
// sizes the key directory, rounded up to a power of two; it never grows, so it
// should be of the order of the expected key count. hash routes keys to
// directory buckets. When checked is true, every write runs the SWMR guard of
// the key's owner — a violated CWMR contract (two threads writing the same
// key) trips it.
func NewSegmented[K cmp.Ordered, V any](r *core.Registry, dirBuckets int,
	hash func(K) uint64, checked bool) *Segmented[K, V] {
	size := 1
	for size < dirBuckets {
		size <<= 1
	}
	m := &Segmented[K, V]{
		head:    &snode[K, V]{next: make([]atomic.Pointer[snode[K, V]], maxLevel)},
		buckets: make([]atomic.Pointer[segNode[K, V]], size),
		mask:    uint64(size - 1),
		hash:    hash,
		reg:     r,
		owners:  make([]ownerSlot, r.Capacity()),
	}
	for i := range m.owners {
		m.owners[i].rnd = uint64(i+1) * 0x9e3779b97f4a7c15
		if checked {
			m.owners[i].guard = core.NewGuard(core.ModeSWMR)
		}
	}
	return m
}

// find returns key's node, or nil when the key was never stored.
func (m *Segmented[K, V]) find(key K) *segNode[K, V] {
	for n := m.buckets[m.hash(key)&m.mask].Load(); n != nil; n = n.chain {
		if n.key == key {
			return n
		}
	}
	return nil
}

// store swaps box into n (a write by h to one of n.owner's keys) and moves
// the owner's live count when presence changes. It returns the old box.
func (m *Segmented[K, V]) store(h *core.Handle, n *segNode[K, V], box *V) *V {
	o := &m.owners[n.owner]
	o.guard.MustCheck(h, core.Write)
	old := n.val.Swap(box)
	switch {
	case old == nil && box != nil:
		o.live.Add(1)
	case old != nil && box == nil:
		o.live.Add(-1)
	}
	return old
}

// Put inserts or updates key, binding it to the caller on first insert.
// Blind, per M2.
func (m *Segmented[K, V]) Put(h *core.Handle, key K, val V) {
	m.PutRef(h, key, &val)
}

// PutRef is Put with a caller-provided value box: an update allocates
// nothing, an insert one node and its tower. The box must not be mutated
// after the call.
func (m *Segmented[K, V]) PutRef(h *core.Handle, key K, val *V) {
	bucket := &m.buckets[m.hash(key)&m.mask]
	var fresh *segNode[K, V]
	var seen *segNode[K, V] // chain suffix already scanned
	for {
		head := bucket.Load()
		for n := head; n != seen; n = n.chain {
			if n.key == key {
				m.store(h, n, val)
				return
			}
		}
		if fresh == nil {
			o := &m.owners[h.ID()]
			o.guard.MustCheck(h, core.Write)
			fresh = &segNode[K, V]{owner: int32(h.ID())}
			fresh.key = key
			fresh.next = make([]atomic.Pointer[snode[K, V]], nextHeight(&o.rnd))
			fresh.val.Store(val)
		}
		fresh.chain = head
		if bucket.CompareAndSwap(head, fresh) {
			break
		}
		// Lost the race: only the nodes prepended since head are new, and
		// one of them may bind this key.
		seen = head
	}
	m.owners[fresh.owner].live.Add(1)
	m.link(&fresh.snode)
}

// link splices a published node into the skip list, bottom-up. Only the
// node's single publisher links it, and no other node has its key, so every
// window it finds is strict: pred.key < n.key < succ.key.
func (m *Segmented[K, V]) link(n *snode[K, V]) {
	var preds, succs [maxLevel]*snode[K, V]
	window(m.head, n.key, &preds, &succs)
	for level := range n.next {
		for {
			n.next[level].Store(succs[level])
			if preds[level].next[level].CompareAndSwap(succs[level], n) {
				break
			}
			// A node was linked into the window; the predecessor is still
			// before n, so the new window lies to its right.
			preds[level], succs[level] = advance(preds[level], level, n.key)
		}
	}
}

// Remove deletes key, reporting whether it was present. The key's node, and
// so its binding, is retained.
func (m *Segmented[K, V]) Remove(h *core.Handle, key K) bool {
	n := m.find(key)
	return n != nil && m.store(h, n, nil) != nil
}

// Get returns the value for key: one chain walk, one box load.
func (m *Segmented[K, V]) Get(key K) (V, bool) {
	if p, ok := m.GetRef(key); ok {
		return *p, true
	}
	var zero V
	return zero, false
}

// GetRef returns the stored value box for key. The box is immutable: an
// update replaces the box, never its contents. It is the shadow-lookup hook
// internal/adaptive uses to recognize its tombstone boxes.
func (m *Segmented[K, V]) GetRef(key K) (*V, bool) {
	if n := m.find(key); n != nil {
		if p := n.val.Load(); p != nil {
			return p, true
		}
	}
	return nil, false
}

// Contains reports whether key is present.
func (m *Segmented[K, V]) Contains(key K) bool {
	_, ok := m.GetRef(key)
	return ok
}

// Len sums the per-owner live counts.
func (m *Segmented[K, V]) Len() int {
	n := int64(0)
	for i := range min(m.reg.HighWater(), len(m.owners)) {
		n += m.owners[i].live.Load()
	}
	return int(n)
}

// Range calls f in ascending key order until it returns false; weakly
// consistent (like every java.util.concurrent iterator, per §5.3 "read
// operations over adjusted objects are as consistent as in JUC").
func (m *Segmented[K, V]) Range(f func(key K, val V) bool) {
	m.RangeRef(func(k K, v *V) bool { return f(k, *v) })
}

// RangeFrom is Range starting at the first key ≥ from.
func (m *Segmented[K, V]) RangeFrom(from K, f func(key K, val V) bool) {
	m.RangeRefFrom(from, func(k K, v *V) bool { return f(k, *v) })
}

// RangeBetween is Range over the half-open key interval [from, to).
func (m *Segmented[K, V]) RangeBetween(from, to K, f func(key K, val V) bool) {
	m.RangeRefBetween(from, to, func(k K, v *V) bool { return f(k, *v) })
}

// RangeRef calls f with the stored value box of every entry in ascending key
// order until it returns false; weakly consistent, like Range. The box-level
// iteration is the hook internal/adaptive uses for its tombstone overlay and
// demotion drain.
func (m *Segmented[K, V]) RangeRef(f func(key K, val *V) bool) {
	walk(m.head.next[0].Load(), f)
}

// RangeRefFrom is RangeRef starting at the first key ≥ from.
func (m *Segmented[K, V]) RangeRefFrom(from K, f func(key K, val *V) bool) {
	walk(findGE(m.head, maxLevel, from), f)
}

// RangeRefBetween is RangeRef over the half-open key interval [from, to).
func (m *Segmented[K, V]) RangeRefBetween(from, to K, f func(key K, val *V) bool) {
	walk(findGE(m.head, maxLevel, from), func(k K, v *V) bool { return k < to && f(k, v) })
}

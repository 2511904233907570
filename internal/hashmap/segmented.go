package hashmap

import (
	"sync/atomic"

	"github.com/adjusted-objects/dego/internal/core"
)

// Segmented is the paper's ExtendedSegmentedHashMap — the adjusted object
// (M2, CWMR). Each key is bound, on first insert, to the thread that inserted
// it (its owner); the binding survives removal (the item "retains the segment
// where it was stored"), and writes never contend as long as distinct threads
// write distinct keys — the commuting-writes contract of CWMR.
//
// The table is one lock-free chained directory, fixed at dirBuckets, whose
// node is the entry: {key, owner, value box, next}. next is set before the
// node is published and never changes, so the directory is insert-only and a
// lookup is one chain walk. A key's segment is its owner field: the per-owner
// state is a padded live-key counter, moved when a box goes nil ↔ non-nil, and
// (when checked) an SWMR guard that every write to the owner's keys runs. A nil
// box means absent; Remove keeps the node and so the binding.
//
// Linearization points: the CAS that publishes a fresh node (insert), the
// box Swap (update, remove) and the box Load (lookup).
type Segmented[K comparable, V any] struct {
	buckets []atomic.Pointer[node[K, V]]
	mask    uint64
	hash    func(K) uint64
	reg     *core.Registry
	owners  []ownerSlot
}

type node[K comparable, V any] struct {
	key   K
	owner int32
	val   atomic.Pointer[V]
	next  *node[K, V]
}

// ownerSlot is one thread's segment: the number of live keys bound to it and
// the guard of its single-writer role (nil when unchecked), alone on a cache
// line so owners never share one.
type ownerSlot struct {
	_     core.Pad
	live  atomic.Int64
	guard *core.Guard
	_     [core.CacheLineSize - 16]byte
}

// NewSegmented creates a segmented map over a registry. dirBuckets sizes the
// directory, rounded up to a power of two; it never grows, so it should be
// of the order of the expected key count. capacity is unused — the directory
// is the whole table — and stays for callers that size every map alike.
// When checked is true, every write runs the SWMR guard of the key's owner —
// a violated CWMR contract (two threads writing the same key) trips it.
func NewSegmented[K comparable, V any](r *core.Registry, capacity, dirBuckets int,
	hash func(K) uint64, checked bool) *Segmented[K, V] {
	size := 1
	for size < dirBuckets {
		size <<= 1
	}
	m := &Segmented[K, V]{
		buckets: make([]atomic.Pointer[node[K, V]], size),
		mask:    uint64(size - 1),
		hash:    hash,
		reg:     r,
		owners:  make([]ownerSlot, r.Capacity()),
	}
	if checked {
		for i := range m.owners {
			m.owners[i].guard = core.NewGuard(core.ModeSWMR)
		}
	}
	return m
}

// find returns key's node, or nil when the key was never stored.
func (m *Segmented[K, V]) find(key K) *node[K, V] {
	for n := m.buckets[m.hash(key)&m.mask].Load(); n != nil; n = n.next {
		if n.key == key {
			return n
		}
	}
	return nil
}

// store swaps box into n (a write by h to one of n.owner's keys) and moves
// the owner's live count when presence changes. It returns the old box.
func (m *Segmented[K, V]) store(h *core.Handle, n *node[K, V], box *V) *V {
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
// nothing, an insert one node. The box must not be mutated after the call.
func (m *Segmented[K, V]) PutRef(h *core.Handle, key K, val *V) {
	bucket := &m.buckets[m.hash(key)&m.mask]
	var fresh *node[K, V]
	var seen *node[K, V] // chain suffix already scanned
	for {
		head := bucket.Load()
		for n := head; n != seen; n = n.next {
			if n.key == key {
				m.store(h, n, val)
				return
			}
		}
		if fresh == nil {
			m.owners[h.ID()].guard.MustCheck(h, core.Write)
			fresh = &node[K, V]{key: key, owner: int32(h.ID())}
			fresh.val.Store(val)
		}
		fresh.next = head
		if bucket.CompareAndSwap(head, fresh) {
			m.owners[fresh.owner].live.Add(1)
			return
		}
		// Lost the race: only the nodes prepended since head are new, and
		// one of them may bind this key.
		seen = head
	}
}

// Remove deletes key, reporting whether it was present. The key's binding is
// retained.
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
// update replaces the box, never its contents.
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

// RangeRef calls f with the stored value box of every entry until it returns
// false; weakly consistent, bucket by bucket. This is the drain hook
// internal/adaptive uses to migrate entries (and recognize its tombstone
// boxes by identity) when demoting an adaptive map.
func (m *Segmented[K, V]) RangeRef(f func(key K, val *V) bool) {
	for i := range m.buckets {
		for n := m.buckets[i].Load(); n != nil; n = n.next {
			if p := n.val.Load(); p != nil && !f(n.key, p) {
				return
			}
		}
	}
}

// Range calls f for every entry until it returns false; weakly consistent,
// bucket by bucket.
func (m *Segmented[K, V]) Range(f func(key K, val V) bool) {
	m.RangeRef(func(k K, v *V) bool { return f(k, *v) })
}

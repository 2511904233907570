package segment

import (
	"sync/atomic"

	"github.com/adjusted-objects/dego/internal/core"
)

// Directory is the Extended segmentation: one lock-free chained hash
// directory, fixed at construction, whose node is the entry. Each key is
// bound, on first insert, to the thread that inserted it (its owner); the
// binding survives removal (the item "retains the segment where it was
// stored"), and writes never contend as long as distinct threads write
// distinct keys — the commuting-writes contract of CWMR.
//
// A node's chain link is set before the node is published and never
// changes, so the directory is insert-only and a lookup is one chain walk. A
// key's segment is its owner field: the per-owner state is a padded live-key
// counter, moved when a box goes nil ↔ non-nil, the SWMR guard (when checked)
// that every write to the owner's keys runs, and the state of the owner's
// per-node random draws. A nil box means absent; Remove keeps the node and so
// the binding.
//
// Linearization points: the CAS that prepends a fresh node to its bucket
// (insert), the box Swap (update, remove) and the box Load (lookup).
//
// X extends every node: hashmap.Segmented uses struct{}, skiplist.Segmented
// the tower that links the node into its ordered list.
type Directory[K comparable, V any, X any] struct {
	buckets []atomic.Pointer[Node[K, V, X]]
	mask    uint64
	hash    func(K) uint64
	reg     *core.Registry
	owners  []owner
}

// Node is one key's entry. Ext comes first: Go pads a struct whose last
// field has size zero, so a struct{} extension placed last would grow the
// node by a word.
type Node[K comparable, V any, X any] struct {
	Ext   X
	Key   K
	owner int32
	val   atomic.Pointer[V]
	next  *Node[K, V, X]
}

// Load returns the node's value box, nil when the key is absent.
func (n *Node[K, V, X]) Load() *V { return n.val.Load() }

// owner is one thread's segment: the number of live keys bound to it, the
// guard of its single-writer role (nil when unchecked) and its xorshift
// state (zero until first drawn from), alone on a cache line so owners never
// share one.
type owner struct {
	_     core.Pad
	live  atomic.Int64
	guard *core.Guard
	rnd   uint64
	_     [core.CacheLineSize - 24]byte
}

// MakeDirectory returns a directory over a registry. buckets sizes it,
// rounded up to a power of two; it never grows, so it should be of the
// order of the expected key count. When checked is true, every write runs
// the SWMR guard of the key's owner — a violated CWMR contract (two threads
// writing the same key) trips it.
func MakeDirectory[K comparable, V any, X any](r *core.Registry, buckets int,
	hash func(K) uint64, checked bool) Directory[K, V, X] {
	size := 1
	for size < buckets {
		size <<= 1
	}
	d := Directory[K, V, X]{
		buckets: make([]atomic.Pointer[Node[K, V, X]], size),
		mask:    uint64(size - 1),
		hash:    hash,
		reg:     r,
		owners:  make([]owner, r.Capacity()),
	}
	if checked {
		for i := range d.owners {
			d.owners[i].guard = core.NewGuard(core.ModeSWMR)
		}
	}
	return d
}

// find returns key's node, or nil when the key was never stored.
func (d *Directory[K, V, X]) find(key K) *Node[K, V, X] {
	for n := d.buckets[d.hash(key)&d.mask].Load(); n != nil; n = n.next {
		if n.Key == key {
			return n
		}
	}
	return nil
}

// store swaps box into n (a write by h to one of n.owner's keys) and moves
// the owner's live count when presence changes. It returns the old box.
func (d *Directory[K, V, X]) store(h *core.Handle, n *Node[K, V, X], box *V) *V {
	o := &d.owners[n.owner]
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

// Insert stores the box val under key, binding the key to the caller on
// first insert. It returns the node it published for a key never stored
// before, and nil when it updated the key's node in place, so that only a
// fresh key pays for its extension. An update allocates nothing, an insert
// one node. The box must not be mutated after the call.
func (d *Directory[K, V, X]) Insert(h *core.Handle, key K, val *V) *Node[K, V, X] {
	bucket := &d.buckets[d.hash(key)&d.mask]
	var fresh *Node[K, V, X]
	var seen *Node[K, V, X] // chain suffix already scanned
	for {
		head := bucket.Load()
		for n := head; n != seen; n = n.next {
			if n.Key == key {
				d.store(h, n, val)
				return nil
			}
		}
		if fresh == nil {
			d.owners[h.ID()].guard.MustCheck(h, core.Write)
			fresh = &Node[K, V, X]{Key: key, owner: int32(h.ID())}
			fresh.val.Store(val)
		}
		fresh.next = head
		if bucket.CompareAndSwap(head, fresh) {
			d.owners[fresh.owner].live.Add(1)
			return fresh
		}
		// Lost the race: only the nodes prepended since head are new, and
		// one of them may bind this key.
		seen = head
	}
}

// Rand returns the xorshift state of n's owner, seeded on first use, for
// the draws the owner makes when it extends a node it published (the skip
// list's tower heights). Only that owner may call it.
func (d *Directory[K, V, X]) Rand(n *Node[K, V, X]) *uint64 {
	o := &d.owners[n.owner]
	if o.rnd == 0 {
		o.rnd = uint64(n.owner+1) * 0x9e3779b97f4a7c15
	}
	return &o.rnd
}

// Put inserts or updates key, binding it to the caller on first insert.
// Blind, per M2.
func (d *Directory[K, V, X]) Put(h *core.Handle, key K, val V) {
	d.Insert(h, key, &val)
}

// PutRef is Put with a caller-provided value box, as in Insert.
func (d *Directory[K, V, X]) PutRef(h *core.Handle, key K, val *V) {
	d.Insert(h, key, val)
}

// Remove deletes key, reporting whether it was present. The key's node, and
// so its binding, is retained.
func (d *Directory[K, V, X]) Remove(h *core.Handle, key K) bool {
	n := d.find(key)
	return n != nil && d.store(h, n, nil) != nil
}

// Get returns the value for key: one chain walk, one box load.
func (d *Directory[K, V, X]) Get(key K) (V, bool) {
	if p, ok := d.GetRef(key); ok {
		return *p, true
	}
	var zero V
	return zero, false
}

// GetRef returns the stored value box for key. The box is immutable: an
// update replaces the box, never its contents. It is the shadow-lookup hook
// internal/adaptive uses to recognize its tombstone boxes.
func (d *Directory[K, V, X]) GetRef(key K) (*V, bool) {
	if n := d.find(key); n != nil {
		if p := n.val.Load(); p != nil {
			return p, true
		}
	}
	return nil, false
}

// Contains reports whether key is present.
func (d *Directory[K, V, X]) Contains(key K) bool {
	_, ok := d.GetRef(key)
	return ok
}

// Len sums the per-owner live counts.
func (d *Directory[K, V, X]) Len() int {
	n := int64(0)
	for i := range min(d.reg.HighWater(), len(d.owners)) {
		n += d.owners[i].live.Load()
	}
	return int(n)
}

// RangeRef calls f with the stored value box of every entry until it returns
// false; unordered and weakly consistent, bucket by bucket. This is the
// drain hook internal/adaptive uses to migrate entries (and recognize its
// tombstone boxes by identity) when demoting an adaptive map.
func (d *Directory[K, V, X]) RangeRef(f func(key K, val *V) bool) {
	for i := range d.buckets {
		for n := d.buckets[i].Load(); n != nil; n = n.next {
			if p := n.val.Load(); p != nil && !f(n.Key, p) {
				return
			}
		}
	}
}

// Range calls f for every entry until it returns false; unordered and
// weakly consistent, bucket by bucket.
func (d *Directory[K, V, X]) Range(f func(key K, val V) bool) {
	d.RangeRef(func(k K, v *V) bool { return f(k, *v) })
}

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
// counter, moved when the node's value cell goes absent ↔ present, the SWMR
// guard (when checked) that every write to the owner's keys runs, and the
// state of the owner's per-node random draws. The value is a core.Cell: a
// pointer-shaped V is stored as itself (a stored nil as the cell's
// sentinel), any other V in a box. An absent cell means an absent key;
// Remove keeps the node and so the binding.
//
// Linearization points: the CAS that prepends a fresh node to its bucket
// (insert), the cell's swap (update, remove) and the cell's load (lookup).
// A lookup that races a remove and a re-put of its key sees the one cell
// load's answer, so it is ordered before the remove, between the two, or
// after the re-put.
//
// X extends every node: hashmap.Segmented uses struct{}, skiplist.Segmented
// the tower that links the node into its ordered list.
type Directory[K comparable, V any, X any] struct {
	buckets []atomic.Pointer[Node[K, V, X]]
	mask    uint64
	hash    func(K) uint64
	reg     *core.Registry
	owners  []owner
	form    core.CellForm[V]
}

// Node is one key's entry. Ext comes first: Go pads a struct whose last
// field has size zero, so a struct{} extension placed last would grow the
// node by a word.
type Node[K comparable, V any, X any] struct {
	Ext   X
	Key   K
	owner int32
	val   core.Cell[V]
	next  *Node[K, V, X]
}

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
		form:    core.FormFor[V](),
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

// write runs the guard of n's owner for a write by h and returns the owner.
func (d *Directory[K, V, X]) write(h *core.Handle, n *Node[K, V, X]) *owner {
	o := &d.owners[n.owner]
	o.guard.MustCheck(h, core.Write)
	return o
}

// Insert stores val under key, binding the key to the caller on first
// insert. It returns the node it published for a key never stored before,
// and nil when it updated the key's node in place, so that only a fresh key
// pays for its extension. An update allocates at most the cell's box, an
// insert one node besides.
func (d *Directory[K, V, X]) Insert(h *core.Handle, key K, val V) *Node[K, V, X] {
	bucket := &d.buckets[d.hash(key)&d.mask]
	var fresh *Node[K, V, X]
	var seen *Node[K, V, X] // chain suffix already scanned
	for {
		head := bucket.Load()
		for n := head; n != seen; n = n.next {
			if n.Key == key {
				if o := d.write(h, n); !d.form.Swap(&n.val, val) {
					o.live.Add(1)
				}
				return nil
			}
		}
		if fresh == nil {
			d.owners[h.ID()].guard.MustCheck(h, core.Write)
			fresh = &Node[K, V, X]{Key: key, owner: int32(h.ID())}
			d.form.Store(&fresh.val, val)
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
	d.Insert(h, key, val)
}

// Remove deletes key, reporting whether it was present. The key's node, and
// so its binding, is retained.
func (d *Directory[K, V, X]) Remove(h *core.Handle, key K) bool {
	n := d.find(key)
	if n == nil {
		return false
	}
	o := d.write(h, n)
	if !n.val.Clear() {
		return false
	}
	o.live.Add(-1)
	return true
}

// Get returns the value for key: one chain walk, one cell load.
func (d *Directory[K, V, X]) Get(key K) (V, bool) {
	if n := d.find(key); n != nil {
		return d.form.Load(&n.val)
	}
	var zero V
	return zero, false
}

// Load returns n's value, and false when n's key is absent.
func (d *Directory[K, V, X]) Load(n *Node[K, V, X]) (V, bool) { return d.form.Load(&n.val) }

// Contains reports whether key is present.
func (d *Directory[K, V, X]) Contains(key K) bool {
	_, ok := d.Get(key)
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

// Range calls f for every entry until it returns false; unordered and
// weakly consistent, bucket by bucket.
func (d *Directory[K, V, X]) Range(f func(key K, val V) bool) {
	for i := range d.buckets {
		for n := d.buckets[i].Load(); n != nil; n = n.next {
			if v, ok := d.form.Load(&n.val); ok && !f(n.Key, v) {
				return
			}
		}
	}
}

package segment

import (
	"sync/atomic"

	"github.com/adjusted-objects/dego/internal/core"
)

// Extended is the ExtendedSegmentation: per-thread SWMR segments plus an
// insert-only directory that records, for each item, the segment where it
// was first stored. Lookups touch exactly one segment; removal retains the
// binding (as in the paper, where the item keeps its segment field).
//
// The directory is a lock-free chained hash table. Entries are only ever
// inserted — bindings are permanent — so a CAS on the bucket head is the
// only synchronization, and distinct keys contend only on hash collisions.
type Extended[K comparable, S any] struct {
	base *Base[S]
	hash func(K) uint64
	dir  dirTable[K]
}

// NewExtended creates an extended segmentation. hash routes keys to
// directory buckets; dirBuckets is rounded up to a power of two.
func NewExtended[K comparable, S any](r *core.Registry, dirBuckets int,
	hash func(K) uint64, newSeg func(owner int) *S) *Extended[K, S] {
	size := 1
	for size < dirBuckets {
		size <<= 1
	}
	return &Extended[K, S]{
		base: NewBase[S](r, newSeg),
		hash: hash,
		dir:  dirTable[K]{buckets: make([]atomic.Pointer[dirNode[K]], size), mask: uint64(size - 1)},
	}
}

// Acquire returns the segment bound to key, binding it to the calling
// thread's segment if the key was never stored before. Writers use it: the
// first writer of a key becomes its permanent home.
func (e *Extended[K, S]) Acquire(h *core.Handle, key K) *S {
	owner := e.dir.insertIfAbsent(e.hash(key), key, int32(h.ID()))
	return e.base.at(int(owner))
}

// Find returns the segment bound to key, or false when the key was never
// stored. Readers use it: a lookup touches exactly one segment.
func (e *Extended[K, S]) Find(key K) (*S, bool) {
	owner, ok := e.dir.lookup(e.hash(key), key)
	if !ok {
		return nil, false
	}
	return e.base.at(int(owner)), true
}

// ForEach visits every initialized segment until f returns false.
func (e *Extended[K, S]) ForEach(f func(owner int, seg *S) bool) { e.base.ForEach(f) }

// Bindings returns the number of keys bound in the directory.
func (e *Extended[K, S]) Bindings() int { return int(e.dir.size.Load()) }

// ---------------------------------------------------------------------------
// Insert-only lock-free directory

type dirNode[K comparable] struct {
	key  K
	seg  int32
	next atomic.Pointer[dirNode[K]]
}

type dirTable[K comparable] struct {
	buckets []atomic.Pointer[dirNode[K]]
	mask    uint64
	size    atomic.Int64
}

func (t *dirTable[K]) lookup(h uint64, key K) (int32, bool) {
	for n := t.buckets[h&t.mask].Load(); n != nil; n = n.next.Load() {
		if n.key == key {
			return n.seg, true
		}
	}
	return 0, false
}

// insertIfAbsent binds key to seg unless already bound, returning the
// binding that won.
func (t *dirTable[K]) insertIfAbsent(h uint64, key K, seg int32) int32 {
	bucket := &t.buckets[h&t.mask]
	for {
		head := bucket.Load()
		for n := head; n != nil; n = n.next.Load() {
			if n.key == key {
				return n.seg
			}
		}
		fresh := &dirNode[K]{key: key, seg: seg}
		fresh.next.Store(head)
		if bucket.CompareAndSwap(head, fresh) {
			t.size.Add(1)
			return seg
		}
		// Lost the race: rescan — the winner may have inserted this key.
	}
}

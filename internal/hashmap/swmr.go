// Package hashmap provides the hash-table objects of §5.3:
//
//   - SWMR — a single-writer multi-reader hash map: a sequential table
//     extended to support concurrent readers through atomic publication.
//     Resize re-inserts fresh nodes into a new binned array and publishes it
//     with a single atomic store, exactly as described for SWMRHashMap.
//   - Striped — the ConcurrentHashMap-style baseline: lock-striped buckets.
//   - Segmented — the adjusted object (M2, CWMR), the paper's
//     ExtendedSegmentedHashMap: the extended segmentation's lock-free
//     directory (segment.Directory, shared with skiplist.Segmented), whose
//     entry carries the key, the owner it is bound to (its segment) and the
//     value cell.
//
// SWMR and Segmented hold a value in a core.Cell: a pointer-shaped V as
// itself (a stored nil as the cell's sentinel), any other V in a box. A
// lookup reads it with one load, so a lookup racing a remove and a re-put
// returns the old value, absent or the new one. SWMR's Remove unlinks a node
// and never writes its cell again (a lookup still on it linearizes before
// the remove); Segmented's clears the cell, and a lookup linearizes at its
// load.
package hashmap

import (
	"sync/atomic"

	"github.com/adjusted-objects/dego/internal/core"
)

const (
	minBins    = 8
	loadFactor = 0.75
)

type mnode[K comparable, V any] struct {
	hash uint64
	key  K
	val  core.Cell[V]
	next atomic.Pointer[mnode[K, V]]
}

type mtable[K comparable, V any] struct {
	bins []atomic.Pointer[mnode[K, V]]
	mask uint64
}

// SWMR is the single-writer multi-reader hash map. One thread performs every
// update; any thread may read concurrently. Readers never lock, never retry,
// and never observe a torn table: the bucket array pointer is swapped
// atomically on resize (the linearization point), and nodes reachable from
// an old table are never re-linked.
type SWMR[K comparable, V any] struct {
	table atomic.Pointer[mtable[K, V]]
	size  atomic.Int64
	hash  func(K) uint64
	guard *core.Guard
	form  core.CellForm[V]
}

// NewSWMR creates a map with the given initial capacity and hash function.
// When checked is true an SWMR guard verifies the single-writer role.
func NewSWMR[K comparable, V any](capacity int, hash func(K) uint64, checked bool) *SWMR[K, V] {
	bins := minBins
	for float64(bins)*loadFactor < float64(capacity) {
		bins <<= 1
	}
	m := &SWMR[K, V]{hash: hash, form: core.FormFor[V]()}
	m.table.Store(&mtable[K, V]{
		bins: make([]atomic.Pointer[mnode[K, V]], bins),
		mask: uint64(bins - 1),
	})
	if checked {
		m.guard = core.NewGuard(core.ModeSWMR)
	}
	return m
}

// Get returns the value for key. Any thread may call it.
func (m *SWMR[K, V]) Get(key K) (V, bool) {
	h := m.hash(key)
	t := m.table.Load()
	for n := t.bins[h&t.mask].Load(); n != nil; n = n.next.Load() {
		if n.hash == h && n.key == key {
			return m.form.Load(&n.val)
		}
	}
	var zero V
	return zero, false
}

// Contains reports whether key is present.
func (m *SWMR[K, V]) Contains(key K) bool {
	_, ok := m.Get(key)
	return ok
}

// Put inserts or updates key (single writer only). The M2 specification is
// blind: no previous value is returned. An update of a pointer-shaped value
// allocates nothing — the direct analogue of Java's setVolatile of a value
// reference (§5.3).
func (m *SWMR[K, V]) Put(h *core.Handle, key K, val V) {
	m.guard.MustCheck(h, core.Write)
	hash := m.hash(key)
	t := m.table.Load()
	bin := &t.bins[hash&t.mask]
	for n := bin.Load(); n != nil; n = n.next.Load() {
		if n.hash == hash && n.key == key {
			// Existing key: value updated in place with an atomic store
			// (the setVolatile of §5.3).
			m.form.Store(&n.val, val)
			return
		}
	}
	// New key: a fresh node is prepended and published atomically.
	fresh := &mnode[K, V]{hash: hash, key: key}
	m.form.Store(&fresh.val, val)
	fresh.next.Store(bin.Load())
	bin.Store(fresh)
	if sz := m.size.Add(1); float64(sz) > loadFactor*float64(len(t.bins)) {
		m.resize(t)
	}
}

// Remove deletes key (single writer only), returning whether it was present.
func (m *SWMR[K, V]) Remove(h *core.Handle, key K) bool {
	m.guard.MustCheck(h, core.Write)
	hash := m.hash(key)
	t := m.table.Load()
	bin := &t.bins[hash&t.mask]
	var prev *mnode[K, V]
	for n := bin.Load(); n != nil; n = n.next.Load() {
		if n.hash == hash && n.key == key {
			// Unlink with one atomic store; concurrent readers that already
			// passed the predecessor still traverse the removed node, whose
			// next pointer stays intact.
			if prev == nil {
				bin.Store(n.next.Load())
			} else {
				prev.next.Store(n.next.Load())
			}
			m.size.Add(-1)
			return true
		}
		prev = n
	}
	return false
}

// Len returns the number of entries.
func (m *SWMR[K, V]) Len() int { return int(m.size.Load()) }

// Range calls f for every entry until it returns false. Like iterating a
// java.util.concurrent collection, the view is weakly consistent: concurrent
// updates may or may not be observed.
func (m *SWMR[K, V]) Range(f func(key K, val V) bool) {
	t := m.table.Load()
	for i := range t.bins {
		for n := t.bins[i].Load(); n != nil; n = n.next.Load() {
			if v, _ := m.form.Load(&n.val); !f(n.key, v) {
				return
			}
		}
	}
}

// resize doubles the bucket array. Per §5.3: "nodes cannot be re-ordered on
// the fly due to potential readers. Instead, they are de-duplicated and
// inserted into the new binned array backing the hash table." Fresh nodes
// are created so readers holding the old table keep a consistent chain; the
// new table becomes visible with one atomic store.
func (m *SWMR[K, V]) resize(old *mtable[K, V]) {
	next := &mtable[K, V]{
		bins: make([]atomic.Pointer[mnode[K, V]], len(old.bins)*2),
		mask: uint64(len(old.bins)*2 - 1),
	}
	for i := range old.bins {
		for n := old.bins[i].Load(); n != nil; n = n.next.Load() {
			// The writer is the cell's only writer: a plain copy reads it.
			fresh := &mnode[K, V]{hash: n.hash, key: n.key, val: n.val}
			bin := &next.bins[n.hash&next.mask]
			fresh.next.Store(bin.Load())
			bin.Store(fresh)
		}
	}
	m.table.Store(next)
}

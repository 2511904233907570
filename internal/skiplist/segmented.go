package skiplist

import (
	"cmp"
	"sync/atomic"

	"github.com/adjusted-objects/dego/internal/core"
	"github.com/adjusted-objects/dego/internal/segment"
)

// Segmented is the paper's ExtendedSegmentedSkipListMap — the adjusted
// ordered map (M2, CWMR): the extended segmentation's directory
// (segment.Directory), whose node carries a Tower as its extension. Each key
// is bound, on first insert, to the thread that inserted it; the binding
// survives removal, and writes never contend as long as distinct threads
// write distinct keys.
//
// The directory serves Get, Remove and the write to a present key: one chain
// walk, then a cell load, or an owner-only cell swap. The tower links a fresh
// node into one insert-only lock-free skip list that serves ordered
// iteration: a lazy level-0 walk that skips absent cells, allocates nothing
// per entry and is weakly consistent, as §5.3 allows. Its Range methods
// shadow the directory's unordered ones.
//
// Linearization points are the directory's: the CAS that prepends a fresh
// node to its bucket (insert; Get sees the key from then on), the cell swap
// (update, remove) and the cell load (lookup). The node's publisher then
// draws its height from the owner's xorshift state and links it bottom-up by
// a CAS on each level's predecessor link; nodes are never unlinked, so a
// predecessor stays valid and a lost CAS only re-finds that level's window.
// Put returns after level 0 is linked, so a Range sees every Put that
// returned before it started.
//
// An absent cell means an absent key; Remove keeps the node and so the
// binding. Under churn over fresh keys the nodes accumulate: inserting 4096
// fresh int keys and removing them all, 50 rounds over, retains 67.4 B of
// heap per removed key (runtime.MemStats after GC, amd64). Nothing reclaims
// these nodes yet.
type Segmented[K cmp.Ordered, V any] struct {
	segment.Directory[K, V, Tower[K, V]]
	head *segment.Node[K, V, Tower[K, V]] // tower of maxLevel; key and cell unused
}

// Tower is a segmented-list node's extension of its directory node: the
// forward link at each of its levels.
type Tower[K cmp.Ordered, V any] struct {
	next []atomic.Pointer[segment.Node[K, V, Tower[K, V]]]
}

// NewSegmented creates a segmented skip list over a registry. dirBuckets
// sizes the key directory, rounded up to a power of two; it never grows, so it
// should be of the order of the expected key count. hash routes keys to
// directory buckets. When checked is true, every write runs the SWMR guard of
// the key's owner — a violated CWMR contract (two threads writing the same
// key) trips it.
func NewSegmented[K cmp.Ordered, V any](r *core.Registry, dirBuckets int,
	hash func(K) uint64, checked bool) *Segmented[K, V] {
	return &Segmented[K, V]{
		Directory: segment.MakeDirectory[K, V, Tower[K, V]](r, dirBuckets, hash, checked),
		head: &segment.Node[K, V, Tower[K, V]]{
			Ext: Tower[K, V]{next: make([]atomic.Pointer[segment.Node[K, V, Tower[K, V]]], maxLevel)},
		},
	}
}

// Put inserts or updates key, binding it to the caller on first insert.
// Blind, per M2. An update allocates at most the cell's box, an insert a
// share of its owner's slab of nodes and its tower besides.
func (m *Segmented[K, V]) Put(h *core.Handle, key K, val V) {
	if n := m.Insert(h, key, val); n != nil {
		n.Ext.next = make([]atomic.Pointer[segment.Node[K, V, Tower[K, V]]], nextHeight(m.Rand(n)))
		m.link(n)
	}
}

// link splices a published node into the skip list, bottom-up. Only the
// node's single publisher links it, and no other node has its key, so every
// window it finds is strict: pred.Key < n.Key < succ.Key.
func (m *Segmented[K, V]) link(n *segment.Node[K, V, Tower[K, V]]) {
	var preds, succs [maxLevel]*segment.Node[K, V, Tower[K, V]]
	m.window(n.Key, &preds, &succs)
	for level := range n.Ext.next {
		for {
			n.Ext.next[level].Store(succs[level])
			if preds[level].Ext.next[level].CompareAndSwap(succs[level], n) {
				break
			}
			// A node was linked into the window; the predecessor is still
			// before n, so the new window lies to its right.
			preds[level], succs[level] = m.advance(preds[level], level, n.Key)
		}
	}
}

// Range calls f in ascending key order until it returns false; weakly
// consistent (like every java.util.concurrent iterator, per §5.3 "read
// operations over adjusted objects are as consistent as in JUC").
func (m *Segmented[K, V]) Range(f func(key K, val V) bool) {
	m.walk(m.head.Ext.next[0].Load(), f)
}

// RangeFrom is Range starting at the first key ≥ from.
func (m *Segmented[K, V]) RangeFrom(from K, f func(key K, val V) bool) {
	m.walk(m.findGE(from), f)
}

// RangeBetween is Range over the half-open key interval [from, to).
func (m *Segmented[K, V]) RangeBetween(from, to K, f func(key K, val V) bool) {
	m.walk(m.findGE(from), func(k K, v V) bool { return k < to && f(k, v) })
}

// advance, window, findGE and walk are SWMR's helpers of the same names
// (swmr.go) over the segmented list's node. Sharing one node type with SWMR
// would grow SWMR's snode by the owner and chain fields.

func (m *Segmented[K, V]) advance(pred *segment.Node[K, V, Tower[K, V]], level int,
	key K) (*segment.Node[K, V, Tower[K, V]], *segment.Node[K, V, Tower[K, V]]) {
	for {
		next := pred.Ext.next[level].Load()
		if next == nil || next.Key >= key {
			return pred, next
		}
		pred = next
	}
}

func (m *Segmented[K, V]) window(key K, preds, succs *[maxLevel]*segment.Node[K, V, Tower[K, V]]) {
	pred := m.head
	for level := maxLevel - 1; level >= 0; level-- {
		pred, succs[level] = m.advance(pred, level, key)
		preds[level] = pred
	}
}

func (m *Segmented[K, V]) findGE(key K) *segment.Node[K, V, Tower[K, V]] {
	pred, next := m.head, (*segment.Node[K, V, Tower[K, V]])(nil)
	for level := maxLevel - 1; level >= 0; level-- {
		for next = pred.Ext.next[level].Load(); next != nil && next.Key < key; next = pred.Ext.next[level].Load() {
			pred = next
		}
	}
	return next
}

func (m *Segmented[K, V]) walk(n *segment.Node[K, V, Tower[K, V]], f func(key K, val V) bool) {
	for ; n != nil; n = n.Ext.next[0].Load() {
		if v, ok := m.Load(n); ok && !f(n.Key, v) {
			return
		}
	}
}

// Package segment implements the segmentations of §5.2, on which the
// CWMR/CWSR adjusted collections are built:
//
//   - Directory: the Extended segmentation, where an item retains the
//     segment where it was first stored. It is one lock-free hash directory
//     with one node per key, whose owner field is that binding (the Go
//     counterpart of the Java version's dedicated field inside the item),
//     plus a padded slot of per-owner state. The adjusted hash map and skip
//     list (internal/hashmap, internal/skiplist) are this directory; the
//     skip list extends each node with a tower, and the adjusted set is
//     built on the hash map.
//     A node holds its value in a core.Cell: a pointer-shaped value as
//     itself (a stored nil as the cell's sentinel), any other in a box; an
//     absent cell is an absent key, and a lookup is one load of it. A node
//     lives as long as its directory, so each owner takes its nodes from
//     slabs of its own: the segment carries over to memory.
//   - Base: an array of SWMR segments with a static thread→segment mapping;
//     reads traverse every segment (best for write-dominated workloads).
//   - Hash: an array of SWMR segments indexed by item hash, so a lookup
//     touches exactly one segment.
//
// Base and Hash remain as ablations of the Extended form.
package segment

import (
	"sync/atomic"

	"github.com/adjusted-objects/dego/internal/core"
)

// slot is one padded segment pointer: initialized lazily, then immutable.
type slot[S any] struct {
	_ core.Pad
	p atomic.Pointer[S]
	_ core.Pad
}

// Base is the BaseSegmentation: one segment per registered thread, owned by
// that thread (SWMR). Readers must traverse all segments.
type Base[S any] struct {
	registry *core.Registry
	newSeg   func(owner int) *S
	segs     []slot[S]
}

// NewBase creates a base segmentation over the registry's id space. newSeg
// constructs a thread's segment on first use.
func NewBase[S any](r *core.Registry, newSeg func(owner int) *S) *Base[S] {
	return &Base[S]{
		registry: r,
		newSeg:   newSeg,
		segs:     make([]slot[S], r.Capacity()),
	}
}

// Mine returns the calling thread's segment, creating it on first use. Only
// the owner may mutate the returned segment.
func (b *Base[S]) Mine(h *core.Handle) *S {
	id := h.ID()
	if s := b.segs[id].p.Load(); s != nil {
		return s
	}
	// Only the owner thread initializes its own slot, so a plain store
	// would do; the CAS keeps the invariant robust to misuse (two
	// goroutines sharing a handle) at negligible cost on this cold path.
	fresh := b.newSeg(id)
	if b.segs[id].p.CompareAndSwap(nil, fresh) {
		return fresh
	}
	return b.segs[id].p.Load()
}

// ForEach visits every initialized segment (in ascending owner order) until
// f returns false. Reads of the segmentation — sums, lookups, iterations —
// are built on it.
func (b *Base[S]) ForEach(f func(owner int, seg *S) bool) {
	hw := b.registry.HighWater()
	for id := 0; id < hw && id < len(b.segs); id++ {
		if s := b.segs[id].p.Load(); s != nil {
			if !f(id, s) {
				return
			}
		}
	}
}

// Len counts initialized segments.
func (b *Base[S]) Len() int {
	n := 0
	b.ForEach(func(int, *S) bool { n++; return true })
	return n
}

// Capacity returns the maximum number of segments.
func (b *Base[S]) Capacity() int { return len(b.segs) }

// ---------------------------------------------------------------------------

// Hash is the HashSegmentation: a fixed array of segments indexed by item
// hash. Writes remain SWMR as long as the program routes each hash class to
// one thread (the common request-routing pattern of §6.2).
type Hash[S any] struct {
	segs []slot[S]
	newS func(idx int) *S
	mask uint64
}

// NewHash creates a hash segmentation with n segments, rounded up to a power
// of two. newSeg constructs segment idx on first use.
func NewHash[S any](n int, newSeg func(idx int) *S) *Hash[S] {
	size := 1
	for size < n {
		size <<= 1
	}
	return &Hash[S]{
		segs: make([]slot[S], size),
		newS: newSeg,
		mask: uint64(size - 1),
	}
}

// Index returns the segment index for a hash code.
func (h *Hash[S]) Index(hash uint64) int { return int(hash & h.mask) }

// For returns the segment for a hash code, creating it on first use.
func (h *Hash[S]) For(hash uint64) *S {
	idx := h.Index(hash)
	if s := h.segs[idx].p.Load(); s != nil {
		return s
	}
	fresh := h.newS(idx)
	if h.segs[idx].p.CompareAndSwap(nil, fresh) {
		return fresh
	}
	return h.segs[idx].p.Load()
}

// Segments returns the number of segments.
func (h *Hash[S]) Segments() int { return len(h.segs) }

// ForEach visits every initialized segment until f returns false.
func (h *Hash[S]) ForEach(f func(idx int, seg *S) bool) {
	for i := range h.segs {
		if s := h.segs[i].p.Load(); s != nil {
			if !f(i, s) {
				return
			}
		}
	}
}

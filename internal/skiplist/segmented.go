package skiplist

import (
	"cmp"
	"sort"

	"github.com/adjusted-objects/dego/internal/core"
	"github.com/adjusted-objects/dego/internal/segment"
)

// Segmented is the paper's ExtendedSegmentedSkipListMap — the adjusted
// ordered map (M2, CWMR): an extended segmentation whose segments are SWMR
// skip lists. Writes by distinct threads on distinct keys touch distinct
// segments; a lookup touches exactly one.
type Segmented[K cmp.Ordered, V any] struct {
	ext *segment.Extended[K, SWMR[K, V]]
}

// NewSegmented creates a segmented skip list over a registry. dirBuckets
// sizes the key directory; hash routes keys to directory buckets. When
// checked is true each segment verifies its single-writer role.
func NewSegmented[K cmp.Ordered, V any](r *core.Registry, dirBuckets int,
	hash func(K) uint64, checked bool) *Segmented[K, V] {
	return &Segmented[K, V]{
		ext: segment.NewExtended[K, SWMR[K, V]](r, dirBuckets, hash,
			func(int) *SWMR[K, V] { return NewSWMR[K, V](checked) }),
	}
}

// Put inserts or updates key in its bound segment.
func (m *Segmented[K, V]) Put(h *core.Handle, key K, val V) {
	m.ext.Acquire(h, key).PutRef(h, key, &val)
}

// PutRef is Put with a caller-provided value box; see SWMR.PutRef.
func (m *Segmented[K, V]) PutRef(h *core.Handle, key K, val *V) {
	m.ext.Acquire(h, key).PutRef(h, key, val)
}

// Remove deletes key, reporting whether it was present.
func (m *Segmented[K, V]) Remove(h *core.Handle, key K) bool {
	seg, ok := m.ext.Find(key)
	if !ok {
		return false
	}
	return seg.Remove(h, key)
}

// Get returns the value for key.
func (m *Segmented[K, V]) Get(key K) (V, bool) {
	seg, ok := m.ext.Find(key)
	if !ok {
		var zero V
		return zero, false
	}
	return seg.Get(key)
}

// GetRef returns the stored value box for key; see SWMR.GetRef. It is the
// shadow-lookup hook internal/adaptive uses to recognize its tombstone boxes.
func (m *Segmented[K, V]) GetRef(key K) (*V, bool) {
	seg, ok := m.ext.Find(key)
	if !ok {
		return nil, false
	}
	return seg.GetRef(key)
}

// Contains reports whether key is present.
func (m *Segmented[K, V]) Contains(key K) bool {
	_, ok := m.Get(key)
	return ok
}

// Len sums the segment sizes.
func (m *Segmented[K, V]) Len() int {
	n := 0
	m.ext.ForEach(func(_ int, seg *SWMR[K, V]) bool {
		n += seg.Len()
		return true
	})
	return n
}

// Range calls f in ascending key order until it returns false. Segments are
// merged by collecting per-segment snapshots; the view is weakly consistent
// (like every java.util.concurrent iterator, per §5.3 "read operations over
// adjusted objects are as consistent as in JUC").
func (m *Segmented[K, V]) Range(f func(key K, val V) bool) {
	m.RangeRef(func(k K, v *V) bool { return f(k, *v) })
}

// RangeFrom is Range starting at the first key ≥ from.
func (m *Segmented[K, V]) RangeFrom(from K, f func(key K, val V) bool) {
	m.RangeRefFrom(from, func(k K, v *V) bool { return f(k, *v) })
}

// RangeBetween is Range over the half-open key interval [from, to); like
// RangeRefBetween, it snapshots only the entries inside the interval.
func (m *Segmented[K, V]) RangeBetween(from, to K, f func(key K, val V) bool) {
	m.RangeRefBetween(from, to, func(k K, v *V) bool { return f(k, *v) })
}

// RangeRef calls f with the stored value box of every entry in ascending key
// order until it returns false; weakly consistent, like Range. The box-level
// iteration is the snapshot hook internal/adaptive uses for its tombstone
// overlay and demotion drain (see SWMR.RangeRef).
func (m *Segmented[K, V]) RangeRef(f func(key K, val *V) bool) {
	m.emit(m.collect(nil, nil), f)
}

// RangeRefFrom is RangeRef starting at the first key ≥ from. The whole
// suffix is snapshotted before the first callback (collect), so callers that
// only want a bounded slice of keys should use RangeRefBetween instead.
func (m *Segmented[K, V]) RangeRefFrom(from K, f func(key K, val *V) bool) {
	m.emit(m.collect(&from, nil), f)
}

// RangeRefBetween is RangeRef over the half-open key interval [from, to).
// Unlike stopping a RangeRefFrom callback early, the upper bound is pushed
// into the per-segment scans, so only entries inside the interval are ever
// collected — the snapshot cost is proportional to the interval, not to the
// whole map.
func (m *Segmented[K, V]) RangeRefBetween(from, to K, f func(key K, val *V) bool) {
	if to <= from {
		return
	}
	m.emit(m.collect(&from, &to), f)
}

type segKV[K cmp.Ordered, V any] struct {
	k K
	v *V
}

// collect gathers per-segment snapshots (each already sorted, restricted to
// keys ≥ *from and < *to when the bounds are non-nil) and merges them into
// one sorted slice.
func (m *Segmented[K, V]) collect(from, to *K) []segKV[K, V] {
	var all []segKV[K, V]
	add := func(k K, v *V) bool {
		if to != nil && k >= *to {
			return false // per-segment scans are sorted: nothing more in range
		}
		all = append(all, segKV[K, V]{k, v})
		return true
	}
	m.ext.ForEach(func(_ int, seg *SWMR[K, V]) bool {
		if from != nil {
			seg.RangeRefFrom(*from, add)
		} else {
			seg.RangeRef(add)
		}
		return true
	})
	sort.Slice(all, func(i, j int) bool { return all[i].k < all[j].k })
	return all
}

func (m *Segmented[K, V]) emit(all []segKV[K, V], f func(key K, val *V) bool) {
	for _, e := range all {
		if !f(e.k, e.v) {
			return
		}
	}
}

package adaptive

import (
	"cmp"
	"fmt"
	"sort"

	"github.com/adjusted-objects/dego/internal/contention"
	"github.com/adjusted-objects/dego/internal/core"
	"github.com/adjusted-objects/dego/internal/skiplist"
)

// SortedMap is the contention-adaptive ordered map: the generic kvEngine
// (engine.go) instantiated over the skip-list representations. It starts as
// the lock-free CAS baseline (skiplist.Concurrent, the ConcurrentSkipListMap
// stand-in) and promotes to the adjusted representation
// (skiplist.Segmented, the paper's ExtendedSegmentedSkipListMap, M2/CWMR)
// when the windowed CAS-failure rate crosses the policy threshold; it
// demotes when writer concurrency subsides.
//
// Point operations (Put, Get, Remove, Len) are the engine's overlay,
// identical to Map. The ordered iteration is the one piece the hash-map
// overlay could not express: while a range is promoted, Range and RangeFrom
// run a merge iterator over the (live, sorted) shadow and the (frozen,
// sorted) backing — a shadowed key wins over its backed copy, a tombstone
// suppresses it, and the merged stream stays strictly ascending.
//
// # Per-range adjustment
//
// NewSortedMapFenced splits the key space at explicit ordered fences into
// contiguous key intervals, each with its own skip-list rep pair, contention
// window and state machine (hash-prefix buckets, which Map uses, would
// scatter adjacent keys across ranges and break ordered iteration). Because
// the intervals are contiguous and directory order is key order, the global
// ordered iteration is the concatenation of the per-range merge iterators —
// no cross-range merge is ever needed. Only the interval holding the hot
// keys promotes; cold intervals keep single-lookup lock-free reads.
// Policy.Ranges is ignored by SortedMap: granularity comes from the fences.
//
// # Contract
//
// Like Map, SortedMap requires the commuting-writers contract in every
// state: distinct threads write distinct keys. The lock-free phase would
// tolerate more, but promotion makes the contract load-bearing. Reads are
// unrestricted.
type SortedMap[K cmp.Ordered, V any] struct {
	eng *kvEngine[K, V, *skiplist.Concurrent[K, V], *skiplist.Segmented[K, V]]
	// fences are the range boundaries, strictly increasing: range i holds
	// the keys k with fences[i-1] <= k < fences[i]. Empty means one range.
	fences []K
	probe  *contention.Probe
}

// NewSortedMap creates an adaptive sorted map with a single range (wholesale
// adjustment) over a registry. dirBuckets sizes the segmented directory
// installed on promotion; hash routes keys to directory buckets. Pass a zero
// Policy for the defaults.
func NewSortedMap[K cmp.Ordered, V any](r *core.Registry, dirBuckets int,
	hash func(K) uint64, p Policy) *SortedMap[K, V] {
	return NewSortedMapFenced[K, V](r, dirBuckets, hash, nil, p)
}

// NewSortedMapFenced creates an adaptive sorted map whose range directory is
// fenced at the given keys: len(fences)+1 contiguous key intervals, each
// promoting and demoting independently. fences must be strictly increasing
// (it panics otherwise); nil or empty fences yield the single-range map.
// dirBuckets is a per-object total, divided among the ranges.
func NewSortedMapFenced[K cmp.Ordered, V any](r *core.Registry, dirBuckets int,
	hash func(K) uint64, fences []K, p Policy) *SortedMap[K, V] {
	for i := 1; i < len(fences); i++ {
		if fences[i] <= fences[i-1] {
			panic(fmt.Sprintf("adaptive: fences must be strictly increasing (fence %d)", i))
		}
	}
	probe := contention.NewProbe()
	nRanges := len(fences) + 1
	perRange := max(dirBuckets/nRanges, 1)
	m := &SortedMap[K, V]{fences: append([]K(nil), fences...), probe: probe}
	m.eng = newKVEngine[K, V](r, probe, p, nRanges,
		m.rangeIdx,
		func(rp *contention.Probe) *skiplist.Concurrent[K, V] {
			return skiplist.NewConcurrent[K, V](rp)
		},
		func() *skiplist.Segmented[K, V] {
			return skiplist.NewSegmented[K, V](r, perRange, hash, false)
		})
	return m
}

// rangeIdx returns the directory index of key's interval: the number of
// fences at or below key.
func (m *SortedMap[K, V]) rangeIdx(key K) int {
	return sort.Search(len(m.fences), func(i int) bool { return m.fences[i] > key })
}

// Put inserts or updates key. Blind, like both underlying lists.
func (m *SortedMap[K, V]) Put(h *core.Handle, key K, val V) {
	m.eng.putRef(h, key, &val)
}

// PutRef is Put with a caller-provided value box; see Map.PutRef.
func (m *SortedMap[K, V]) PutRef(h *core.Handle, key K, val *V) {
	m.eng.putRef(h, key, val)
}

// Remove deletes key, reporting whether it was present.
func (m *SortedMap[K, V]) Remove(h *core.Handle, key K) bool {
	return m.eng.remove(h, key)
}

// Get returns the value for key. Any thread may call it; it never blocks,
// even mid-transition. A key in a quiescent range reads the lock-free list
// directly, with no overlay lookup, regardless of other ranges' states.
func (m *SortedMap[K, V]) Get(key K) (V, bool) { return m.eng.get(key) }

// Contains reports whether key is present.
func (m *SortedMap[K, V]) Contains(key K) bool {
	_, ok := m.eng.get(key)
	return ok
}

// Len returns the number of entries; weakly consistent (and O(n) for
// promoted ranges).
func (m *SortedMap[K, V]) Len() int { return m.eng.len() }

// Range calls f for every entry in strictly ascending key order until it
// returns false; weakly consistent, like the underlying lists. Ranges are
// walked in fence order, so the concatenated stream stays sorted across
// range boundaries.
func (m *SortedMap[K, V]) Range(f func(key K, val V) bool) {
	for ri := range m.eng.ranges {
		var from K
		bounded := false
		if ri > 0 {
			from, bounded = m.fences[ri-1], true
		}
		if m.rangeMergedIn(&m.eng.ranges[ri], from, bounded, nil, f) {
			return
		}
	}
}

// RangeFrom is Range starting at the first key ≥ from. While a range is
// promoted, its shadow suffix ≥ from is snapshotted up front — callers
// scanning a bounded key interval should use RangeBetween, which pushes the
// upper bound into the snapshot.
func (m *SortedMap[K, V]) RangeFrom(from K, f func(key K, val V) bool) {
	for ri := m.rangeIdx(from); ri < len(m.eng.ranges); ri++ {
		lo := from
		if ri > 0 && m.fences[ri-1] > lo {
			lo = m.fences[ri-1]
		}
		if m.rangeMergedIn(&m.eng.ranges[ri], lo, true, nil, f) {
			return
		}
	}
}

// RangeBetween is Range over the half-open key interval [from, to). Unlike
// stopping a RangeFrom callback early, the bound limits the work done up
// front: the promoted-phase shadow copy holds only entries inside the
// interval (skiplist.Segmented.RangeRefBetween stops at to), so the cost is
// proportional to the interval, not to the whole map — and only the ranges
// whose fences intersect the interval are visited at all.
func (m *SortedMap[K, V]) RangeBetween(from, to K, f func(key K, val V) bool) {
	if to <= from {
		return
	}
	for ri := m.rangeIdx(from); ri < len(m.eng.ranges); ri++ {
		lo := from
		if ri > 0 {
			if fence := m.fences[ri-1]; fence >= to {
				return // every remaining range is entirely ≥ to
			} else if fence > lo {
				lo = fence
			}
		}
		if m.rangeMergedIn(&m.eng.ranges[ri], lo, true, &to, f) {
			return
		}
	}
}

// rangeMergedIn iterates one range in ascending key order, starting at from
// when bounded (a zero K is not the minimum for signed or string keys, so
// Range cannot just delegate with the zero value) and stopping before *to
// when to is non-nil. It reports whether f stopped the iteration, so the
// cross-range concatenation can halt.
//
// While the range is promoted (or demoting) this is the ordered analogue of
// the engine's rangeOverlay, with the same single definition of visibility —
// shadow wins, tombstone suppresses, backing fills the rest — but
// merge-ordered: the shadow's lazy, already ascending walk is copied into a
// slice of (key, box) pairs, then the frozen backing is walked in order while
// shadow entries interleave at their key positions. Both streams are
// individually sorted, so the merge is strictly ascending with each key
// emitted at most once.
// Snapshotting the shadow first is safe for the same reason the engine's
// backing-first pass is: the backing is frozen, so a key's "backed" status
// cannot change mid-iteration, and a put racing the snapshot at worst leaves
// the backed copy visible — the weakly-consistent contract every JUC
// iterator has.
func (m *SortedMap[K, V]) rangeMergedIn(rg *kvRange[K, V, *skiplist.Concurrent[K, V], *skiplist.Segmented[K, V]],
	from K, bounded bool, to *K, f func(key K, val V) bool) bool {
	v := rg.mach.view()
	if v.state == StateQuiescent || v.state == StateMigrating {
		stop := false
		walk := func(k K, val V) bool {
			if to != nil && k >= *to {
				return false
			}
			if !f(k, val) {
				stop = true
			}
			return !stop
		}
		if bounded {
			// The lock-free walk is lazy, so the upper bound is just an
			// early exit.
			v.reps.cheap.RangeFrom(from, walk)
		} else {
			v.reps.cheap.Range(walk)
		}
		return stop
	}

	type kb struct {
		k K
		b *V
	}
	var shadow []kb
	collect := func(k K, b *V) bool {
		shadow = append(shadow, kb{k, b})
		return true
	}
	switch {
	case to != nil:
		v.reps.adj.RangeRefBetween(from, *to, collect)
	case bounded:
		v.reps.adj.RangeRefFrom(from, collect)
	default:
		v.reps.adj.RangeRef(collect)
	}

	// emitShadow flushes shadow entries with keys below bound (or all of
	// them when done), skipping tombstones.
	i := 0
	stop := false
	emitShadow := func(bound K, all bool) {
		for i < len(shadow) && (all || shadow[i].k < bound) {
			e := shadow[i]
			i++
			if e.b == m.eng.tomb {
				continue
			}
			if !f(e.k, *e.b) {
				stop = true
				return
			}
		}
	}

	walk := func(k K, val V) bool {
		if to != nil && k >= *to {
			// Backing left the interval. The pending shadow entries are all
			// < *to (collection was bounded) and > every key emitted so far,
			// so the final flush below completes the merge in order.
			return false
		}
		emitShadow(k, false)
		if stop {
			return false
		}
		if i < len(shadow) && shadow[i].k == k {
			e := shadow[i]
			i++
			if e.b == m.eng.tomb {
				return true // deleted under the shadow
			}
			val = *e.b // shadowed value wins over the backed copy
		}
		if !f(k, val) {
			stop = true
		}
		return !stop
	}
	if bounded {
		v.reps.cheap.RangeFrom(from, walk)
	} else {
		v.reps.cheap.Range(walk)
	}
	if !stop {
		var zero K
		emitShadow(zero, true)
	}
	return stop
}

// Ranges returns the size of the range directory (1 = wholesale).
func (m *SortedMap[K, V]) Ranges() int { return len(m.eng.ranges) }

// RangeOf returns the directory index of key's interval.
func (m *SortedMap[K, V]) RangeOf(key K) int { return m.rangeIdx(key) }

// RangeState returns the state of directory entry i.
func (m *SortedMap[K, V]) RangeState(i int) State { return m.eng.stateRange(i) }

// ForcePromoteRange promotes directory entry i regardless of policy; see
// Map.ForcePromoteRange.
func (m *SortedMap[K, V]) ForcePromoteRange(i int) bool { return m.eng.forcePromoteRange(i) }

// ForceDemoteRange drains directory entry i back to a fresh lock-free list
// regardless of policy; see Map.ForceDemoteRange.
func (m *SortedMap[K, V]) ForceDemoteRange(i int) bool { return m.eng.forceDemoteRange(i) }

// ForcePromote promotes every quiescent range regardless of policy; see
// Map.ForcePromote.
func (m *SortedMap[K, V]) ForcePromote() bool { return m.eng.forcePromote() }

// ForceDemote demotes every promoted range regardless of policy; see
// Map.ForceDemote.
func (m *SortedMap[K, V]) ForceDemote() bool { return m.eng.forceDemote() }

// State summarizes the directory; see Map.State.
func (m *SortedMap[K, V]) State() State { return m.eng.stateSummary() }

// Transitions returns the number of representation switches so far, summed
// over all ranges.
func (m *SortedMap[K, V]) Transitions() int64 { return m.eng.transitions() }

// Probe returns the object-level contention probe: every range's stalls
// (lock-free CAS failures, transition spins) aggregate here, while each
// range's promotion decision reads only its own per-range child probe.
func (m *SortedMap[K, V]) Probe() *contention.Probe { return m.probe }

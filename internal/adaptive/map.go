package adaptive

import (
	"math/bits"

	"github.com/adjusted-objects/dego/internal/contention"
	"github.com/adjusted-objects/dego/internal/core"
	"github.com/adjusted-objects/dego/internal/hashmap"
)

// Map is the contention-adaptive hash map: the generic kvEngine (engine.go)
// instantiated over the hash-map representations. It starts as the
// lock-striped baseline (hashmap.Striped, the ConcurrentHashMap stand-in)
// and promotes to the adjusted representation (hashmap.Segmented, the
// paper's ExtendedSegmentedHashMap, M2/CWMR) when the windowed lock-wait
// rate crosses the policy threshold; it demotes when writer concurrency
// subsides. The migration mechanics — O(1) promotion freezing the striped
// map as a read-through backing, tombstone shadowing, the lazy per-owner
// re-homing, the demotion drain — are the engine's; see engine.go.
//
// # Per-range adjustment
//
// With Policy.Ranges > 1 the key space is split into hash-prefix buckets
// (the top bits of the key hash), each with its own striped/segmented rep
// pair, contention window and state machine. Only the buckets whose keys
// actually contend promote; keys in cold buckets keep single-lookup striped
// reads. Ranges=1 (the default) adjusts wholesale, as before.
//
// # Contract
//
// Map requires the commuting-writers contract of the segmented map in every
// state: distinct threads write distinct keys (route requests by key hash,
// as §6.2 does). The striped phase would tolerate more, but promotion makes
// the contract load-bearing — it is what makes the lazy re-homing and the
// read-modify-write in Remove safe. Reads are unrestricted.
type Map[K comparable, V any] struct {
	eng   *kvEngine[K, V, *hashmap.Striped[K, V], *hashmap.Segmented[K, V]]
	probe *contention.Probe
	hash  func(K) uint64
	shift uint // 64 - log2(ranges); routes a hash to its prefix bucket
}

// NewMap creates an adaptive map over a registry. stripes and capacity size
// the cheap representation; dirBuckets sizes the segmented directory used
// after promotion. All three are per-object totals:
// with Policy.Ranges > 1 they are divided among the ranges. Pass a zero
// Policy for the defaults.
func NewMap[K comparable, V any](r *core.Registry, stripes, capacity, dirBuckets int,
	hash func(K) uint64, p Policy) *Map[K, V] {
	probe := contention.NewProbe()
	nRanges := p.withDefaults().rangeCount()
	perRange := func(n int) int { return max(n/nRanges, 1) }
	m := &Map[K, V]{
		probe: probe,
		hash:  hash,
		shift: uint(64 - bits.TrailingZeros(uint(nRanges))),
	}
	m.eng = newKVEngine[K, V](r, probe, p, nRanges,
		m.rangeOfKey,
		func(rp *contention.Probe) *hashmap.Striped[K, V] {
			return hashmap.NewStriped[K, V](perRange(stripes), perRange(capacity), hash, rp)
		},
		func() *hashmap.Segmented[K, V] {
			return hashmap.NewSegmented[K, V](r, perRange(capacity), perRange(dirBuckets), hash, false)
		})
	return m
}

// rangeOfKey routes key to its hash-prefix bucket. With a single range the
// engine never calls it, and the shift of 64 would yield 0 anyway (Go
// defines over-wide variable shifts as 0).
func (m *Map[K, V]) rangeOfKey(key K) int {
	return int(m.hash(key) >> m.shift)
}

// Put inserts or updates key. Blind, like both underlying maps.
func (m *Map[K, V]) Put(h *core.Handle, key K, val V) {
	m.eng.putRef(h, key, &val)
}

// PutRef is Put with a caller-provided value box: once the key's range is
// promoted the box is stored directly (no allocation on the update path, as
// SWMR.PutRef); in the cheap state its value is copied into the striped
// map. The box must not be mutated after the call.
func (m *Map[K, V]) PutRef(h *core.Handle, key K, val *V) {
	m.eng.putRef(h, key, val)
}

// Remove deletes key, reporting whether it was present.
func (m *Map[K, V]) Remove(h *core.Handle, key K) bool {
	return m.eng.remove(h, key)
}

// Get returns the value for key. Any thread may call it; it never blocks,
// even mid-transition. A key in a quiescent range reads the striped map
// directly, with no overlay lookup, regardless of other ranges' states.
func (m *Map[K, V]) Get(key K) (V, bool) { return m.eng.get(key) }

// Contains reports whether key is present.
func (m *Map[K, V]) Contains(key K) bool {
	_, ok := m.eng.get(key)
	return ok
}

// Len returns the number of entries; weakly consistent, like the underlying
// maps (and O(n) for promoted ranges, where backed keys must be checked
// against their shadows).
func (m *Map[K, V]) Len() int { return m.eng.len() }

// Range calls f for every entry until it returns false; weakly consistent.
func (m *Map[K, V]) Range(f func(key K, val V) bool) { m.eng.rangeAny(f) }

// Ranges returns the size of the range directory (1 = wholesale).
func (m *Map[K, V]) Ranges() int { return len(m.eng.ranges) }

// RangeOf returns the directory index of key's range.
func (m *Map[K, V]) RangeOf(key K) int {
	if m.Ranges() == 1 {
		return 0
	}
	return m.rangeOfKey(key)
}

// RangeState returns the state of directory entry i.
func (m *Map[K, V]) RangeState(i int) State { return m.eng.stateRange(i) }

// ForcePromoteRange promotes directory entry i regardless of policy,
// reporting whether the transition happened (false when the range is not
// quiescent or a concurrent transition won). Only that range's writers
// quiesce; no data moves.
func (m *Map[K, V]) ForcePromoteRange(i int) bool { return m.eng.forcePromoteRange(i) }

// ForceDemoteRange drains directory entry i back to a fresh striped map
// regardless of policy. Only that range's writers pause for the drain.
func (m *Map[K, V]) ForceDemoteRange(i int) bool { return m.eng.forceDemoteRange(i) }

// ForcePromote promotes every quiescent range regardless of policy,
// reporting whether any transition happened. With Ranges=1 this is the
// wholesale promotion of the pre-directory engine: the striped map freezes
// as the backing store under a fresh segmented map.
func (m *Map[K, V]) ForcePromote() bool { return m.eng.forcePromote() }

// ForceDemote demotes every promoted range regardless of policy (segmented
// shadows overlaid on the frozen backing, tombstones dropping keys, into a
// fresh striped map per range), reporting whether any transition happened.
func (m *Map[K, V]) ForceDemote() bool { return m.eng.forceDemote() }

// State summarizes the directory: the single range's state when Ranges=1,
// otherwise the most adjusted state present (promoted if any range is
// promoted, else an in-flight transition state, else quiescent). Use
// RangeState for per-range inspection.
func (m *Map[K, V]) State() State { return m.eng.stateSummary() }

// Transitions returns the number of representation switches so far, summed
// over all ranges.
func (m *Map[K, V]) Transitions() int64 { return m.eng.transitions() }

// Probe returns the object-level contention probe: every range's stalls
// (striped lock waits, transition spins) aggregate here, while each range's
// promotion decision reads only its own per-range child probe.
func (m *Map[K, V]) Probe() *contention.Probe { return m.probe }

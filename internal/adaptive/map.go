package adaptive

import (
	"math/bits"

	"github.com/adjusted-objects/dego/internal/contention"
	"github.com/adjusted-objects/dego/internal/core"
	"github.com/adjusted-objects/dego/internal/hashmap"
)

// Map is the contention-adaptive hash map. It starts as the lock-striped
// baseline (hashmap.Striped, the ConcurrentHashMap stand-in) and promotes to
// the adjusted representation (hashmap.Segmented, the paper's
// ExtendedSegmentedHashMap, M2/CWMR) when the windowed lock-wait rate
// crosses the policy threshold; it demotes when writer concurrency subsides.
// internal/adaptive/README.md documents the freeze and drain invariants the
// map preserves.
//
// # The range directory
//
// The key space is split into hash-prefix ranges (the top bits of the key
// hash), and every range carries its own striped/segmented pair, its own
// contention probe and sampling window, and its own state machine. Ranges
// promote and demote independently: a hot range pays the segmented map's
// overlay lookup while cold ranges keep single-lookup striped reads — the
// paper's "pay for the adjustment only where the contention is", applied
// inside a single object. One range (the default) adjusts wholesale.
//
// Routing is pure: a key's range is a function of its hash alone, so its
// entries, backing and tombstones all live in one range and the ranges never
// coordinate. Writers of one range are quiesced without stalling writers of
// any other.
//
// # Migration
//
// Promotion is O(1) and drains nothing: after a range's writers quiesce, its
// striped map is frozen and becomes a read-through backing store under a
// fresh, empty segmented map. Eagerly draining would be wrong, not just
// slow: the extended segmentation binds each key, on first insert, to the
// segment of the thread that inserted it — a bulk drain by one migrator
// thread would bind every key to the migrator's segment and later writers of
// those keys would break the segment's single-writer contract. Instead each
// key is lazily re-homed by its own first post-promotion write (the writer
// that owns it under CWMR), which is exactly the binding the extended
// segmentation wants. Reads check the segmented map, then fall back to the
// frozen backing; removals of backed keys write a tombstone box so the
// backing cannot resurrect them. Demotion is the real drain: the range's
// writers quiesce, the shadow entries are overlaid on the backing
// (tombstones dropping keys, shadows winning), and the merge lands in a
// fresh striped map.
//
// During both transitions readers never block — they keep reading the stable
// source representations of the old view, and readers and writers of every
// other range are untouched. Writers arriving mid-transition in the
// transitioning range spin (recorded in that range's probe); promotion's
// window is just the quiesce, demotion's also covers the merge.
//
// # Sampling rides the write path
//
// Contention samples are taken by writers (every SampleEvery-th operation of
// a thread within a range); reads deliberately carry no shared sampling
// state, since a per-read shared counter would reintroduce exactly the
// cache-line traffic promotion removes. The consequence: a range that stops
// writing keeps whatever representation it last had. A promoted range that
// turns read-only stays promoted — correct, but every miss in the segmented
// map pays the second lookup in the frozen backing until the next write
// burst resumes sampling (an incremental scavenger for the backing is a
// ROADMAP item).
//
// # Contract
//
// Map requires the commuting-writers contract of the segmented map in every
// state: distinct threads write distinct keys (route requests by key hash,
// as §6.2 does). The striped phase would tolerate more, but promotion makes
// the contract load-bearing — it is what makes the lazy re-homing and the
// read-modify-write in Remove safe. Reads are unrestricted.
type Map[K comparable, V any] struct {
	// ranges is the directory; immutable after construction.
	ranges []machine[K, V]
	probe  *contention.Probe
	hash   func(K) uint64
	shift  uint // 64 - log2(len(ranges)); routes a hash to its prefix bucket

	// The per-range sizes of a fresh striped map (construction and the
	// demotion drain) and a fresh segmented map (promotion).
	reg                           *core.Registry
	stripes, capacity, dirBuckets int

	// tomb is the sentinel box marking a backed key as deleted, recognized
	// by pointer identity. It is shared by every range (a sentinel has no
	// per-range state) and must point INTO this struct (tombStore), not at
	// a separate allocation: for zero-size V the runtime gives every
	// heap-allocated value one shared address, so a `new(V)` sentinel would
	// alias every user box and classify live entries as deleted. An
	// interior pointer to an unexported field can never equal a box a
	// caller could hand us.
	tomb      *V
	tombStore struct {
		v V
		_ byte // keeps the enclosing field non-zero-size so &v stays interior
	}
}

// NewMap creates an adaptive map over a registry with ranges hash-prefix
// ranges (rounded up to a power of two; 1 or less adjusts wholesale).
// stripes and capacity size the striped map; dirBuckets sizes the segmented
// directory used after promotion. All three are per-object totals, divided
// among the ranges. Each range carries its own per-thread sampling state
// sized by the registry, so memory grows linearly with ranges; prefer a
// handful (8-32) over hundreds. Pass a zero Policy for the defaults.
func NewMap[K comparable, V any](r *core.Registry, stripes, capacity, dirBuckets, ranges int,
	hash func(K) uint64, p Policy) *Map[K, V] {
	n := rangeCount(ranges)
	perRange := func(total int) int { return max(total/n, 1) }
	m := &Map[K, V]{
		ranges:     make([]machine[K, V], n),
		probe:      new(contention.Probe),
		hash:       hash,
		shift:      uint(64 - bits.TrailingZeros(uint(n))),
		reg:        r,
		stripes:    perRange(stripes),
		capacity:   perRange(capacity),
		dirBuckets: perRange(dirBuckets),
	}
	m.tomb = &m.tombStore.v
	p = p.withDefaults()
	for i := range m.ranges {
		// With one range the object probe doubles as the range's; with
		// several each range records into its own child, and stalls still
		// aggregate into the object probe.
		rp := m.probe
		if n > 1 {
			rp = m.probe.Child()
		}
		m.ranges[i].init(r, rp, p, m.newStriped(rp))
	}
	return m
}

// newStriped builds a fresh striped map for one range, wired to the range's
// probe so its lock waits land in the range's own sample stream.
func (m *Map[K, V]) newStriped(probe *contention.Probe) *hashmap.Striped[K, V] {
	return hashmap.NewStriped[K, V](m.stripes, m.capacity, m.hash, probe)
}

// rangeOf returns the directory entry owning key.
func (m *Map[K, V]) rangeOf(key K) *machine[K, V] { return &m.ranges[m.RangeOf(key)] }

// Put inserts or updates key. Blind, like both underlying maps.
func (m *Map[K, V]) Put(h *core.Handle, key K, val V) { m.PutRef(h, key, &val) }

// PutRef is Put with a caller-provided value box: once the key's range is
// promoted the box is stored directly (the segmented map holds *V, so its
// cell stores the box as it is and an update allocates nothing); in the
// cheap state its value is copied into the striped map. The box must not be
// mutated after the call.
func (m *Map[K, V]) PutRef(h *core.Handle, key K, val *V) {
	rg := m.rangeOf(key)
	v := rg.enter(h)
	if v.adj == nil {
		v.cheap.Put(key, *val)
	} else {
		v.adj.Put(h, key, val)
	}
	if rg.exit(h) {
		m.sample(rg)
	}
}

// Remove deletes key, reporting whether it was present.
func (m *Map[K, V]) Remove(h *core.Handle, key K) bool {
	rg := m.rangeOf(key)
	v := rg.enter(h)
	var present bool
	if v.adj == nil {
		present = v.cheap.Remove(key)
	} else {
		// The caller owns key (CWMR), so this read-modify-write races with
		// no other writer of key.
		box, ok := v.adj.Get(key)
		switch {
		case ok && box == m.tomb:
			present = false
		case ok:
			present = true
			if v.cheap.Contains(key) {
				v.adj.Put(h, key, m.tomb) // mask the backed copy
			} else {
				v.adj.Remove(h, key)
			}
		default:
			if v.cheap.Contains(key) {
				v.adj.Put(h, key, m.tomb)
				present = true
			}
		}
	}
	if rg.exit(h) {
		m.sample(rg)
	}
	return present
}

// Get returns the value for key. Any thread may call it; it never blocks,
// even mid-transition. A key in a quiescent range reads the striped map
// directly, with no overlay lookup, regardless of other ranges' states.
func (m *Map[K, V]) Get(key K) (V, bool) {
	v := m.rangeOf(key).cur.Load()
	if v.adj != nil { // promoted or demoting: shadow, then backing
		if box, ok := v.adj.Get(key); ok {
			if box == m.tomb {
				var zero V
				return zero, false
			}
			return *box, true
		}
	}
	return v.cheap.Get(key)
}

// Contains reports whether key is present.
func (m *Map[K, V]) Contains(key K) bool {
	_, ok := m.Get(key)
	return ok
}

// each calls f for every entry v holds until f returns false, reporting
// whether f stopped the iteration; weakly consistent, in no particular
// order. With a segmented map in v it is the single definition of "what a
// promoted range contains" — shadow entries overlaid on the frozen backing,
// tombstones masking backed keys — shared by Len, Range and the demotion
// drain.
//
// The pass order matters for the live (non-quiesced) callers: the backing
// is frozen, so "k is backed" is stable for the whole iteration. Walking
// the backing first and consulting each key's shadow at emit time means a
// backed key is emitted exactly once with its freshest visible value —
// iterating the shadows first instead would let a concurrent put shadow a
// backed key between the passes and drop it from both.
func (m *Map[K, V]) each(v *view[K, V], f func(key K, val V) bool) bool {
	stop := false
	v.cheap.Range(func(k K, val V) bool {
		if v.adj != nil {
			if box, ok := v.adj.Get(k); ok {
				if box == m.tomb {
					return true
				}
				val = *box
			}
		}
		stop = !f(k, val)
		return !stop
	})
	if stop || v.adj == nil {
		return stop
	}
	// Keys living only in the segmented map (never backed).
	v.adj.Range(func(k K, box *V) bool {
		if box == m.tomb || v.cheap.Contains(k) {
			return true
		}
		stop = !f(k, *box)
		return !stop
	})
	return stop
}

// Len returns the number of entries; weakly consistent, like the underlying
// maps (and O(n) for promoted ranges, where backed keys must be checked
// against their shadows).
func (m *Map[K, V]) Len() int {
	n := 0
	for i := range m.ranges {
		if v := m.ranges[i].cur.Load(); v.adj == nil {
			n += v.cheap.Len()
		} else {
			m.each(v, func(K, V) bool { n++; return true })
		}
	}
	return n
}

// Range calls f for every entry until it returns false; weakly consistent,
// in no particular order (ranges are visited in directory order, but
// hash-prefix ranges impose no key order).
func (m *Map[K, V]) Range(f func(key K, val V) bool) {
	for i := range m.ranges {
		if m.each(m.ranges[i].cur.Load(), f) {
			return
		}
	}
}

// sample runs one range's controller and applies its verdict to that range.
func (m *Map[K, V]) sample(rg *machine[K, V]) {
	switch rg.evaluate() {
	case actPromote:
		m.promote(rg)
	case actDemote:
		m.demote(rg)
	}
}

// promote freezes one range's striped map as the backing store and installs
// a fresh segmented map over it. It reports whether the transition happened
// (false when the range is not quiescent or when a concurrent transition
// won). The call blocks only for the quiesce of that range's writers — no
// data moves and no other range is touched.
func (m *Map[K, V]) promote(rg *machine[K, V]) bool {
	old := rg.cur.Load()
	if old.state != StateQuiescent {
		return false
	}
	mid := &view[K, V]{state: StateMigrating, cheap: old.cheap}
	final := &view[K, V]{state: StatePromoted, cheap: old.cheap,
		adj: hashmap.NewSegmented[K, *V](m.reg, m.capacity, m.dirBuckets, m.hash, false)}
	return rg.swap(old, mid, final, nil)
}

// demote drains one range's promoted representation (shadow entries overlaid
// on the frozen backing, tombstones dropping keys) into a fresh striped map.
// The range's writers pause for the drain; its readers — and every other
// range — are untouched.
func (m *Map[K, V]) demote(rg *machine[K, V]) bool {
	old := rg.cur.Load()
	if old.state != StatePromoted {
		return false
	}
	mid := &view[K, V]{state: StateDemoting, cheap: old.cheap, adj: old.adj}
	final := &view[K, V]{state: StateQuiescent, cheap: m.newStriped(rg.probe)}
	return rg.swap(old, mid, final, func() {
		m.each(old, func(k K, val V) bool { final.cheap.Put(k, val); return true })
	})
}

// Ranges returns the size of the range directory (1 = wholesale).
func (m *Map[K, V]) Ranges() int { return len(m.ranges) }

// RangeOf returns the directory index of key's range.
func (m *Map[K, V]) RangeOf(key K) int {
	if len(m.ranges) == 1 {
		return 0
	}
	return int(m.hash(key) >> m.shift)
}

// RangeState returns the state of directory entry i.
func (m *Map[K, V]) RangeState(i int) State { return m.ranges[i].cur.Load().state }

// ForcePromoteRange promotes directory entry i regardless of policy,
// reporting whether the transition happened (false when the range is not
// quiescent or a concurrent transition won). Only that range's writers
// quiesce; no data moves.
func (m *Map[K, V]) ForcePromoteRange(i int) bool { return m.promote(&m.ranges[i]) }

// ForceDemoteRange drains directory entry i back to a fresh striped map
// regardless of policy. Only that range's writers pause for the drain.
func (m *Map[K, V]) ForceDemoteRange(i int) bool { return m.demote(&m.ranges[i]) }

// ForcePromote promotes every quiescent range regardless of policy,
// reporting whether any transition happened. With one range this is the
// wholesale promotion: the striped map freezes as the backing store under a
// fresh segmented map.
func (m *Map[K, V]) ForcePromote() bool {
	moved := false
	for i := range m.ranges {
		moved = m.promote(&m.ranges[i]) || moved
	}
	return moved
}

// ForceDemote demotes every promoted range regardless of policy (segmented
// shadows overlaid on the frozen backing, tombstones dropping keys, into a
// fresh striped map per range), reporting whether any transition happened.
func (m *Map[K, V]) ForceDemote() bool {
	moved := false
	for i := range m.ranges {
		moved = m.demote(&m.ranges[i]) || moved
	}
	return moved
}

// State summarizes the directory: the single range's state with one range,
// otherwise the "most adjusted" state present, by the fixed precedence
// promoted > demoting > migrating > quiescent (a demoting range still serves
// its segmented map, a migrating one never has). Use RangeState for
// per-range inspection.
func (m *Map[K, V]) State() State {
	summary := StateQuiescent
	for i := range m.ranges {
		switch s := m.RangeState(i); s {
		case StatePromoted:
			return s
		case StateDemoting:
			summary = s
		case StateMigrating:
			if summary != StateDemoting {
				summary = s
			}
		}
	}
	return summary
}

// Transitions returns the number of representation switches so far, summed
// over all ranges.
func (m *Map[K, V]) Transitions() int64 {
	var n int64
	for i := range m.ranges {
		n += m.ranges[i].transitions.Load()
	}
	return n
}

// Probe returns the object-level contention probe: every range's stalls
// (striped lock waits, transition spins) aggregate here, while each range's
// promotion decision reads only its own per-range child probe.
func (m *Map[K, V]) Probe() *contention.Probe { return m.probe }

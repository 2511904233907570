// Package flatmap is the flat representation family: preallocated,
// no-pointer, array-of-structs open-addressing tables for integer-keyed
// objects. Where the node-based families (hashmap, skiplist) allocate one
// heap node per entry and chase a pointer per probe, a flat table stores
// key and value inline in one contiguous slot array — a probe is a cache
// line walk, an insert writes in place, and a table built from a declared
// Capacity never allocates again in steady state. With no per-entry
// pointers the garbage collector has nothing to trace, so the family keeps
// its cost profile flat as working sets grow past the caches — exactly the
// regime where node-based maps degrade (every probe a DRAM-class miss plus
// GC mark traffic).
//
// The core is a linear-probe table with power-of-two sizing and
// tombstone-free deletion: removing an entry backward-shifts the
// displaced run instead of leaving a tombstone, so probe chains never
// accumulate dead slots and read cost does not degrade with churn. Key 0
// is the free-slot sentinel and is stored out of band.
//
// Two concurrent variants wrap the core: Map (single-writer, RWMutex —
// the SWMR point of the catalog) and Sharded (commuting writers routed to
// padded per-shard tables — the CWMR point). A set is either of them over
// empty values, one key word per slot; Counter completes the family. Keys
// are uint64; the public planner (package dego) encodes any
// integer key type to uint64 losslessly and gates plans on a declared
// Capacity.
package flatmap

import (
	"math/bits"

	"github.com/adjusted-objects/dego/internal/stats"
)

// minSlots is the smallest slot array; small enough that a tiny declared
// capacity stays tiny, large enough that the fill limit is meaningful.
const minSlots = 8

// slotsFor returns the slot-array length for a declared capacity: the next
// power of two that keeps capacity entries at or below the fill limit, so
// a table sized by Capacity(n) never grows while holding ≤ n entries.
func slotsFor(capacity int) int {
	if capacity < 1 {
		capacity = 1
	}
	n := minSlots
	if capacity > minSlots {
		n = 1 << bits.Len(uint(capacity-1))
	}
	for fillLimit(n) < capacity {
		n *= 2
	}
	return n
}

// fillLimit is the occupancy (excluding the out-of-band zero key) at which
// a table of n slots doubles: ~2/3 full, the classic linear-probe sweet
// spot between space and expected probe length.
func fillLimit(n int) int { return n * 2 / 3 }

// slot is one entry: key and value inline, no pointers of the table's own
// making (V itself may of course contain some).
type slot[V any] struct {
	key uint64
	val V
}

// table is the single-threaded open-addressing core. Concurrency is the
// wrapping variant's problem; table methods assume exclusive access for
// writes and stable state for reads.
type table[V any] struct {
	slots []slot[V]
	mask  uint64
	limit int // grow when used reaches this (~2/3 of len(slots))
	used  int // occupied slots, excluding the out-of-band zero key
	// Key 0 marks a free slot, so the real key 0 lives out of band.
	hasZero bool
	zeroVal V
}

// init sizes the table for a declared capacity.
func (t *table[V]) init(capacity int) {
	n := slotsFor(capacity)
	t.slots = make([]slot[V], n)
	t.mask = uint64(n - 1)
	t.limit = fillLimit(n)
}

// home is the probe start for key: the mixed hash masked to the table. The
// mix (splitmix64 finalizer) is what makes sequential IDs — the common
// integer-key workload — spread instead of clustering into one probe run.
func (t *table[V]) home(key uint64) uint64 {
	return stats.Hash64(key) & t.mask
}

// len returns the entry count.
func (t *table[V]) len() int {
	if t.hasZero {
		return t.used + 1
	}
	return t.used
}

// get returns the value for key.
func (t *table[V]) get(key uint64) (V, bool) {
	if key == 0 {
		if t.hasZero {
			return t.zeroVal, true
		}
		var zero V
		return zero, false
	}
	i := t.home(key)
	for {
		s := &t.slots[i]
		if s.key == key {
			return s.val, true
		}
		if s.key == 0 {
			var zero V
			return zero, false
		}
		i = (i + 1) & t.mask
	}
}

// contains reports whether key is present (no value copy).
func (t *table[V]) contains(key uint64) bool {
	if key == 0 {
		return t.hasZero
	}
	i := t.home(key)
	for {
		k := t.slots[i].key
		if k == key {
			return true
		}
		if k == 0 {
			return false
		}
		i = (i + 1) & t.mask
	}
}

// put inserts or updates key, reporting whether the key is new. Steady
// state (occupancy within the constructed capacity) writes in place and
// never allocates; exceeding it doubles the slot array.
func (t *table[V]) put(key uint64, val V) bool {
	if key == 0 {
		fresh := !t.hasZero
		t.hasZero, t.zeroVal = true, val
		return fresh
	}
	i := t.home(key)
	for {
		s := &t.slots[i]
		if s.key == key {
			s.val = val
			return false
		}
		if s.key == 0 {
			if t.used >= t.limit {
				t.grow()
				return t.put(key, val) // re-probe in the doubled table
			}
			s.key, s.val = key, val
			t.used++
			return true
		}
		i = (i + 1) & t.mask
	}
}

// grow doubles the slot array and reinserts every entry.
func (t *table[V]) grow() {
	old := t.slots
	n := len(old) * 2
	t.slots = make([]slot[V], n)
	t.mask = uint64(n - 1)
	t.limit = fillLimit(n)
	t.used = 0
	for i := range old {
		if old[i].key != 0 {
			j := t.home(old[i].key)
			for t.slots[j].key != 0 {
				j = (j + 1) & t.mask
			}
			t.slots[j] = old[i]
			t.used++
		}
	}
}

// remove deletes key, reporting whether it was present. Deletion is
// tombstone-free: the freed slot is refilled by backward-shifting the
// displaced tail of its probe run, so chains stay as short as if the key
// had never been inserted.
func (t *table[V]) remove(key uint64) bool {
	if key == 0 {
		if !t.hasZero {
			return false
		}
		var zero V
		t.hasZero, t.zeroVal = false, zero
		return true
	}
	i := t.home(key)
	for {
		s := &t.slots[i]
		if s.key == key {
			break
		}
		if s.key == 0 {
			return false
		}
		i = (i + 1) & t.mask
	}
	t.used--
	t.shift(i)
	return true
}

// shift refills the freed slot pos: walk the probe run that follows it and
// move back the first entry whose own probe path passes through pos (its
// home lies cyclically at or before pos), then repeat from the newly freed
// slot until a free slot ends the run.
func (t *table[V]) shift(pos uint64) {
	for {
		last := pos
		for {
			pos = (pos + 1) & t.mask
			k := t.slots[pos].key
			if k == 0 {
				t.slots[last] = slot[V]{}
				return
			}
			home := stats.Hash64(k) & t.mask
			// Movable iff last lies cyclically in [home, pos): the entry's
			// probe walk from home reaches last before pos.
			if last <= pos {
				if last >= home || home > pos {
					break
				}
			} else if last >= home && home > pos {
				break
			}
		}
		t.slots[last] = t.slots[pos]
	}
}

// foreach calls f for every entry until it returns false, reporting whether
// the iteration ran to completion.
func (t *table[V]) foreach(f func(key uint64, val V) bool) bool {
	if t.hasZero && !f(0, t.zeroVal) {
		return false
	}
	for i := range t.slots {
		if t.slots[i].key != 0 && !f(t.slots[i].key, t.slots[i].val) {
			return false
		}
	}
	return true
}

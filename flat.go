package dego

import (
	"math/bits"
	"runtime"

	"github.com/adjusted-objects/dego/internal/flatmap"
)

// This file wraps the flat representation family (internal/flatmap) for
// the planner: preallocated, no-pointer, array-of-structs open-addressing
// tables for integer-keyed Map and Set, plus the flat counter. A profile
// plans FLAT when its key type has an integer kind and it declares
// Capacity(n) — the family preallocates, so a declared capacity is its
// construction contract — and asks for nothing only the node-based
// representations honor (WithHash, Stripes, Buckets, Adaptive, WithProbe).
//
// The wrappers carry the key codec: any integer-kind key type, named
// types included, is reinterpreted losslessly to uint64 (intKeyCodec in
// hash.go) and mixed inside the tables. This is why a flat plan needs no
// WithHash even for named key types — the table's probe sequence is its
// own hashing, there is no caller-pluggable hash point.

// flatShards sizes the shard array of a commuting flat map: enough shards
// that concurrent writers rarely meet (4× CPUs, rounded up to a power of
// two), few enough that the per-shard padding stays negligible next to a
// preallocated table.
func flatShards() int {
	n := runtime.GOMAXPROCS(0) * 4
	if n < 8 {
		n = 8
	}
	return 1 << bits.Len(uint(n-1))
}

// FlatMap is the commuting-writers flat map (M2 over CWMR profiles, M1
// over unrestricted ones): padded per-shard open-addressing tables, key
// and value inline in the slot array, backward-shift deletion, zero
// steady-state allocation within the declared capacity. Writers must
// commute under a commuting declaration; unrestricted profiles get the
// same structure with the shard locks doing the serialization.
type FlatMap[K comparable, V any] struct {
	m   *flatmap.Sharded[V]
	enc func(K) uint64
	dec func(uint64) K
}

func newFlatMap[K comparable, V any](enc func(K) uint64, dec func(uint64) K, capacity int) *FlatMap[K, V] {
	return &FlatMap[K, V]{m: flatmap.NewSharded[V](flatShards(), capacity), enc: enc, dec: dec}
}

// Put stores key → val (the handle is identity only; flat shards route by
// key).
func (m *FlatMap[K, V]) Put(_ *Handle, key K, val V) { m.m.Put(m.enc(key), val) }

// Get returns the value for key.
func (m *FlatMap[K, V]) Get(key K) (V, bool) { return m.m.Get(m.enc(key)) }

// Remove deletes key, reporting whether it was present.
func (m *FlatMap[K, V]) Remove(_ *Handle, key K) bool { return m.m.Remove(m.enc(key)) }

// Contains reports whether key is present.
func (m *FlatMap[K, V]) Contains(key K) bool { return m.m.Contains(m.enc(key)) }

// Len returns the entry count; weakly consistent across shards.
func (m *FlatMap[K, V]) Len() int { return m.m.Len() }

// Range iterates entries until f returns false; weakly consistent. f runs
// under a shard read lock and must not write the map.
func (m *FlatMap[K, V]) Range(f func(key K, val V) bool) {
	m.m.Range(func(k uint64, v V) bool { return f(m.dec(k), v) })
}

// FlatSWMRMap is the single-writer flat map (M2, SWMR): one open
// addressing table, the declared writer behind an uncontended write lock,
// readers probing the slot array under a shared read lock.
type FlatSWMRMap[K comparable, V any] struct {
	m   *flatmap.Map[V]
	enc func(K) uint64
	dec func(uint64) K
}

func newFlatSWMRMap[K comparable, V any](enc func(K) uint64, dec func(uint64) K,
	capacity int, checked bool) *FlatSWMRMap[K, V] {
	return &FlatSWMRMap[K, V]{m: flatmap.NewMap[V](capacity, checked), enc: enc, dec: dec}
}

// Put stores key → val. Declared-single-writer only.
func (m *FlatSWMRMap[K, V]) Put(h *Handle, key K, val V) { m.m.Put(h, m.enc(key), val) }

// Get returns the value for key. Any thread.
func (m *FlatSWMRMap[K, V]) Get(key K) (V, bool) { return m.m.Get(m.enc(key)) }

// Remove deletes key, reporting whether it was present. Declared-single-
// writer only.
func (m *FlatSWMRMap[K, V]) Remove(h *Handle, key K) bool { return m.m.Remove(h, m.enc(key)) }

// Contains reports whether key is present. Any thread.
func (m *FlatSWMRMap[K, V]) Contains(key K) bool { return m.m.Contains(m.enc(key)) }

// Len returns the entry count.
func (m *FlatSWMRMap[K, V]) Len() int { return m.m.Len() }

// Range iterates entries until f returns false. f runs under the read
// lock and must not write the map.
func (m *FlatSWMRMap[K, V]) Range(f func(key K, val V) bool) {
	m.m.Range(func(k uint64, v V) bool { return f(m.dec(k), v) })
}

// FlatSet is the commuting-writers flat set (S3 over CWMR profiles, S1
// over unrestricted ones): FlatMap's layout with zero-byte values, one
// key word per slot.
type FlatSet[K comparable] struct {
	s   *flatmap.Set
	enc func(K) uint64
	dec func(uint64) K
}

func newFlatSet[K comparable](enc func(K) uint64, dec func(uint64) K, capacity int) *FlatSet[K] {
	return &FlatSet[K]{s: flatmap.NewSet(flatShards(), capacity), enc: enc, dec: dec}
}

// Add inserts x.
func (s *FlatSet[K]) Add(_ *Handle, x K) { s.s.Add(s.enc(x)) }

// Remove deletes x, reporting whether it was present.
func (s *FlatSet[K]) Remove(_ *Handle, x K) bool { return s.s.Remove(s.enc(x)) }

// Contains reports membership.
func (s *FlatSet[K]) Contains(x K) bool { return s.s.Contains(s.enc(x)) }

// Len returns the element count; weakly consistent across shards.
func (s *FlatSet[K]) Len() int { return s.s.Len() }

// Range iterates elements until f returns false; weakly consistent. f
// runs under a shard read lock and must not write the set.
func (s *FlatSet[K]) Range(f func(x K) bool) {
	s.s.Range(func(k uint64) bool { return f(s.dec(k)) })
}

// FlatSWMRSet is the single-writer flat set (S2, SWMR).
type FlatSWMRSet[K comparable] struct {
	m   *flatmap.Map[struct{}]
	enc func(K) uint64
	dec func(uint64) K
}

func newFlatSWMRSet[K comparable](enc func(K) uint64, dec func(uint64) K,
	capacity int, checked bool) *FlatSWMRSet[K] {
	return &FlatSWMRSet[K]{m: flatmap.NewMap[struct{}](capacity, checked), enc: enc, dec: dec}
}

// Add inserts x. Declared-single-writer only.
func (s *FlatSWMRSet[K]) Add(h *Handle, x K) { s.m.Put(h, s.enc(x), struct{}{}) }

// Remove deletes x, reporting whether it was present. Declared-single-
// writer only.
func (s *FlatSWMRSet[K]) Remove(h *Handle, x K) bool { return s.m.Remove(h, s.enc(x)) }

// Contains reports membership. Any thread.
func (s *FlatSWMRSet[K]) Contains(x K) bool { return s.m.Contains(s.enc(x)) }

// Len returns the element count.
func (s *FlatSWMRSet[K]) Len() int { return s.m.Len() }

// Range iterates elements until f returns false. f runs under the read
// lock and must not write the set.
func (s *FlatSWMRSet[K]) Range(f func(x K) bool) {
	s.m.Range(func(k uint64, _ struct{}) bool { return f(s.dec(k)) })
}

// FlatCounter is the flat counter (C3): preallocated cache-line-padded
// atomic cells, a thread's increment one wait-free atomic add on its own
// line — no CAS retry (the Adder's loop exists to observe contention; a
// flat profile declared none worth observing) and no allocation, ever.
type FlatCounter = flatmap.Counter

// flatCounterRep adapts the flat counter to the planner's counter view
// (reads sum every cell, any thread).
type flatCounterRep struct{ c *flatmap.Counter }

func (r flatCounterRep) Inc(h *Handle)              { r.c.Inc(h) }
func (r flatCounterRep) Add(h *Handle, delta int64) { r.c.Add(h, delta) }
func (r flatCounterRep) Get(*Handle) int64          { return r.c.Sum() }
func (r flatCounterRep) unwrap() any                { return r.c }

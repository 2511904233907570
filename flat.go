package dego

import (
	"github.com/adjusted-objects/dego/internal/flatmap"
)

// This file wraps the flat representation family (internal/flatmap) for
// the planner: preallocated, no-pointer, array-of-structs open-addressing
// tables for integer-keyed Map and Set (a flat set is the flat map over
// empty values, one key word per slot), plus the flat counter. A profile
// plans FLAT when its key type has an integer kind and it declares
// Capacity(n) — the family preallocates, so a declared capacity is its
// construction contract — and asks for nothing only the node-based
// representations honor (WithHash, Stripes, Buckets, Adaptive, WithProbe).
//
// The wrappers carry the key codec: any integer-kind key type, named
// types included, is reinterpreted losslessly to uint64 (intKeyCodec in
// hash.go) and mixed inside the tables. This is why a flat plan needs no
// WithHash even for named key types — the table's probe sequence is its
// own hashing, there is no caller-pluggable hash point. Range runs f under
// a table read lock, so f must not call the object.

// flatMap is the commuting-writers flat map (M2 over CWMR profiles, M1
// over unrestricted ones): padded per-shard open-addressing tables, key
// and value inline in the slot array, backward-shift deletion, zero
// steady-state allocation within the declared capacity. Writers must
// commute under a commuting declaration; unrestricted profiles get the
// same structure with the shard locks doing the serialization. The handle
// is identity only: shards route by key.
type flatMap[K comparable, V any] struct {
	m   *flatmap.Sharded[V]
	enc func(K) uint64
	dec func(uint64) K
}

func newFlatMap[K comparable, V any](enc func(K) uint64, dec func(uint64) K, capacity int) *flatMap[K, V] {
	return &flatMap[K, V]{m: flatmap.NewSharded[V](flatmap.DefaultShards(), capacity), enc: enc, dec: dec}
}

func (m *flatMap[K, V]) Put(_ *Handle, key K, val V)  { m.m.Put(m.enc(key), val) }
func (m *flatMap[K, V]) Get(key K) (V, bool)          { return m.m.Get(m.enc(key)) }
func (m *flatMap[K, V]) Remove(_ *Handle, key K) bool { return m.m.Remove(m.enc(key)) }
func (m *flatMap[K, V]) Contains(key K) bool          { return m.m.Contains(m.enc(key)) }
func (m *flatMap[K, V]) Len() int                     { return m.m.Len() }
func (m *flatMap[K, V]) Range(f func(key K, val V) bool) {
	m.m.Range(func(k uint64, v V) bool { return f(m.dec(k), v) })
}

// flatSWMRMap is the single-writer flat map (M2, SWMR): one open
// addressing table, the declared writer behind an uncontended write lock,
// readers probing the slot array under a shared read lock.
type flatSWMRMap[K comparable, V any] struct {
	m   *flatmap.Map[V]
	enc func(K) uint64
	dec func(uint64) K
}

func newFlatSWMRMap[K comparable, V any](enc func(K) uint64, dec func(uint64) K,
	capacity int, checked bool) *flatSWMRMap[K, V] {
	return &flatSWMRMap[K, V]{m: flatmap.NewMap[V](capacity, checked), enc: enc, dec: dec}
}

func (m *flatSWMRMap[K, V]) Put(h *Handle, key K, val V)  { m.m.Put(h, m.enc(key), val) }
func (m *flatSWMRMap[K, V]) Get(key K) (V, bool)          { return m.m.Get(m.enc(key)) }
func (m *flatSWMRMap[K, V]) Remove(h *Handle, key K) bool { return m.m.Remove(h, m.enc(key)) }
func (m *flatSWMRMap[K, V]) Contains(key K) bool          { return m.m.Contains(m.enc(key)) }
func (m *flatSWMRMap[K, V]) Len() int                     { return m.m.Len() }
func (m *flatSWMRMap[K, V]) Range(f func(key K, val V) bool) {
	m.m.Range(func(k uint64, v V) bool { return f(m.dec(k), v) })
}

// flatCounterRep adapts the flat counter (C3): preallocated cache-line-
// padded atomic cells, a thread's increment one wait-free atomic add on
// its own line — no CAS retry (the Adder's loop exists to observe
// contention; a flat profile declared none worth observing) and no
// allocation, ever. Reads sum every cell, any thread.
type flatCounterRep struct{ c *flatmap.Counter }

func (r flatCounterRep) Inc(h *Handle)              { r.c.Inc(h) }
func (r flatCounterRep) Add(h *Handle, delta int64) { r.c.Add(h, delta) }
func (r flatCounterRep) Get(*Handle) int64          { return r.c.Sum() }

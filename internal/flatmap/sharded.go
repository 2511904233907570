package flatmap

import (
	"math/bits"
	"runtime"
	"sync"

	"github.com/adjusted-objects/dego/internal/core"
	"github.com/adjusted-objects/dego/internal/stats"
)

// Sharded is the commuting-writers flat map (the family's CWMR point): a
// power-of-two array of padded per-shard tables, a key routed to its shard
// by the top bits of its mixed hash. Distinct keys (by declaration the
// writers') land on distinct shards with high probability, so writer
// locks are mostly uncontended; readers take per-shard read locks and are
// unrestricted. The API is handle-free, matching the adaptive engine's
// cheap-representation contract, so Sharded can also serve as the
// quiescent rep of an adaptive pair.
type Sharded[V any] struct {
	shards []flatShard[V]
	shift  uint // 64 - log2(len(shards)); routes a mixed hash to a shard
}

// flatShard starts with a cache-line pad so neighboring shards' lock words
// never share a line — the false-sharing trap that would re-introduce the
// very cache traffic the flat layout removes.
type flatShard[V any] struct {
	_  core.Pad
	mu sync.RWMutex
	t  table[V]
}

// DefaultShards sizes the shard array of a commuting flat map or set:
// enough shards that concurrent writers rarely meet (4× CPUs, rounded up
// to a power of two), few enough that the per-shard padding stays
// negligible next to a preallocated table.
func DefaultShards() int {
	n := runtime.GOMAXPROCS(0) * 4
	if n < 8 {
		n = 8
	}
	return 1 << bits.Len(uint(n-1))
}

// NewSharded creates a flat map with the given shard count (rounded up to
// a power of two) preallocated for capacity entries split evenly across
// the shards.
func NewSharded[V any](shards, capacity int) *Sharded[V] {
	n := 1
	if shards > 1 {
		n = 1 << bits.Len(uint(shards-1))
	}
	s := &Sharded[V]{
		shards: make([]flatShard[V], n),
		shift:  uint(64 - bits.TrailingZeros(uint(n))),
	}
	per := (capacity + n - 1) / n
	for i := range s.shards {
		s.shards[i].t.init(per)
	}
	return s
}

// shard routes key to its shard: top hash bits, independent of the low
// bits the shard's table probes with. A single-shard map shifts by 64,
// which Go defines as 0. Key 0 (the in-table sentinel) routes like any
// other key; its owning shard's table stores it out of band.
func (s *Sharded[V]) shard(key uint64) *flatShard[V] {
	return &s.shards[stats.Hash64(key)>>s.shift]
}

// Put inserts or updates key. Writers must commute: distinct threads write
// distinct keys.
func (s *Sharded[V]) Put(key uint64, val V) {
	sh := s.shard(key)
	sh.mu.Lock()
	sh.t.put(key, val)
	sh.mu.Unlock()
}

// Get returns the value for key. Any thread.
func (s *Sharded[V]) Get(key uint64) (V, bool) {
	sh := s.shard(key)
	sh.mu.RLock()
	v, ok := sh.t.get(key)
	sh.mu.RUnlock()
	return v, ok
}

// Contains reports whether key is present. Any thread.
func (s *Sharded[V]) Contains(key uint64) bool {
	sh := s.shard(key)
	sh.mu.RLock()
	ok := sh.t.contains(key)
	sh.mu.RUnlock()
	return ok
}

// Remove deletes key, reporting whether it was present.
func (s *Sharded[V]) Remove(key uint64) bool {
	sh := s.shard(key)
	sh.mu.Lock()
	ok := sh.t.remove(key)
	sh.mu.Unlock()
	return ok
}

// Len returns the entry count; weakly consistent across shards.
func (s *Sharded[V]) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += sh.t.len()
		sh.mu.RUnlock()
	}
	return n
}

// Range calls f for every entry until it returns false; weakly consistent
// across shards. f runs under a shard read lock and must not write the
// map.
func (s *Sharded[V]) Range(f func(key uint64, val V) bool) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		done := !sh.t.foreach(f)
		sh.mu.RUnlock()
		if done {
			return
		}
	}
}

// Package set provides the set objects used by the Retwis application
// (§6.3): the community interest group and per-user follower sets.
//
//   - SWMR — single-writer multi-reader hash set.
//   - Segmented — the adjusted object (S3-style blind writes, CWMR), built
//     on the segmented hash map.
//   - Striped — the lock-striped baseline (the ConcurrentSkipListSet stand-in
//     for membership workloads; ordered iteration is provided by
//     skiplist.Concurrent when needed).
package set

import (
	"sync"

	"github.com/adjusted-objects/dego/internal/contention"
	"github.com/adjusted-objects/dego/internal/core"
	"github.com/adjusted-objects/dego/internal/hashmap"
)

// SWMR is a single-writer multi-reader set.
type SWMR[K comparable] struct {
	m *hashmap.SWMR[K, struct{}]
}

// NewSWMR creates a set with the given capacity hint.
func NewSWMR[K comparable](capacity int, hash func(K) uint64, checked bool) *SWMR[K] {
	return &SWMR[K]{m: hashmap.NewSWMR[K, struct{}](capacity, hash, checked)}
}

// Add inserts x (single writer only). Blind, per S2/S3.
func (s *SWMR[K]) Add(h *core.Handle, x K) { s.m.Put(h, x, struct{}{}) }

// Remove deletes x (single writer only), reporting whether it was present.
func (s *SWMR[K]) Remove(h *core.Handle, x K) bool { return s.m.Remove(h, x) }

// Contains reports whether x is present. Any thread may call it.
func (s *SWMR[K]) Contains(x K) bool { return s.m.Contains(x) }

// Len returns the number of elements.
func (s *SWMR[K]) Len() int { return s.m.Len() }

// Range calls f for every element until it returns false.
func (s *SWMR[K]) Range(f func(x K) bool) {
	s.m.Range(func(k K, _ struct{}) bool { return f(k) })
}

// ---------------------------------------------------------------------------

// Segmented is the adjusted set (S3, CWMR): blind adds, removals and
// membership tests over the segmented hash map (hashmap.Segmented), each
// element bound to the thread that first added it.
type Segmented[K comparable] struct {
	m *hashmap.Segmented[K, struct{}]
}

// NewSegmented creates a segmented set over a registry.
func NewSegmented[K comparable](r *core.Registry, capacity, dirBuckets int,
	hash func(K) uint64, checked bool) *Segmented[K] {
	return &Segmented[K]{m: hashmap.NewSegmented[K, struct{}](r, capacity, dirBuckets, hash, checked)}
}

// Add inserts x, binding it to the caller if it was never added before.
func (s *Segmented[K]) Add(h *core.Handle, x K) { s.m.Put(h, x, struct{}{}) }

// Remove deletes x, reporting whether it was present.
func (s *Segmented[K]) Remove(h *core.Handle, x K) bool { return s.m.Remove(h, x) }

// Contains reports whether x is present.
func (s *Segmented[K]) Contains(x K) bool { return s.m.Contains(x) }

// Len returns the number of elements.
func (s *Segmented[K]) Len() int { return s.m.Len() }

// Range calls f for every element until it returns false.
func (s *Segmented[K]) Range(f func(x K) bool) {
	s.m.Range(func(k K, _ struct{}) bool { return f(k) })
}

// ---------------------------------------------------------------------------

// Striped is the lock-striped baseline set.
type Striped[K comparable] struct {
	m *hashmap.Striped[K, struct{}]
}

// NewStriped creates a striped set; probe may be nil.
func NewStriped[K comparable](stripes, capacity int, hash func(K) uint64,
	probe *contention.Probe) *Striped[K] {
	return &Striped[K]{m: hashmap.NewStriped[K, struct{}](stripes, capacity, hash, probe)}
}

// Add inserts x.
func (s *Striped[K]) Add(x K) { s.m.Put(x, struct{}{}) }

// Remove deletes x, reporting whether it was present.
func (s *Striped[K]) Remove(x K) bool { return s.m.Remove(x) }

// Contains reports whether x is present.
func (s *Striped[K]) Contains(x K) bool { return s.m.Contains(x) }

// Len returns the number of elements.
func (s *Striped[K]) Len() int { return s.m.Len() }

// Range calls f for every element until it returns false.
func (s *Striped[K]) Range(f func(x K) bool) {
	s.m.Range(func(k K, _ struct{}) bool { return f(k) })
}

// ---------------------------------------------------------------------------

// Locked is a compact mutex-protected set for small, per-entity collections
// (e.g. one user's followers): one lock, one map, no cache-line padding.
// Padding per-entity sets would multiply allocation volume for objects that
// are rarely contended individually — exactly the write-amplification trap
// §6.3 warns about. For the same reason the map is made by the first Add:
// many entities never get an element.
type Locked[K comparable] struct {
	mu    sync.Mutex
	m     map[K]struct{}
	probe *contention.Probe
}

// NewLocked creates a locked set; probe may be nil.
func NewLocked[K comparable](probe *contention.Probe) *Locked[K] {
	return &Locked[K]{probe: probe}
}

func (s *Locked[K]) lock() {
	if !s.mu.TryLock() {
		s.probe.RecordLockWait()
		s.mu.Lock()
	}
}

// Add inserts x.
func (s *Locked[K]) Add(x K) {
	s.lock()
	if s.m == nil {
		s.m = make(map[K]struct{})
	}
	s.m[x] = struct{}{}
	s.mu.Unlock()
}

// Remove deletes x, reporting whether it was present.
func (s *Locked[K]) Remove(x K) bool {
	s.lock()
	_, ok := s.m[x]
	delete(s.m, x)
	s.mu.Unlock()
	return ok
}

// Contains reports whether x is present.
func (s *Locked[K]) Contains(x K) bool {
	s.lock()
	_, ok := s.m[x]
	s.mu.Unlock()
	return ok
}

// Len returns the number of elements.
func (s *Locked[K]) Len() int {
	s.lock()
	n := len(s.m)
	s.mu.Unlock()
	return n
}

// Range calls f for every element until it returns false, holding the lock.
func (s *Locked[K]) Range(f func(x K) bool) {
	s.lock()
	defer s.mu.Unlock()
	for x := range s.m {
		if !f(x) {
			return
		}
	}
}

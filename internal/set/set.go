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
	"maps"
	"slices"
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

// NewSegmented creates a segmented set over a registry. dirBuckets sizes the
// map's directory, which never grows.
func NewSegmented[K comparable](r *core.Registry, dirBuckets int,
	hash func(K) uint64, checked bool) *Segmented[K] {
	return &Segmented[K]{m: hashmap.NewSegmented[K, struct{}](r, 0, dirBuckets, hash, checked)}
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
// (e.g. one user's followers): one lock, no cache-line padding, and a body
// made at the first Add, since many entities never get an element. Padding
// per-entity sets would multiply allocation volume for objects that are
// rarely contended individually — exactly the write-amplification trap §6.3
// warns about. Most such sets stay small, so the body keeps up to smallMax
// elements in a slice and moves them to a map only past that: a set of one
// element costs a slice of one, not a map, while a set of thousands keeps
// O(1) membership.
type Locked[K comparable] struct {
	mu sync.Mutex
	b  *lockedBody[K]
}

// smallMax is the most elements a Locked set keeps in its slice. Past it the
// elements move to a map, and back once removals bring them down to half,
// so a set at the boundary does not convert on every call.
const smallMax = 8

// lockedBody holds a Locked set's elements in exactly one of its fields.
type lockedBody[K comparable] struct {
	small []K            // the elements while big is nil
	big   map[K]struct{} // the elements from past smallMax down to half of it
}

// NewLocked creates an empty locked set.
func NewLocked[K comparable]() *Locked[K] { return new(Locked[K]) }

// Add inserts x.
func (s *Locked[K]) Add(x K) {
	s.mu.Lock()
	if s.b == nil {
		s.b = new(lockedBody[K])
	}
	b := s.b
	switch {
	case b.big != nil:
		b.big[x] = struct{}{}
	case slices.Contains(b.small, x): // already present
	case len(b.small) < smallMax:
		b.small = append(b.small, x)
	default:
		b.big = make(map[K]struct{}, 2*smallMax)
		for _, y := range b.small {
			b.big[y] = struct{}{}
		}
		b.big[x] = struct{}{}
		b.small = nil
	}
	s.mu.Unlock()
}

// Remove deletes x, reporting whether it was present.
func (s *Locked[K]) Remove(x K) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.b
	if b == nil {
		return false
	}
	if b.big == nil {
		i := slices.Index(b.small, x)
		if i < 0 {
			return false
		}
		b.small = slices.Delete(b.small, i, i+1)
		return true
	}
	if _, ok := b.big[x]; !ok {
		return false
	}
	delete(b.big, x)
	if len(b.big) <= smallMax/2 {
		b.small = slices.AppendSeq(make([]K, 0, smallMax), maps.Keys(b.big))
		b.big = nil
	}
	return true
}

// Contains reports whether x is present.
func (s *Locked[K]) Contains(x K) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.b
	if b == nil {
		return false
	}
	if b.big != nil {
		_, ok := b.big[x]
		return ok
	}
	return slices.Contains(b.small, x)
}

// Len returns the number of elements.
func (s *Locked[K]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.b == nil {
		return 0
	}
	return len(s.b.small) + len(s.b.big)
}

// Range calls f for every element until it returns false, holding the lock.
func (s *Locked[K]) Range(f func(x K) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.b == nil {
		return
	}
	for _, x := range s.b.small {
		if !f(x) {
			return
		}
	}
	for x := range s.b.big {
		if !f(x) {
			return
		}
	}
}

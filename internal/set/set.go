// Package set provides Locked, the compact per-entity set the Retwis
// application (§6.3) keeps per user for its followers and followees. The shared
// hash sets — the community interest group among them — are the planner's
// Set rows (package dego), each the hash map of the same name over empty
// values.
package set

import (
	"maps"
	"slices"
	"sync"
)

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

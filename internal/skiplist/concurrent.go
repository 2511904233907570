package skiplist

import (
	"cmp"
	"sync/atomic"

	"github.com/adjusted-objects/dego/internal/contention"
)

// Concurrent is the java.util.concurrent.ConcurrentSkipListMap stand-in: the
// lock-free skip list of Herlihy & Shavit (chapter 14), with every link
// manipulated by CAS. Logical deletion marks a node's successor boxes;
// physical unlinking happens inside find. Mark bits live in immutable succ
// boxes (Go's substitute for AtomicMarkableReference).
type Concurrent[K cmp.Ordered, V any] struct {
	head  *cnode[K, V]
	size  atomic.Int64
	rndS  atomic.Uint64
	probe *contention.Probe
}

type csucc[K cmp.Ordered, V any] struct {
	n      *cnode[K, V]
	marked bool
}

type cnode[K cmp.Ordered, V any] struct {
	key      K
	val      atomic.Pointer[V]
	next     []atomic.Pointer[csucc[K, V]]
	topLevel int // index of the highest valid level
}

func newCNode[K cmp.Ordered, V any](key K, height int) *cnode[K, V] {
	n := &cnode[K, V]{key: key, next: make([]atomic.Pointer[csucc[K, V]], height), topLevel: height - 1}
	for i := range n.next {
		n.next[i].Store(&csucc[K, V]{})
	}
	return n
}

// NewConcurrent creates an empty map; probe may be nil.
func NewConcurrent[K cmp.Ordered, V any](probe *contention.Probe) *Concurrent[K, V] {
	c := &Concurrent[K, V]{head: newCNode[K, V](*new(K), maxLevel), probe: probe}
	c.rndS.Store(0x853c49e6748fea9b)
	return c
}

// find locates the window (preds, succs) for key at every level, physically
// removing marked nodes it passes. It returns the node with the key when
// present (unmarked) at the bottom level.
func (c *Concurrent[K, V]) find(key K, preds, succs []*cnode[K, V]) (*cnode[K, V], bool) {
retry:
	for {
		pred := c.head
		for level := maxLevel - 1; level >= 0; level-- {
			predBox := pred.next[level].Load()
			curr := predBox.n
			for curr != nil {
				currBox := curr.next[level].Load()
				if currBox.marked {
					// Snip the marked node out of this level. The expected
					// box must itself be unmarked: pred may have been
					// logically deleted since we reached it, and replacing
					// its marked box with an unmarked one would resurrect
					// it (Herlihy–Shavit express this as the expected-mark
					// bit of the AtomicMarkableReference CAS).
					if predBox.marked ||
						!pred.next[level].CompareAndSwap(predBox, &csucc[K, V]{n: currBox.n}) {
						c.probe.RecordCASFailure()
						continue retry
					}
					predBox = pred.next[level].Load()
					curr = predBox.n
					continue
				}
				if curr.key < key {
					pred = curr
					predBox = currBox
					curr = currBox.n
					continue
				}
				break
			}
			preds[level] = pred
			succs[level] = curr
		}
		if n := succs[0]; n != nil && n.key == key {
			return n, true
		}
		return nil, false
	}
}

// Get returns the value for key. Wait-free: it never snips, only skips
// marked nodes.
func (c *Concurrent[K, V]) Get(key K) (V, bool) {
	var zero V
	pred := c.head
	var curr *cnode[K, V]
	for level := maxLevel - 1; level >= 0; level-- {
		curr = pred.next[level].Load().n
		for curr != nil {
			box := curr.next[level].Load()
			if box.marked {
				curr = box.n
				continue
			}
			if curr.key < key {
				pred = curr
				curr = box.n
				continue
			}
			break
		}
	}
	if curr != nil && curr.key == key && !curr.next[0].Load().marked {
		return *curr.val.Load(), true
	}
	return zero, false
}

// Contains reports whether key is present.
func (c *Concurrent[K, V]) Contains(key K) bool {
	_, ok := c.Get(key)
	return ok
}

// Put inserts or updates key.
func (c *Concurrent[K, V]) Put(key K, val V) {
	c.PutRef(key, &val)
}

// PutRef is Put with a caller-provided value box (no allocation for the
// in-place update of an existing key, mirroring Java's reference store).
// The box must not be mutated after the call.
func (c *Concurrent[K, V]) PutRef(key K, val *V) {
	var preds, succs [maxLevel]*cnode[K, V]
	height := c.randomHeight()
	for {
		if n, found := c.find(key, preds[:], succs[:]); found {
			// Existing key: update the value in place (as CSLM does). A
			// racing remove linearizes after this write.
			n.val.Store(val)
			return
		}
		n := newCNode[K, V](key, height)
		n.val.Store(val)
		for i := 0; i < height; i++ {
			n.next[i].Store(&csucc[K, V]{n: succs[i]})
		}
		// Linearization point: CAS the bottom link.
		predBox := preds[0].next[0].Load()
		if predBox.marked || predBox.n != succs[0] ||
			!preds[0].next[0].CompareAndSwap(predBox, &csucc[K, V]{n: n}) {
			c.probe.RecordCASFailure()
			continue
		}
		c.size.Add(1)
		// Link the upper levels; help-and-retry on interference.
		for level := 1; level < height; level++ {
			for {
				own := n.next[level].Load()
				if own.marked {
					return // concurrently removed: stop linking
				}
				if own.n != succs[level] {
					if !n.next[level].CompareAndSwap(own, &csucc[K, V]{n: succs[level]}) {
						continue
					}
				}
				pb := preds[level].next[level].Load()
				if !pb.marked && pb.n == succs[level] &&
					preds[level].next[level].CompareAndSwap(pb, &csucc[K, V]{n: n}) {
					break
				}
				c.probe.RecordCASFailure()
				if _, found := c.find(key, preds[:], succs[:]); !found {
					return // removed while linking
				}
			}
		}
		return
	}
}

// Remove deletes key, reporting whether this call removed it.
func (c *Concurrent[K, V]) Remove(key K) bool {
	var preds, succs [maxLevel]*cnode[K, V]
	n, found := c.find(key, preds[:], succs[:])
	if !found {
		return false
	}
	// Mark the upper levels top-down.
	for level := n.topLevel; level >= 1; level-- {
		box := n.next[level].Load()
		for !box.marked {
			n.next[level].CompareAndSwap(box, &csucc[K, V]{n: box.n, marked: true})
			box = n.next[level].Load()
		}
	}
	// The bottom-level mark decides who removed the node.
	for {
		box := n.next[0].Load()
		if box.marked {
			return false // another thread won
		}
		if n.next[0].CompareAndSwap(box, &csucc[K, V]{n: box.n, marked: true}) {
			c.size.Add(-1)
			c.find(key, preds[:], succs[:]) // physical cleanup
			return true
		}
		c.probe.RecordCASFailure()
	}
}

// Len returns the number of entries.
func (c *Concurrent[K, V]) Len() int { return int(c.size.Load()) }

// Range calls f in ascending key order until it returns false; weakly
// consistent, skipping logically deleted nodes.
func (c *Concurrent[K, V]) Range(f func(key K, val V) bool) {
	for n := c.head.next[0].Load().n; n != nil; {
		box := n.next[0].Load()
		if !box.marked {
			if !f(n.key, *n.val.Load()) {
				return
			}
		}
		n = box.n
	}
}

// RangeFrom is Range starting at the first key ≥ from. Like Get, the descent
// only skips marked nodes (never snips), so it is safe on a frozen list.
func (c *Concurrent[K, V]) RangeFrom(from K, f func(key K, val V) bool) {
	pred := c.head
	var curr *cnode[K, V]
	for level := maxLevel - 1; level >= 0; level-- {
		curr = pred.next[level].Load().n
		for curr != nil {
			box := curr.next[level].Load()
			if box.marked {
				curr = box.n
				continue
			}
			if curr.key < from {
				pred = curr
				curr = box.n
				continue
			}
			break
		}
	}
	for n := curr; n != nil; {
		box := n.next[0].Load()
		if !box.marked {
			if !f(n.key, *n.val.Load()) {
				return
			}
		}
		n = box.n
	}
}

func (c *Concurrent[K, V]) randomHeight() int {
	// Each call perturbs a shared seed with Add and draws from its own copy
	// (losing some randomness under races is harmless here).
	x := c.rndS.Add(0x9e3779b97f4a7c15)
	return nextHeight(&x)
}

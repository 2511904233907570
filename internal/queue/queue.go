// Package queue provides the queue objects of §5.3:
//
//   - MS — the ConcurrentLinkedQueue baseline: the Michael–Scott lock-free
//     queue, CAS on both ends.
//   - MPSC — the adjusted object (Q1, MWSR), the paper's QueueMASP:
//     multi-producer single-consumer. Offer is the Michael–Scott offer
//     (CAS on the tail); Poll is performed by the unique consumer, which
//     advances the head with a plain atomic store — no CAS retry loop.
//
// §1's other queue example, Apache Ignite's FastSizeDeque, is an adjustment
// by pairing rather than by a new representation: the deque keeps a striped
// adder (counter.Adder here) beside it so that sizing, O(n) on the JDK's
// ConcurrentLinkedDeque, never walks the list.
package queue

import (
	"sync/atomic"

	"github.com/adjusted-objects/dego/internal/contention"
	"github.com/adjusted-objects/dego/internal/core"
)

// node is one element. The link comes first: Go pads a struct whose last
// field has size zero, so a node of a zero-size element is two words, and
// the sentinel between a queue's head and tail (see MPSC) is never shorter.
type node[T any] struct {
	next atomic.Pointer[node[T]]
	val  T
}

// Gap is the extension of a bare queue (NewMS, NewMPSC): with the fields
// before it, it keeps the consumer's head and the producers' tail more
// than a cache line apart whatever the element type, so a hot queue's two
// ends never share a line.
type Gap [core.CacheLineSize - 24]byte

// retire unlinks a queue's embedded sentinel once both the head and the
// tail are past it. A heap node left behind is garbage, but the sentinel
// lives as long as its queue, and its link would keep every node ever
// enqueued reachable. It links to itself rather than to nil: a producer
// still holding it as a stale tail must see a successor and move on, not
// append to it.
func (n *node[T]) retire() { n.next.Store(n) }

// MS is the Michael–Scott queue (the JUC baseline). The zero value is not
// usable: create one with NewMS, or Init one in place.
//
// Ext extends the queue, as segment.Directory's X extends its nodes, and
// with the probe, a word of filler and the sentinel it is what lies between
// the head and the tail (see MPSC): NewMS fills it with a Gap, an owner
// allocating its own fields with the queue puts them there. The filler
// keeps a three-word Ext's tail a line past the head for an 8-byte element
// and costs nothing in Go's size classes: such a queue is 72 B, of a 16-byte
// element 80 B, in the 80 B class either way.
type MS[T, X any] struct {
	head     atomic.Pointer[node[T]]
	probe    *contention.Probe
	_        uintptr
	sentinel node[T]
	Ext      X
	tail     atomic.Pointer[node[T]]
}

// NewMS creates an empty queue; probe may be nil.
func NewMS[T any](probe *contention.Probe) *MS[T, Gap] {
	q := new(MS[T, Gap])
	q.Init(probe)
	return q
}

// Init makes q an empty queue in place, so an owner can embed the queue
// rather than point at it; probe may be nil. The queue starts on its
// embedded sentinel and must not be copied afterwards.
func (q *MS[T, X]) Init(probe *contention.Probe) {
	q.probe = probe
	q.head.Store(&q.sentinel)
	q.tail.Store(&q.sentinel)
}

// front returns the head and the node after it (nil when the queue is
// empty). A head that has just been retired may be the sentinel, which then
// links to itself (see retire): re-read it.
func (q *MS[T, X]) front() (head, next *node[T]) {
	for {
		head = q.head.Load()
		if next = head.next.Load(); next != head {
			return head, next
		}
	}
}

// Offer appends v to the tail.
func (q *MS[T, X]) Offer(v T) {
	n := &node[T]{val: v}
	for {
		tail := q.tail.Load()
		next := tail.next.Load()
		if next != nil {
			// Tail is lagging: help advance it.
			q.tail.CompareAndSwap(tail, next)
			continue
		}
		if tail.next.CompareAndSwap(nil, n) {
			q.tail.CompareAndSwap(tail, n)
			return
		}
		q.probe.RecordCASFailure()
	}
}

// Poll removes and returns the head, or false when the queue is empty.
func (q *MS[T, X]) Poll() (T, bool) {
	var zero T
	for {
		head, next := q.front()
		if next == nil {
			return zero, false
		}
		tail := q.tail.Load()
		if head == tail {
			// Tail lags behind a non-empty queue: help.
			q.tail.CompareAndSwap(tail, next)
		}
		if q.head.CompareAndSwap(head, next) {
			if head == &q.sentinel {
				// The tail is past it: helped above if it lagged.
				head.retire()
			}
			// The value is not zeroed: a concurrent Peek may still be
			// reading it (values are immutable after publication, so this
			// is race-free; Java's CLQ nulls the item with a CAS instead).
			return next.val, true
		}
		q.probe.RecordCASFailure()
	}
}

// Peek returns the head without removing it.
func (q *MS[T, X]) Peek() (T, bool) {
	var zero T
	_, next := q.front()
	if next == nil {
		return zero, false
	}
	return next.val, true
}

// IsEmpty reports whether the queue has no elements.
func (q *MS[T, X]) IsEmpty() bool {
	_, next := q.front()
	return next == nil
}

// Len counts the elements in O(n), like ConcurrentLinkedQueue.size.
func (q *MS[T, X]) Len() int {
	n := 0
	_, cur := q.front()
	for ; cur != nil; cur = cur.next.Load() {
		n++
	}
	return n
}

// ---------------------------------------------------------------------------

// MPSC is the adjusted queue (Q1, MWSR): any thread may Offer, exactly one
// thread Polls. The consumer's head advance is a plain store — the paper's
// "simpler mechanism to update the head when a single thread executes poll".
//
// The layout keeps the consumer's head and the producers' tail at least one
// cache line apart with what lies between them, not with a pad around each:
// the fields the consumer alone reads (the guard; the probe, which
// producers read only after a failed CAS), the sentinel (dead once the
// first element is polled) and Ext, the queue's extension. NewMPSC fills
// Ext with a Gap, so a bare queue of 8-byte elements is 88 B, as a hot
// queue needs. An owner that allocates its own fields with the queue puts
// them in Ext instead of beside it: dego.Queue's three-word facade there
// makes a planned queue of 8- or 16-byte elements 72 or 80 B, one
// allocation in the 80 B size class, with the tail still a line past the
// head. The facade is read on every call, and so shares a line with the
// head or the tail; a program holding one queue per user pays the 80 B per
// user, and a queue that one consumer polls while many producers offer is
// a bare one in Figure 6.
type MPSC[T, X any] struct {
	head     atomic.Pointer[node[T]]
	guard    *core.Guard
	probe    *contention.Probe
	sentinel node[T]
	Ext      X
	tail     atomic.Pointer[node[T]]
}

// NewMPSC creates an empty queue. probe may be nil; when checked is true an
// MWSR guard verifies the single-consumer role.
func NewMPSC[T any](probe *contention.Probe, checked bool) *MPSC[T, Gap] {
	q := new(MPSC[T, Gap])
	q.Init(probe, checked)
	return q
}

// Init makes q an empty queue in place, so an owner can embed the queue
// rather than point at it; see NewMPSC for the arguments. The queue starts
// on its embedded sentinel and must not be copied afterwards.
func (q *MPSC[T, X]) Init(probe *contention.Probe, checked bool) {
	q.probe = probe
	q.head.Store(&q.sentinel)
	q.tail.Store(&q.sentinel)
	if checked {
		q.guard = core.NewGuard(core.ModeMWSR)
	}
}

// Offer appends v to the tail (identical to the Michael–Scott offer, as in
// the JDK's ConcurrentLinkedQueue — §5.3). Any thread may offer, so there is
// no role to check: MWSR never restricts a write, and a producer reads the
// consumer's line only to record a failed CAS.
func (q *MPSC[T, X]) Offer(_ *core.Handle, v T) {
	n := &node[T]{val: v}
	for {
		tail := q.tail.Load()
		next := tail.next.Load()
		if next != nil {
			q.tail.CompareAndSwap(tail, next)
			continue
		}
		if tail.next.CompareAndSwap(nil, n) {
			q.tail.CompareAndSwap(tail, n)
			return
		}
		q.probe.RecordCASFailure()
	}
}

// Poll removes and returns the head, or false when the queue is empty. Only
// the single consumer may call it: the head advance needs no CAS because no
// other thread ever moves the head.
func (q *MPSC[T, X]) Poll(h *core.Handle) (T, bool) {
	q.guard.MustCheck(h, core.Read)
	return q.poll()
}

// poll is Poll once the caller's consumer role is checked.
func (q *MPSC[T, X]) poll() (T, bool) {
	var zero T
	head := q.head.Load()
	next := head.next.Load()
	if next == nil {
		return zero, false
	}
	v := next.val
	next.val = zero
	// Plain store: the consumer is the only head writer. Producers never
	// read the head, so no CAS and no retry loop.
	q.head.Store(next)
	if head == &q.sentinel {
		// The producer that linked next may not have moved the tail yet.
		q.tail.CompareAndSwap(head, next)
		head.retire()
	}
	return v, true
}

// Peek returns the head without removing it (consumer only).
func (q *MPSC[T, X]) Peek(h *core.Handle) (T, bool) {
	q.guard.MustCheck(h, core.Read)
	var zero T
	next := q.head.Load().next.Load()
	if next == nil {
		return zero, false
	}
	return next.val, true
}

// IsEmpty reports whether the queue has no elements (consumer only: the
// answer is only stable for the consumer).
func (q *MPSC[T, X]) IsEmpty(h *core.Handle) bool {
	q.guard.MustCheck(h, core.Read)
	return q.head.Load().next.Load() == nil
}

// Drain polls up to max elements into out (consumer only), returning the
// number drained. The role is checked once per call, not per element.
func (q *MPSC[T, X]) Drain(h *core.Handle, out []T, max int) int {
	q.guard.MustCheck(h, core.Read)
	n := 0
	for n < max && n < len(out) {
		v, ok := q.poll()
		if !ok {
			break
		}
		out[n] = v
		n++
	}
	return n
}

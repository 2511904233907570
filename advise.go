package dego

import (
	"cmp"

	"github.com/adjusted-objects/dego/internal/advisor"
	"github.com/adjusted-objects/dego/internal/usage"
)

// This file is the public face of the tuning advisor: WithUsageRecording
// (options.go) has the constructor wrap the planned representation in a
// recording decorator, which feeds a usage recorder every call before
// forwarding it, and Advise() on each Adjusted* wrapper runs the inference
// over that recorder — observed traffic back to the most adjusted declared
// profile the evidence permits, re-certified against Definition 1. The
// intended loop is the ROADMAP's profile-inference item: build the object
// *unadjusted* with recording, replay a representative workload, then read
// Advise() and move the recommended options into the declaration.

// Advice is one certified recommendation from the tuning advisor: the
// profile the recorded evidence permits (as claims and as ready-to-paste
// option expressions), the Table 1 object it plans to, whether the
// executable Definition 1 certifies it, and the evidence for — plus the
// counter-evidence that blocked stronger claims.
type Advice = advisor.Advice

// UsageTrace is the observation summary a usage recorder accumulates:
// per-method call counts, writer/reader thread cardinality, key-overlap
// and overwrite evidence. Advice.Trace carries the window an Advice was
// inferred from.
type UsageTrace = usage.Trace

// adviseObject runs the advisor over the recorder of a wrapper's recording
// decorator; ok is false when the object was constructed without
// WithUsageRecording, and so holds no decorator.
func adviseObject(plan *Plan, rep any) (Advice, bool) {
	r, ok := rep.(interface{ recorder() *usage.Recorder })
	if !ok {
		return Advice{}, false
	}
	return advisor.Advise(advisor.Current{
		Datatype: plan.Datatype,
		Variant:  plan.Variant,
		Mode:     plan.Mode.String(),
		Rep:      plan.Rep,
	}, r.recorder().Trace()), true
}

// usageKeyCells sizes a recorder's key-evidence table from the declared
// capacity: four cells per expected key keeps the open-addressing table
// far from saturation (which would block the advisor's key-dependent
// claims), with the package default as the floor.
func usageKeyCells(capacity int) int {
	if c := 4 * capacity; c > usage.DefaultKeyCells {
		return c
	}
	return usage.DefaultKeyCells
}

// recording is what a recording decorator holds: the representation it
// forwards to and the recorder it feeds first. Each decorator implements its
// datatype's planner view, one line a method: record the call, then forward
// it to what write or read returns.
type recording[R any] struct {
	rep R
	rec *usage.Recorder
}

// write records a write by h of the key hashing to key (usage.UnkeyedKey
// for an unkeyed datatype), and returns the representation.
func (r *recording[R]) write(m usage.Method, h *Handle, key uint64) R {
	r.rec.RecordWrite(m, usage.SlotOf(h), key)
	return r.rep
}

// read records a read by h, and returns the representation. A keyed read
// carries no handle; its nil h records in the anonymous slot.
func (r *recording[R]) read(m usage.Method, h *Handle) R {
	r.rec.RecordRead(m, usage.SlotOf(h))
	return r.rep
}

func (r *recording[R]) unwrap() any               { return r.rep }
func (r *recording[R]) recorder() *usage.Recorder { return r.rec }

type recordedCounter struct{ recording[counterRep] }

func (d *recordedCounter) Inc(h *Handle) { d.write(usage.MethodInc, h, usage.UnkeyedKey).Inc(h) }
func (d *recordedCounter) Add(h *Handle, n int64) {
	d.write(usage.MethodAdd, h, usage.UnkeyedKey).Add(h, n)
}
func (d *recordedCounter) Get(h *Handle) int64 { return d.read(usage.MethodGet, h).Get(h) }

// A keyed decorator also holds the hash it files written keys under.
// recordedMap serves Set too, so it holds the method it files Put under: a
// set's Add.
type recordedMap[K comparable, V any] struct {
	recording[mapRep[K, V]]
	hash func(K) uint64
	put  usage.Method
}

func (d *recordedMap[K, V]) Put(h *Handle, k K, v V) { d.write(d.put, h, d.hash(k)).Put(h, k, v) }
func (d *recordedMap[K, V]) Get(k K) (V, bool)       { return d.read(usage.MethodGet, nil).Get(k) }
func (d *recordedMap[K, V]) Remove(h *Handle, k K) bool {
	return d.write(usage.MethodRemove, h, d.hash(k)).Remove(h, k)
}
func (d *recordedMap[K, V]) Contains(k K) bool       { return d.read(usage.MethodContains, nil).Contains(k) }
func (d *recordedMap[K, V]) Len() int                { return d.read(usage.MethodLen, nil).Len() }
func (d *recordedMap[K, V]) Range(f func(K, V) bool) { d.read(usage.MethodRange, nil).Range(f) }

type recordedOrdered[K cmp.Ordered, V any] struct {
	recording[orderedRep[K, V]]
	hash func(K) uint64
}

func (d *recordedOrdered[K, V]) Put(h *Handle, k K, v V) {
	d.write(usage.MethodPut, h, d.hash(k)).Put(h, k, v)
}
func (d *recordedOrdered[K, V]) Get(k K) (V, bool) { return d.read(usage.MethodGet, nil).Get(k) }
func (d *recordedOrdered[K, V]) Remove(h *Handle, k K) bool {
	return d.write(usage.MethodRemove, h, d.hash(k)).Remove(h, k)
}
func (d *recordedOrdered[K, V]) Contains(k K) bool {
	return d.read(usage.MethodContains, nil).Contains(k)
}
func (d *recordedOrdered[K, V]) Len() int                { return d.read(usage.MethodLen, nil).Len() }
func (d *recordedOrdered[K, V]) Range(f func(K, V) bool) { d.read(usage.MethodRange, nil).Range(f) }
func (d *recordedOrdered[K, V]) RangeFrom(from K, f func(K, V) bool) {
	d.read(usage.MethodRangeFrom, nil).RangeFrom(from, f)
}

// RangeBetween counts as a RangeFrom: the advisor's evidence does not tell
// the two apart.
func (d *recordedOrdered[K, V]) RangeBetween(from, to K, f func(K, V) bool) {
	d.read(usage.MethodRangeFrom, nil).RangeBetween(from, to, f)
}

type recordedQueue[T any] struct{ recording[queueRep[T]] }

func (d *recordedQueue[T]) Offer(h *Handle, v T) {
	d.write(usage.MethodOffer, h, usage.UnkeyedKey).Offer(h, v)
}
func (d *recordedQueue[T]) Poll(h *Handle) (T, bool) { return d.read(usage.MethodPoll, h).Poll(h) }
func (d *recordedQueue[T]) Peek(h *Handle) (T, bool) { return d.read(usage.MethodPeek, h).Peek(h) }
func (d *recordedQueue[T]) IsEmpty(h *Handle) bool   { return d.read(usage.MethodIsEmpty, h).IsEmpty(h) }
func (d *recordedQueue[T]) Drain(h *Handle, out []T, max int) int {
	return d.read(usage.MethodDrain, h).Drain(h, out, max)
}

type recordedRef[T any] struct{ recording[refRep[T]] }

func (d *recordedRef[T]) Get(h *Handle) *T { return d.read(usage.MethodGet, h).Get(h) }
func (d *recordedRef[T]) Set(h *Handle, v *T) error {
	return d.write(usage.MethodSet, h, usage.UnkeyedKey).Set(h, v)
}
func (d *recordedRef[T]) Update(h *Handle, f func(*T) *T) error {
	return d.write(usage.MethodUpdate, h, usage.UnkeyedKey).Update(h, f)
}

package dego

import (
	"cmp"
	"runtime"

	"github.com/adjusted-objects/dego/internal/adaptive"
	"github.com/adjusted-objects/dego/internal/counter"
	"github.com/adjusted-objects/dego/internal/flatmap"
	"github.com/adjusted-objects/dego/internal/hashmap"
	"github.com/adjusted-objects/dego/internal/queue"
	"github.com/adjusted-objects/dego/internal/ref"
	"github.com/adjusted-objects/dego/internal/skiplist"
	"github.com/adjusted-objects/dego/internal/usage"
)

// This file holds the profile constructors: Counter, Map, Set, Ordered,
// Queue and Ref take a declared usage profile (functional options) and plan
// the representation, instead of making the caller name one of the ~25
// representation-specific constructors. Planning is data: each datatype
// has a row table of its representations, most adjusted first, and one
// declare step (profile.go) rejects inapplicable options, resolves the §4.2
// mode, names and certifies the declared Table 1 object against the
// executable Definition 1 (internal/spec), and picks the first row the
// profile fits. A constructor only builds the row it was given and returns
// an Adjusted* wrapper exposing the narrowed interface and the Plan that
// was made, whose Rep names the representation; an adaptive map also
// exposes its adaptive object (Adaptive). A set is its map: Map and Set
// build through one builder (planMap), and a set's rows are the map's over
// empty values. Code that must time a
// representation itself, as the figures do, builds it from its internal
// package.
//
// A wrapper holds what a program may keep one of per user: a pointer to
// the interned Plan and the representation behind its planner view.
// Observation is never an input to the plan: representations that take a
// contention probe are built without one, and only the adaptive map keeps
// its own (Adaptive().Probe()). WithUsageRecording wraps the representation
// in a recording decorator (advise.go), so every data method is one
// forwarding call and an unrecorded object holds no recorder.

// A decorator wraps a planner view (the recording decorator of advise.go
// is the one); unwrap returns the view it wraps.
type decorator interface{ unwrap() any }

// unwrap returns the planner view behind a decorator, or rep itself.
func unwrap(rep any) any {
	if d, ok := rep.(decorator); ok {
		return d.unwrap()
	}
	return rep
}

// ---------------------------------------------------------------------------
// Counter

// counterRep is the planner's view of a counter representation.
type counterRep interface {
	Inc(h *Handle)
	Add(h *Handle, delta int64)
	Get(h *Handle) int64
}

// atomicCounterRep adapts the handle-free atomic baseline.
type atomicCounterRep struct{ a *counter.Atomic }

func (r atomicCounterRep) Inc(*Handle)                { r.a.IncrementAndGet() }
func (r atomicCounterRep) Add(_ *Handle, delta int64) { r.a.AddAndGet(delta) }
func (r atomicCounterRep) Get(*Handle) int64          { return r.a.Get() }

// adderCounterRep adapts the striped adder (reads sum every cell, any
// thread).
type adderCounterRep struct{ a *counter.Adder }

func (r adderCounterRep) Inc(h *Handle)              { r.a.Inc(h) }
func (r adderCounterRep) Add(h *Handle, delta int64) { r.a.Add(h, delta) }
func (r adderCounterRep) Get(*Handle) int64          { return r.a.Sum() }

// AdjustedCounter is a counter built from a declared profile. Its interface
// is the narrowed one every dego counter representation shares — blind
// increments, a read — so the planner may substitute any representation the
// declaration permits.
type AdjustedCounter struct {
	plan *Plan
	rep  counterRep
}

// Inc adds one.
func (c *AdjustedCounter) Inc(h *Handle) { c.rep.Inc(h) }

// Add adds delta (non-negative: dego counters are increment-only).
func (c *AdjustedCounter) Add(h *Handle, delta int64) { c.rep.Add(h, delta) }

// Get returns the current count. Under a SingleReader declaration only the
// declared reader may call it.
func (c *AdjustedCounter) Get(h *Handle) int64 { return c.rep.Get(h) }

// Plan returns the planner's decision for this object.
func (c *AdjustedCounter) Plan() Plan { return *c.plan }

// Advise infers the most adjusted counter profile the recorded usage
// permits, certified against Definition 1. ok is false when the object
// was constructed without WithUsageRecording.
func (c *AdjustedCounter) Advise() (Advice, bool) { return adviseObject(c.plan, c.rep) }

// counterRows are the counter representations, most adjusted first.
var counterRows = []repRow{
	{name: "IncrementOnlyCounter", modes: inCWSR, needs: needBlind, guarded: true},
	// Preallocated padded cells with a wait-free add, no CAS retry loop.
	// Only a commuting declaration plans them; whether they should also
	// serve the unrestricted blind counter is for a measured comparison
	// against the Adder to decide, not this table.
	{name: "FlatCounter", modes: inCWMR, needs: needBlind | needCells},
	// A blind single writer keeps the atomic cell: it is uncontended.
	{name: "Adder", modes: inALL | inCWMR, needs: needBlind},
	{name: "AtomicCounter", modes: anyMode},
}

// counterType is Counter's planning data. Counter writes (inc, add)
// commute by the datatype.
var counterType = datatype{name: "Counter", takes: counterTakes, rows: counterRows, commutes: true}

// Counter builds a counter from a declared usage profile.
//
// Planning: without Blind the increment conceptually returns the new value
// (C2), which forces the shared atomic cell. Blind (C3) unlocks the striped
// adder; Blind with a single declared reader (CWSR — counter writes always
// commute, so SingleReader alone suffices) unlocks the per-thread cells of
// the paper's (C3, CWSR) object.
func Counter(opts ...Option) (*AdjustedCounter, error) {
	p, plan, _, err := declare(&counterType, opts, false)
	if err != nil {
		return nil, err
	}
	c := &AdjustedCounter{plan: plan}
	switch plan.Rep {
	case "IncrementOnlyCounter":
		c.rep = counter.NewIncrementOnly(p.reg(), p.checked)
	case "FlatCounter":
		c.rep = flatCounterRep{flatmap.NewCounter(p.capacity)}
	case "Adder":
		c.rep = adderCounterRep{counter.NewAdder(p.capacityOr(runtime.GOMAXPROCS(0)), nil)}
	default: // AtomicCounter
		c.rep = atomicCounterRep{counter.NewAtomic(nil)}
	}
	if p.record {
		c.rep = &recordedCounter{recording[counterRep]{c.rep, p.recorder(4)}}
	}
	return c, nil
}

// ---------------------------------------------------------------------------
// Map

// mapRep is the planner's view of a hash-map representation. The segmented,
// SWMR and adaptive maps satisfy it directly; the striped baseline is
// adapted (it routes by lock, not by thread identity, and ignores the
// handle).
type mapRep[K comparable, V any] interface {
	Put(h *Handle, key K, val V)
	Get(key K) (V, bool)
	Remove(h *Handle, key K) bool
	Contains(key K) bool
	Len() int
	Range(f func(key K, val V) bool)
}

type stripedMapRep[K comparable, V any] struct{ m *hashmap.Striped[K, V] }

func (r stripedMapRep[K, V]) Put(_ *Handle, k K, v V)    { r.m.Put(k, v) }
func (r stripedMapRep[K, V]) Get(k K) (V, bool)          { return r.m.Get(k) }
func (r stripedMapRep[K, V]) Remove(_ *Handle, k K) bool { return r.m.Remove(k) }
func (r stripedMapRep[K, V]) Contains(k K) bool          { return r.m.Contains(k) }
func (r stripedMapRep[K, V]) Len() int                   { return r.m.Len() }
func (r stripedMapRep[K, V]) Range(f func(K, V) bool)    { r.m.Range(f) }

// AdjustedMap is a hash map built from a declared profile. Writes are
// handle-routed (representations that do not route by thread ignore the
// handle), reads are unrestricted unless the profile says otherwise.
type AdjustedMap[K comparable, V any] struct {
	plan *Plan
	rep  mapRep[K, V]
}

// Put stores key → val.
func (m *AdjustedMap[K, V]) Put(h *Handle, key K, val V) { m.rep.Put(h, key, val) }

// Get returns the value for key.
func (m *AdjustedMap[K, V]) Get(key K) (V, bool) { return m.rep.Get(key) }

// Remove deletes key, reporting whether it was present.
func (m *AdjustedMap[K, V]) Remove(h *Handle, key K) bool { return m.rep.Remove(h, key) }

// Contains reports whether key is present.
func (m *AdjustedMap[K, V]) Contains(key K) bool { return m.rep.Contains(key) }

// Len returns the entry count.
func (m *AdjustedMap[K, V]) Len() int { return m.rep.Len() }

// Range iterates entries (no ordering guarantee) until f returns false. f
// must not call this map: the StripedMap and AdaptiveMap rows run it
// holding a stripe lock and the flat rows holding a table read lock, so
// such a call may never return.
func (m *AdjustedMap[K, V]) Range(f func(key K, val V) bool) { m.rep.Range(f) }

// Plan returns the planner's decision for this object.
func (m *AdjustedMap[K, V]) Plan() Plan { return *m.plan }

// Adaptive returns the underlying contention-adaptive map when the profile
// declared Adaptive, else nil.
func (m *AdjustedMap[K, V]) Adaptive() *AdaptiveMap[K, V] {
	a, _ := unwrap(m.rep).(*AdaptiveMap[K, V])
	return a
}

// Advise infers the most adjusted map profile the recorded usage permits,
// certified against Definition 1. ok is false when the object was
// constructed without WithUsageRecording. Map reads carry no handle, so
// reader restrictions are never inferred (no map representation exploits
// one anyway).
func (m *AdjustedMap[K, V]) Advise() (Advice, bool) { return adviseObject(m.plan, m.rep) }

// mapRows are the hash-map representations, most adjusted first.
var mapRows = []repRow{
	{name: "FlatSWMRMap", modes: inSWMR, needs: needFlat, guarded: true},
	{name: "FlatMap", modes: inALL | commuting, needs: needFlat},
	{name: "AdaptiveMap", modes: commuting, adaptive: true, hashed: true},
	{name: "SegmentedMap", modes: commuting, guarded: true, hashed: true},
	{name: "SWMRMap", modes: inSWMR, guarded: true, hashed: true},
	{name: "StripedMap", modes: inALL, hashed: true},
}

// mapType is Map's planning data.
var mapType = datatype{name: "Map", takes: mapTakes, rows: mapRows, ranges: 1}

// Map builds a hash map from a declared usage profile.
//
// Planning: no restriction yields the lock-striped baseline (M1);
// SingleWriter yields the SWMR map; CommutingWriters yields the extended
// segmentation of the paper's (M2, CWMR) — with SingleReader too (CWSR, a
// stronger restriction the segmentation's contract also admits) the same
// representation serves; Adaptive on a commuting profile yields the
// contention-adaptive map (optionally split per-range with Ranges). An
// integer-kinded key with Capacity and no node-only tuning plans the flat
// family instead (flat.go). Integer and string keys hash by default; other
// key types need WithHash outside the flat family.
func Map[K comparable, V any](opts ...Option) (*AdjustedMap[K, V], error) {
	rep, plan, err := planMap[K, V](&mapType, usage.MethodPut, opts)
	if err != nil {
		return nil, err
	}
	return &AdjustedMap[K, V]{plan: plan, rep: rep}, nil
}

// planMap declares a Map or Set profile and builds the hash map it plans. A
// set is the map over empty values, so each map row and its set twin build
// the same representation; put names the method a recorded Put is filed
// under (a set's Add).
func planMap[K comparable, V any](dt *datatype, put usage.Method, opts []Option) (mapRep[K, V], *Plan, error) {
	enc, dec, intKey := intKeyCodec[K]()
	p, plan, row, err := declare(dt, opts, intKey)
	if err != nil {
		return nil, nil, err
	}
	hash, rec, recHash, err := keyed[K](dt.name, &p, row)
	if err != nil {
		return nil, nil, err
	}
	capacity := p.capacityOr(1024)
	buckets := p.bucketsOr(capacity * 2)
	var rep mapRep[K, V]
	switch plan.Rep {
	case "FlatSWMRMap", "FlatSWMRSet":
		rep = newFlatSWMRMap[K, V](enc, dec, p.capacity, p.checked)
	case "FlatMap", "FlatSet":
		rep = newFlatMap[K, V](enc, dec, p.capacity)
	case "AdaptiveMap":
		ad := adaptive.NewMap[K, V](p.reg(), p.stripesOr(256), capacity, buckets, p.ranges, hash, p.policy)
		rep = ad
		if n := ad.Ranges(); n != plan.Ranges {
			ranged := *plan
			ranged.Ranges = n
			plan = intern(ranged)
		}
	case "SegmentedMap", "SegmentedSet":
		rep = hashmap.NewSegmented[K, V](p.reg(), capacity, buckets, hash, p.checked)
	case "SWMRMap", "SWMRSet":
		rep = hashmap.NewSWMR[K, V](capacity, hash, p.checked)
	default: // StripedMap, StripedSet
		rep = stripedMapRep[K, V]{hashmap.NewStriped[K, V](p.stripesOr(256), capacity, hash, nil)}
	}
	if p.record {
		rep = &recordedMap[K, V]{recording[mapRep[K, V]]{rep, rec}, recHash, put}
	}
	return rep, plan, nil
}

// ---------------------------------------------------------------------------
// Set

// AdjustedSet is a membership set built from a declared profile: the hash
// map of its plan over empty values, whose Put is the set's Add.
type AdjustedSet[K comparable] struct {
	plan *Plan
	rep  mapRep[K, struct{}]
}

// Add inserts x.
func (s *AdjustedSet[K]) Add(h *Handle, x K) { s.rep.Put(h, x, struct{}{}) }

// Remove deletes x, reporting whether it was present.
func (s *AdjustedSet[K]) Remove(h *Handle, x K) bool { return s.rep.Remove(h, x) }

// Contains reports membership.
func (s *AdjustedSet[K]) Contains(x K) bool { return s.rep.Contains(x) }

// Len returns the element count.
func (s *AdjustedSet[K]) Len() int { return s.rep.Len() }

// Range iterates elements until f returns false. f must not call this set:
// the striped and flat rows run it under a lock of their own (see
// AdjustedMap.Range).
func (s *AdjustedSet[K]) Range(f func(x K) bool) {
	s.rep.Range(func(x K, _ struct{}) bool { return f(x) })
}

// Plan returns the planner's decision for this object.
func (s *AdjustedSet[K]) Plan() Plan { return *s.plan }

// Advise infers the most adjusted set profile the recorded usage permits,
// certified against Definition 1. ok is false when the object was
// constructed without WithUsageRecording.
func (s *AdjustedSet[K]) Advise() (Advice, bool) { return adviseObject(s.plan, s.rep) }

// setRows are the set representations, most adjusted first: each is the
// map row of the same name over empty values.
var setRows = []repRow{
	{name: "FlatSWMRSet", modes: inSWMR, needs: needFlat, guarded: true},
	{name: "FlatSet", modes: inALL | commuting, needs: needFlat},
	{name: "SegmentedSet", modes: commuting, guarded: true, hashed: true},
	{name: "SWMRSet", modes: inSWMR, guarded: true, hashed: true},
	{name: "StripedSet", modes: inALL, hashed: true},
}

// setType is Set's planning data.
var setType = datatype{name: "Set", takes: setTakes, rows: setRows, ranges: 1}

// Set builds a membership set from a declared usage profile. Planning
// follows Map: unrestricted → striped baseline (S1); SingleWriter → SWMR
// (S2); CommutingWriters → the segmented set of the paper's (S3, CWMR)
// node; the flat gate → the flat family.
func Set[K comparable](opts ...Option) (*AdjustedSet[K], error) {
	rep, plan, err := planMap[K, struct{}](&setType, usage.MethodAdd, opts)
	if err != nil {
		return nil, err
	}
	return &AdjustedSet[K]{plan: plan, rep: rep}, nil
}

// ---------------------------------------------------------------------------
// Ordered

// orderedRep is the planner's view of an ordered-map representation.
type orderedRep[K cmp.Ordered, V any] interface {
	Put(h *Handle, key K, val V)
	Get(key K) (V, bool)
	Remove(h *Handle, key K) bool
	Contains(key K) bool
	Len() int
	Range(f func(key K, val V) bool)
	RangeFrom(from K, f func(key K, val V) bool)
	RangeBetween(from, to K, f func(key K, val V) bool)
}

// below cuts an ascending iteration off at the first key ≥ to, so a list
// without a bounded scan serves RangeBetween from RangeFrom.
func below[K cmp.Ordered, V any](to K, f func(K, V) bool) func(K, V) bool {
	return func(k K, v V) bool { return k < to && f(k, v) }
}

// concurrentListRep adapts the handle-free lock-free baseline.
type concurrentListRep[K cmp.Ordered, V any] struct{ m *skiplist.Concurrent[K, V] }

func (r concurrentListRep[K, V]) Put(_ *Handle, k K, v V)             { r.m.Put(k, v) }
func (r concurrentListRep[K, V]) Get(k K) (V, bool)                   { return r.m.Get(k) }
func (r concurrentListRep[K, V]) Remove(_ *Handle, k K) bool          { return r.m.Remove(k) }
func (r concurrentListRep[K, V]) Contains(k K) bool                   { return r.m.Contains(k) }
func (r concurrentListRep[K, V]) Len() int                            { return r.m.Len() }
func (r concurrentListRep[K, V]) Range(f func(K, V) bool)             { r.m.Range(f) }
func (r concurrentListRep[K, V]) RangeFrom(from K, f func(K, V) bool) { r.m.RangeFrom(from, f) }
func (r concurrentListRep[K, V]) RangeBetween(from, to K, f func(K, V) bool) {
	r.m.RangeFrom(from, below(to, f))
}

// swmrListRep adapts the SWMR skip list.
type swmrListRep[K cmp.Ordered, V any] struct{ m *skiplist.SWMR[K, V] }

func (r swmrListRep[K, V]) Put(h *Handle, k K, v V)             { r.m.Put(h, k, v) }
func (r swmrListRep[K, V]) Get(k K) (V, bool)                   { return r.m.Get(k) }
func (r swmrListRep[K, V]) Remove(h *Handle, k K) bool          { return r.m.Remove(h, k) }
func (r swmrListRep[K, V]) Contains(k K) bool                   { return r.m.Contains(k) }
func (r swmrListRep[K, V]) Len() int                            { return r.m.Len() }
func (r swmrListRep[K, V]) Range(f func(K, V) bool)             { r.m.Range(f) }
func (r swmrListRep[K, V]) RangeFrom(from K, f func(K, V) bool) { r.m.RangeFrom(from, f) }
func (r swmrListRep[K, V]) RangeBetween(from, to K, f func(K, V) bool) {
	r.RangeFrom(from, below(to, f))
}

// AdjustedOrdered is an ordered map built from a declared profile. Ordered
// iteration is strictly ascending in every representation.
type AdjustedOrdered[K cmp.Ordered, V any] struct {
	plan *Plan
	rep  orderedRep[K, V]
}

// Put stores key → val.
func (m *AdjustedOrdered[K, V]) Put(h *Handle, key K, val V) { m.rep.Put(h, key, val) }

// Get returns the value for key.
func (m *AdjustedOrdered[K, V]) Get(key K) (V, bool) { return m.rep.Get(key) }

// Remove deletes key, reporting whether it was present.
func (m *AdjustedOrdered[K, V]) Remove(h *Handle, key K) bool { return m.rep.Remove(h, key) }

// Contains reports whether key is present.
func (m *AdjustedOrdered[K, V]) Contains(key K) bool { return m.rep.Contains(key) }

// Len returns the entry count.
func (m *AdjustedOrdered[K, V]) Len() int { return m.rep.Len() }

// Range iterates all entries in ascending key order until f returns false.
func (m *AdjustedOrdered[K, V]) Range(f func(key K, val V) bool) { m.rep.Range(f) }

// RangeFrom iterates entries with key ≥ from in ascending order.
func (m *AdjustedOrdered[K, V]) RangeFrom(from K, f func(key K, val V) bool) {
	m.rep.RangeFrom(from, f)
}

// RangeBetween iterates entries with from ≤ key < to in ascending order.
func (m *AdjustedOrdered[K, V]) RangeBetween(from, to K, f func(key K, val V) bool) {
	m.rep.RangeBetween(from, to, f)
}

// Plan returns the planner's decision for this object.
func (m *AdjustedOrdered[K, V]) Plan() Plan { return *m.plan }

// Advise infers the most adjusted ordered-map profile the recorded usage
// permits, certified against Definition 1. ok is false when the object
// was constructed without WithUsageRecording.
func (m *AdjustedOrdered[K, V]) Advise() (Advice, bool) { return adviseObject(m.plan, m.rep) }

// orderedRows are the ordered-map representations, most adjusted first.
var orderedRows = []repRow{
	{name: "SegmentedSkipList", modes: commuting, guarded: true, hashed: true},
	{name: "SWMRSkipList", modes: inSWMR, guarded: true},
	{name: "ConcurrentSkipList", modes: inALL},
}

// orderedType is Ordered's planning data.
var orderedType = datatype{name: "Ordered", takes: orderedTakes, rows: orderedRows, ranges: 1}

// Ordered builds an ordered map (skip list) from a declared usage profile.
// The catalog rows are shared with Map — an ordered map narrows M1's
// interface no differently — but the representations keep iteration
// sorted: unrestricted → lock-free CAS baseline; SingleWriter → SWMR list;
// CommutingWriters → the extended segmented list.
func Ordered[K cmp.Ordered, V any](opts ...Option) (*AdjustedOrdered[K, V], error) {
	p, plan, row, err := declare(&orderedType, opts, false)
	if err != nil {
		return nil, err
	}
	hash, rec, recHash, err := keyed[K](orderedType.name, &p, row)
	if err != nil {
		return nil, err
	}
	buckets := p.bucketsOr(p.capacityOr(1024) * 2)
	m := &AdjustedOrdered[K, V]{plan: plan}
	switch plan.Rep {
	case "SegmentedSkipList":
		m.rep = skiplist.NewSegmented[K, V](p.reg(), buckets, hash, p.checked)
	case "SWMRSkipList":
		m.rep = swmrListRep[K, V]{skiplist.NewSWMR[K, V](p.checked)}
	default: // ConcurrentSkipList
		m.rep = concurrentListRep[K, V]{skiplist.NewConcurrent[K, V](nil)}
	}
	if p.record {
		m.rep = &recordedOrdered[K, V]{recording[orderedRep[K, V]]{m.rep, rec}, recHash}
	}
	return m, nil
}

// ---------------------------------------------------------------------------
// Queue

// queueRep is the planner's view of a queue representation.
type queueRep[T any] interface {
	Offer(h *Handle, v T)
	Poll(h *Handle) (T, bool)
	Peek(h *Handle) (T, bool)
	IsEmpty(h *Handle) bool
	Drain(h *Handle, out []T, max int) int
}

// msQueueRep adapts the handle-free Michael–Scott baseline.
type msQueueRep[T any] struct{ q *queue.MS[T] }

func (r msQueueRep[T]) Offer(_ *Handle, v T)   { r.q.Offer(v) }
func (r msQueueRep[T]) Poll(*Handle) (T, bool) { return r.q.Poll() }
func (r msQueueRep[T]) Peek(*Handle) (T, bool) { return r.q.Peek() }
func (r msQueueRep[T]) IsEmpty(*Handle) bool   { return r.q.IsEmpty() }
func (r msQueueRep[T]) Drain(_ *Handle, out []T, max int) int {
	n := 0
	for n < max && n < len(out) {
		v, ok := r.q.Poll()
		if !ok {
			break
		}
		out[n] = v
		n++
	}
	return n
}

// AdjustedQueue is a FIFO queue built from a declared profile.
type AdjustedQueue[T any] struct {
	plan *Plan
	rep  queueRep[T]
}

// queueWith is a queue facade allocated together with its representation,
// so a program holding one queue per user pays one allocation for each. The
// facade comes last: its fields, read on every call, stay off the cache
// line the consumer writes the head on and share the tail's, which an MPSC
// queue's gap puts a line past the head, so an MPSC queue of a 16-byte
// element is two lines in all. Figure 6 calls the representation directly,
// so the facade's placement never shows in it.
type queueWith[T, R any] struct {
	rep R
	q   AdjustedQueue[T]
}

// Offer enqueues v.
func (q *AdjustedQueue[T]) Offer(h *Handle, v T) { q.rep.Offer(h, v) }

// Poll dequeues the head. Under SingleReader only the declared consumer may
// call it. (The recorder counts Poll on the consumer side — a "read" for
// cardinality purposes — because the MWSR adjustment is about who drains
// the queue, not about FIFO mutation.)
func (q *AdjustedQueue[T]) Poll(h *Handle) (T, bool) { return q.rep.Poll(h) }

// Peek returns the head without removing it.
func (q *AdjustedQueue[T]) Peek(h *Handle) (T, bool) { return q.rep.Peek(h) }

// IsEmpty reports emptiness.
func (q *AdjustedQueue[T]) IsEmpty(h *Handle) bool { return q.rep.IsEmpty(h) }

// Drain dequeues up to max elements into out, returning the count.
func (q *AdjustedQueue[T]) Drain(h *Handle, out []T, max int) int { return q.rep.Drain(h, out, max) }

// Plan returns the planner's decision for this object.
func (q *AdjustedQueue[T]) Plan() Plan { return *q.plan }

// Advise infers the most adjusted queue profile the recorded usage
// permits, certified against Definition 1. ok is false when the object
// was constructed without WithUsageRecording.
func (q *AdjustedQueue[T]) Advise() (Advice, bool) { return adviseObject(q.plan, q.rep) }

// queueRows are the queue representations, most adjusted first.
var queueRows = []repRow{
	{name: "MPSCQueue", modes: inMWSR, guarded: true},
	{name: "MSQueue", modes: inALL},
}

// queueType is Queue's planning data.
var queueType = datatype{name: "Queue", takes: queueTakes, rows: queueRows}

// Queue builds a FIFO queue from a declared usage profile: unrestricted →
// the Michael–Scott baseline (Q1, ALL); SingleReader → the multi-producer
// single-consumer queue of the paper's (Q1, MWSR) — producers never touch
// the consumer's head. Queue offers do not commute (enqueue order is
// observable), so CommutingWriters is rejected, as is SingleWriter (a
// queue with one producer and many consumers has no adjusted
// representation here).
func Queue[T any](opts ...Option) (*AdjustedQueue[T], error) {
	p, plan, _, err := declare(&queueType, opts, false)
	if err != nil {
		return nil, err
	}
	var q *AdjustedQueue[T]
	switch plan.Rep {
	case "MPSCQueue":
		w := new(queueWith[T, queue.MPSC[T]])
		w.rep.Init(nil, p.checked)
		q = &w.q
		q.rep = &w.rep
	default: // MSQueue
		w := new(queueWith[T, queue.MS[T]])
		w.rep.Init(nil)
		q = &w.q
		q.rep = msQueueRep[T]{&w.rep}
	}
	q.plan = plan
	if p.record {
		q.rep = &recordedQueue[T]{recording[queueRep[T]]{q.rep, p.recorder(4)}}
	}
	return q, nil
}

// ---------------------------------------------------------------------------
// Ref

// refRep is the planner's view of a reference representation.
type refRep[T any] interface {
	Get(h *Handle) *T
	Set(h *Handle, v *T) error
	Update(h *Handle, f func(old *T) *T) error
}

type atomicRefRep[T any] struct{ r *ref.Atomic[T] }

func (a atomicRefRep[T]) Get(*Handle) *T            { return a.r.Get() }
func (a atomicRefRep[T]) Set(_ *Handle, v *T) error { a.r.Set(v); return nil }
func (a atomicRefRep[T]) Update(_ *Handle, f func(*T) *T) error {
	for {
		old := a.r.Get()
		if a.r.CompareAndSet(old, f(old)) {
			return nil
		}
	}
}

type rcuRefRep[T any] struct{ r *ref.RCUBox[T] }

func (a rcuRefRep[T]) Get(*Handle) *T { return a.r.Read() }
func (a rcuRefRep[T]) Set(h *Handle, v *T) error {
	a.r.Update(h, func(*T) *T { return v })
	return nil
}
func (a rcuRefRep[T]) Update(h *Handle, f func(*T) *T) error {
	a.r.Update(h, f)
	return nil
}

type writeOnceRefRep[T any] struct{ w *ref.WriteOnce[T] }

func (a writeOnceRefRep[T]) Get(h *Handle) *T          { return a.w.Get(h) }
func (a writeOnceRefRep[T]) Set(h *Handle, v *T) error { return a.w.Set(h, v) }
func (a writeOnceRefRep[T]) Update(h *Handle, f func(*T) *T) error {
	return a.w.Set(h, f(a.w.Get(h)))
}

// AdjustedRef is a shared reference built from a declared profile.
type AdjustedRef[T any] struct {
	plan *Plan
	rep  refRep[T]
}

// Get returns the current referent (nil while unset).
func (r *AdjustedRef[T]) Get(h *Handle) *T { return r.rep.Get(h) }

// Set replaces the referent. Under WriteOnce a second Set returns
// ErrAlreadySet; under SingleWriter only the declared writer may call it.
func (r *AdjustedRef[T]) Set(h *Handle, v *T) error { return r.rep.Set(h, v) }

// Update replaces the referent with f(old). Under WriteOnce it succeeds
// only as the initializing write. f must be pure: the unrestricted plan
// retries a CAS loop and may invoke f more than once under write
// contention (the single-writer and write-once plans invoke it exactly
// once).
func (r *AdjustedRef[T]) Update(h *Handle, f func(old *T) *T) error { return r.rep.Update(h, f) }

// Plan returns the planner's decision for this object.
func (r *AdjustedRef[T]) Plan() Plan { return *r.plan }

// Advise infers the most adjusted reference profile the recorded usage
// permits, certified against Definition 1. ok is false when the object
// was constructed without WithUsageRecording.
func (r *AdjustedRef[T]) Advise() (Advice, bool) { return adviseObject(r.plan, r.rep) }

// refRows are the reference representations, most adjusted first.
var refRows = []repRow{
	// Its precondition is checked by Set, so it carries no guard to enable.
	{name: "WriteOnceRef", modes: inALL | inSWMR, needs: needWriteOnce},
	{name: "RCUBox", modes: inSWMR, guarded: true},
	{name: "AtomicRef", modes: inALL},
}

// refType is Ref's planning data.
var refType = datatype{name: "Ref", takes: refTakes, rows: refRows}

// Ref builds a shared reference holding v (nil allowed) from a declared
// usage profile: unrestricted → the atomic reference (R1); SingleWriter →
// the RCU box (R1, SWMR), whose readers take immutable snapshots;
// WriteOnce → the write-once reference of Listing 1 (R2), which must start
// unset. Reference writes replace the whole referent, so they never
// commute and CommutingWriters is rejected.
func Ref[T any](v *T, opts ...Option) (*AdjustedRef[T], error) {
	p, plan, _, err := declare(&refType, opts, false)
	if err != nil {
		return nil, err
	}
	if p.writeOnce && v != nil {
		return nil, invalid(refType.name, "WriteOnce starts unset: construct with a nil initial value and Set once")
	}
	r := &AdjustedRef[T]{plan: plan}
	switch plan.Rep {
	case "WriteOnceRef":
		r.rep = writeOnceRefRep[T]{ref.NewWriteOnce[T](p.reg())}
	case "RCUBox":
		r.rep = rcuRefRep[T]{ref.NewRCUBox[T](v, p.checked)}
	default: // AtomicRef
		r.rep = atomicRefRep[T]{ref.NewAtomic[T](v)}
	}
	if p.record {
		r.rep = &recordedRef[T]{recording[refRep[T]]{r.rep, p.recorder(4)}}
	}
	return r, nil
}

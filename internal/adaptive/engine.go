package adaptive

import (
	"github.com/adjusted-objects/dego/internal/contention"
	"github.com/adjusted-objects/dego/internal/core"
	"github.com/adjusted-objects/dego/internal/counter"
)

// This file is the representation-agnostic core of the adaptive map: the
// quiescent→migrating→promoted→demoting machine combined with the
// frozen-backing + tombstone-shadow overlay, over any pair of (cheap,
// adjusted) KV representations. adaptive.Map instantiates it over the hash
// maps (map.go), and flat_race_test.go over the flat tables;
// internal/adaptive/README.md documents the rep contract and the
// state-machine invariants the engine preserves.
//
// # The range directory
//
// The engine's payload is a directory of per-range representations: the key
// space is split into hash-prefix ranges and every range carries its own
// cheap/adjusted rep pair, its own contention probe and sampling window, and
// its own state machine. Ranges promote and demote independently: a hot
// range pays the adjusted representation's read indirection while cold
// ranges keep serving cheap-rep reads with no overlay lookup — the paper's
// "pay for the adjustment only where the contention is", applied inside a
// single object. A directory of one range (the default) is wholesale
// adjustment, exactly the pre-directory engine.
//
// Routing is pure: route(key) must return the same index for a key forever,
// so a key's reps, backing and tombstones all live in one range and the
// per-range machines never need to coordinate. Writers of one range are
// quiesced without stalling writers of any other.

// cheapKV is the engine's view of an unadjusted representation: handle-free
// operations, safe for any thread in any interleaving. In StateQuiescent and
// StateMigrating it is the live store; after promotion it is frozen — the
// engine never mutates it again — and serves as the read-through backing
// until the demotion drain replaces it wholesale.
type cheapKV[K comparable, V any] interface {
	Put(key K, val V)
	Get(key K) (V, bool)
	Contains(key K) bool
	Remove(key K) bool
	Len() int
	Range(f func(key K, val V) bool)
}

// adjustedKV is the engine's view of an adjusted representation: operations
// are handle-routed (the commuting-writers contract) and value access is
// box-level, because the overlay distinguishes live entries from tombstones
// by box identity alone. It shadows the frozen cheap rep: a key present here
// overrides the backing; a tombstone box masks a backed key as deleted.
type adjustedKV[K comparable, V any] interface {
	PutRef(h *core.Handle, key K, val *V)
	GetRef(key K) (*V, bool)
	Remove(h *core.Handle, key K) bool
	RangeRef(f func(key K, val *V) bool)
}

// kvReps is the representation payload of a range's view. cheap is set in
// every state; adj only in StatePromoted and StateDemoting (views are
// immutable, so the state field — not a nil check — says which reps are
// valid: C and A are constrained by interfaces and need not be nilable).
type kvReps[C, A any] struct {
	cheap C
	adj   A
}

// kvRange is one entry of the engine's range directory: the state machine
// (which owns the range's view pointer, writer slots, sampling controller
// and contention probe) plus the per-thread operation tally that drives the
// range's sampling cadence. Each range samples its own stream: its window
// sees only stalls recorded against its own probe and only operations routed
// to it, so a stall burst in one range can never promote another.
type kvRange[K comparable, V any, C cheapKV[K, V], A adjustedKV[K, V]] struct {
	mach *machine[kvReps[C, A]]
	// ops counts operations per thread — an unchecked IncrementOnly reused
	// as the sampling substrate: AddLocal's tally is the boundary trigger,
	// SnapshotCells the writer-activity source for demotion.
	ops *counter.IncrementOnly
}

// kvEngine is the generic contention-adaptive key-value machine. K and V are
// the map's key and value types; C and A the concrete cheap and adjusted
// representation types (static dispatch — the engine adds no interface-call
// overhead to the hot paths).
//
// # Migration
//
// Promotion is O(1) and drains nothing: after a range's writers quiesce, its
// cheap rep is frozen and becomes a read-through backing store under a
// fresh, empty adjusted rep. Eagerly draining would be wrong, not just slow:
// the extended segmentation binds each key, on first insert, to the segment
// of the thread that inserted it — a bulk drain by one migrator thread would
// bind every key to the migrator's segment and later writers of those keys
// would break the segment's single-writer contract. Instead each key is
// lazily re-homed by its own first post-promotion write (the writer that
// owns it under CWMR), which is exactly the binding the extended
// segmentation wants. Reads check the adjusted rep, then fall back to the
// frozen backing; removals of backed keys write a tombstone box so the
// backing cannot resurrect them. Demotion is the real drain: the range's
// writers quiesce, the shadow entries are overlaid on the backing
// (tombstones dropping keys, shadows winning), and the merge lands in a
// fresh cheap rep.
//
// During both transitions readers never block — they keep reading the stable
// source representations of the old view, and readers and writers of every
// other range are untouched. Writers arriving mid-transition in the
// transitioning range spin (recorded in that range's probe); promotion's
// window is just the quiesce, demotion's also covers the merge.
//
// # Sampling rides the write path
//
// Contention samples are taken by writers (every SampleEvery-th operation of
// a thread within a range); reads deliberately carry no shared sampling
// state, since a per-read shared counter would reintroduce exactly the
// cache-line traffic promotion removes. The consequence: a workload that
// stops writing keeps whatever representation it last had. A promoted range
// that turns read-only stays promoted — correct, but every miss in the
// adjusted rep pays the second lookup in the frozen backing until the next
// write burst resumes sampling (an incremental scavenger for the backing is
// a ROADMAP item).
type kvEngine[K comparable, V any, C cheapKV[K, V], A adjustedKV[K, V]] struct {
	// ranges is the directory; immutable after construction. route maps a
	// key to its directory index and must be pure (stable forever). With a
	// single range, route is never called.
	ranges []kvRange[K, V, C, A]
	route  func(K) int
	// newCheap builds a fresh cheap rep for one range (construction and the
	// demotion drain), wired to the range's probe so its stalls land in the
	// range's own sample stream; newAdj a fresh adjusted rep (promotion).
	newCheap func(probe *contention.Probe) C
	newAdj   func() A
	// tomb is the sentinel box marking a backed key as deleted, recognized
	// by pointer identity. It is shared by every range (a sentinel has no
	// per-range state) and must point INTO this struct (tombStore), not at
	// a separate allocation: for zero-size V the runtime gives every
	// heap-allocated value one shared address, so a `new(V)` sentinel would
	// alias every user box and classify live entries as deleted. An
	// interior pointer to an unexported field can never equal a box a
	// caller could hand us.
	tomb      *V
	tombStore struct {
		v V
		_ byte // keeps the enclosing field non-zero-size so &v stays interior
	}
}

// newKVEngine creates an engine whose directory has nRanges ranges, each in
// StateQuiescent over a fresh cheap rep. probe is the object-level probe the
// wrapper exposes; with one range it doubles as that range's probe, with
// several each range records into its own child (stalls still aggregate into
// probe). route maps keys to [0, nRanges); it may be nil when nRanges is 1.
func newKVEngine[K comparable, V any, C cheapKV[K, V], A adjustedKV[K, V]](
	r *core.Registry, probe *contention.Probe, p Policy, nRanges int,
	route func(K) int,
	newCheap func(probe *contention.Probe) C, newAdj func() A) *kvEngine[K, V, C, A] {
	if nRanges < 1 {
		nRanges = 1
	}
	e := &kvEngine[K, V, C, A]{
		ranges:   make([]kvRange[K, V, C, A], nRanges),
		route:    route,
		newCheap: newCheap,
		newAdj:   newAdj,
	}
	e.tomb = &e.tombStore.v
	for i := range e.ranges {
		rp := probe
		if nRanges > 1 {
			rp = probe.Child()
		}
		e.ranges[i] = kvRange[K, V, C, A]{
			mach: newMachine(r, rp, p, kvReps[C, A]{cheap: newCheap(rp)}),
			ops:  counter.NewIncrementOnly(r, false),
		}
	}
	return e
}

// rangeOf returns the directory entry owning key.
func (e *kvEngine[K, V, C, A]) rangeOf(key K) *kvRange[K, V, C, A] {
	if len(e.ranges) == 1 {
		return &e.ranges[0]
	}
	return &e.ranges[e.route(key)]
}

// putRef inserts or updates key with a caller-provided value box: once the
// key's range is promoted the box is stored directly (no allocation on the
// update path); in the cheap state its value is copied. The box must not be
// mutated after the call.
func (e *kvEngine[K, V, C, A]) putRef(h *core.Handle, key K, val *V) {
	rg := e.rangeOf(key)
	v := rg.mach.enter(h)
	if v.state == StateQuiescent {
		v.reps.cheap.Put(key, *val)
	} else {
		v.reps.adj.PutRef(h, key, val)
	}
	rg.mach.exit(h)
	e.tick(rg, h)
}

// remove deletes key, reporting whether it was present.
func (e *kvEngine[K, V, C, A]) remove(h *core.Handle, key K) bool {
	rg := e.rangeOf(key)
	v := rg.mach.enter(h)
	var present bool
	if v.state == StateQuiescent {
		present = v.reps.cheap.Remove(key)
	} else {
		// The caller owns key (CWMR), so this read-modify-write races with
		// no other writer of key.
		box, ok := v.reps.adj.GetRef(key)
		switch {
		case ok && box == e.tomb:
			present = false
		case ok:
			present = true
			if v.reps.cheap.Contains(key) {
				v.reps.adj.PutRef(h, key, e.tomb) // mask the backed copy
			} else {
				v.reps.adj.Remove(h, key)
			}
		default:
			if v.reps.cheap.Contains(key) {
				v.reps.adj.PutRef(h, key, e.tomb)
				present = true
			}
		}
	}
	rg.mach.exit(h)
	e.tick(rg, h)
	return present
}

// get returns the value for key. Any thread may call it; it never blocks,
// even mid-transition. A key in a quiescent range reads straight from the
// cheap rep — no overlay lookup, regardless of what other ranges are doing.
func (e *kvEngine[K, V, C, A]) get(key K) (V, bool) {
	v := e.rangeOf(key).mach.view()
	switch v.state {
	case StateQuiescent, StateMigrating:
		return v.reps.cheap.Get(key)
	default: // StatePromoted, StateDemoting: shadow, then backing.
		if box, ok := v.reps.adj.GetRef(key); ok {
			if box == e.tomb {
				var zero V
				return zero, false
			}
			return *box, true
		}
		return v.reps.cheap.Get(key)
	}
}

// rangeOverlay iterates the promoted-phase contents of reps — shadow entries
// overlaid on the frozen backing, tombstones masking backed keys. It is the
// single definition of "what a promoted range contains", shared by len,
// rangeAny and the demotion drain. The order is whatever the reps produce.
//
// The pass order matters for the live (non-quiesced) callers: the backing
// is frozen, so "k is backed" is stable for the whole iteration. Walking
// the backing first and consulting each key's shadow at emit time means a
// backed key is emitted exactly once with its freshest visible value —
// iterating the shadows first instead would let a concurrent put shadow a
// backed key between the passes and drop it from both.
func (e *kvEngine[K, V, C, A]) rangeOverlay(reps kvReps[C, A], f func(key K, val V) bool) {
	stop := false
	reps.cheap.Range(func(k K, val V) bool {
		if box, ok := reps.adj.GetRef(k); ok {
			if box == e.tomb {
				return true
			}
			val = *box
		}
		if !f(k, val) {
			stop = true
		}
		return !stop
	})
	if stop {
		return
	}
	// Keys living only in the adjusted rep (never backed).
	reps.adj.RangeRef(func(k K, box *V) bool {
		if box == e.tomb || reps.cheap.Contains(k) {
			return true
		}
		if !f(k, *box) {
			stop = true
		}
		return !stop
	})
}

// lenRange returns the number of entries in one range; weakly consistent,
// like the underlying reps (and O(n) while promoted, where backed keys must
// be checked against their shadows).
func (e *kvEngine[K, V, C, A]) lenRange(rg *kvRange[K, V, C, A]) int {
	v := rg.mach.view()
	if v.state == StateQuiescent || v.state == StateMigrating {
		return v.reps.cheap.Len()
	}
	n := 0
	e.rangeOverlay(v.reps, func(K, V) bool { n++; return true })
	return n
}

// len sums the entries over every range.
func (e *kvEngine[K, V, C, A]) len() int {
	n := 0
	for i := range e.ranges {
		n += e.lenRange(&e.ranges[i])
	}
	return n
}

// rangeAnyIn calls f for every entry of one range until it returns false,
// reporting whether f stopped the iteration; weakly consistent, in no
// particular order.
func (e *kvEngine[K, V, C, A]) rangeAnyIn(rg *kvRange[K, V, C, A], f func(key K, val V) bool) bool {
	v := rg.mach.view()
	if v.state == StateQuiescent || v.state == StateMigrating {
		stop := false
		v.reps.cheap.Range(func(k K, val V) bool {
			if !f(k, val) {
				stop = true
			}
			return !stop
		})
		return stop
	}
	stop := false
	e.rangeOverlay(v.reps, func(k K, val V) bool {
		if !f(k, val) {
			stop = true
		}
		return !stop
	})
	return stop
}

// rangeAny calls f for every entry of every range until it returns false;
// weakly consistent, in no particular order (ranges are visited in directory
// order, but hash-prefix ranges impose no key order).
func (e *kvEngine[K, V, C, A]) rangeAny(f func(key K, val V) bool) {
	for i := range e.ranges {
		if e.rangeAnyIn(&e.ranges[i], f) {
			return
		}
	}
}

// tick advances the caller's operation tally in rg and samples the range on
// window boundaries.
func (e *kvEngine[K, V, C, A]) tick(rg *kvRange[K, V, C, A], h *core.Handle) {
	if rg.ops.AddLocal(h, 1)&rg.mach.mask == 0 {
		e.sample(rg)
	}
}

// sample runs one range's controller and applies its verdict to that range.
func (e *kvEngine[K, V, C, A]) sample(rg *kvRange[K, V, C, A]) {
	// ops is unchecked, so its guard accepts the nil handle on the read.
	total := func() int64 { return rg.ops.Get(nil) }
	switch rg.mach.evaluate(total, rg.ops.SnapshotCells) {
	case actPromote:
		e.promoteRange(rg)
	case actDemote:
		e.demoteRange(rg)
	}
}

// promoteRange freezes one range's cheap rep as the backing store and
// installs a fresh adjusted rep over it. It reports whether the transition
// happened (false when the range is not quiescent or when a concurrent
// transition won). The call blocks only for the quiesce of that range's
// writers — no data moves and no other range is touched.
func (e *kvEngine[K, V, C, A]) promoteRange(rg *kvRange[K, V, C, A]) bool {
	old := rg.mach.view()
	if old.state != StateQuiescent {
		return false
	}
	adj := e.newAdj()
	mid := &view[kvReps[C, A]]{state: StateMigrating,
		reps: kvReps[C, A]{cheap: old.reps.cheap}}
	final := &view[kvReps[C, A]]{state: StatePromoted,
		reps: kvReps[C, A]{cheap: old.reps.cheap, adj: adj}}
	return rg.mach.swap(old, mid, final, nil)
}

// demoteRange drains one range's promoted representation (shadow entries
// overlaid on the frozen backing, tombstones dropping keys) into a fresh
// cheap rep. The range's writers pause for the drain; its readers — and
// every other range — are untouched.
func (e *kvEngine[K, V, C, A]) demoteRange(rg *kvRange[K, V, C, A]) bool {
	old := rg.mach.view()
	if old.state != StatePromoted {
		return false
	}
	mid := &view[kvReps[C, A]]{state: StateDemoting, reps: old.reps}
	fresh := e.newCheap(rg.mach.probe)
	drain := func() {
		e.rangeOverlay(old.reps, func(k K, val V) bool {
			fresh.Put(k, val)
			return true
		})
	}
	final := &view[kvReps[C, A]]{state: StateQuiescent,
		reps: kvReps[C, A]{cheap: fresh}}
	return rg.mach.swap(old, mid, final, drain)
}

// forcePromoteRange promotes directory entry i regardless of policy.
func (e *kvEngine[K, V, C, A]) forcePromoteRange(i int) bool {
	return e.promoteRange(&e.ranges[i])
}

// forceDemoteRange demotes directory entry i regardless of policy.
func (e *kvEngine[K, V, C, A]) forceDemoteRange(i int) bool {
	return e.demoteRange(&e.ranges[i])
}

// forcePromote promotes every quiescent range regardless of policy,
// reporting whether any transition happened.
func (e *kvEngine[K, V, C, A]) forcePromote() bool {
	any := false
	for i := range e.ranges {
		if e.promoteRange(&e.ranges[i]) {
			any = true
		}
	}
	return any
}

// forceDemote demotes every promoted range regardless of policy, reporting
// whether any transition happened.
func (e *kvEngine[K, V, C, A]) forceDemote() bool {
	any := false
	for i := range e.ranges {
		if e.demoteRange(&e.ranges[i]) {
			any = true
		}
	}
	return any
}

// stateSummary collapses the directory into one State for the wrappers'
// State method: with one range it is that range's state; with several it is
// the "most adjusted" state present, by the fixed precedence promoted >
// demoting > migrating > quiescent (a demoting range still serves its
// adjusted rep, a migrating one never has). Per-range states are available
// through stateRange.
func (e *kvEngine[K, V, C, A]) stateSummary() State {
	if len(e.ranges) == 1 {
		return e.ranges[0].mach.state()
	}
	summary := StateQuiescent
	for i := range e.ranges {
		switch e.ranges[i].mach.state() {
		case StatePromoted:
			return StatePromoted
		case StateDemoting:
			summary = StateDemoting
		case StateMigrating:
			if summary != StateDemoting {
				summary = StateMigrating
			}
		}
	}
	return summary
}

// stateRange returns the state of directory entry i.
func (e *kvEngine[K, V, C, A]) stateRange(i int) State { return e.ranges[i].mach.state() }

// transitions sums the representation switches over every range.
func (e *kvEngine[K, V, C, A]) transitions() int64 {
	var n int64
	for i := range e.ranges {
		n += e.ranges[i].mach.transitions.Load()
	}
	return n
}

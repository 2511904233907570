// Package adaptive provides the contention-adaptive map: a wrapper that
// starts in a cheap unadjusted representation and promotes itself to the
// adjusted representation when its contention probe reports a high stall
// rate over a sliding window — then demotes again when contention subsides.
//
// The paper adjusts objects statically, at construction, to how the program
// uses them. Self-adjusting computation (Acar et al.) shows the value of
// responding to changing conditions automatically; this package combines the
// two: the library's contention.Probe (the §6.2 stall proxy) becomes a
// runtime input, and the object switches representation when the measured
// stall rate says the current one is wrong for the workload.
//
// # State machine
//
// Every range of the adaptive map runs the same four-state machine over the
// two hash maps it switches between, hashmap.Striped (cheap) and
// hashmap.Segmented (adjusted):
//
//	quiescent ──promote──▶ migrating ──▶ promoted
//	    ▲                                    │
//	    └───────── demoting ◀────demote──────┘
//
// The machine publishes its configuration as a single atomic view pointer
// (state + the representations valid in that state). A transition allocates
// fresh views and CASes the pointer — the pointer identity doubles as the
// epoch, so there is no ABA under GC. Readers never block: they load the
// view once and read whichever representation it names (during a transition
// that is the stable source representation). Writers announce themselves in
// per-thread epoch slots; a transition flips the view, waits for every
// writer still pinned to the old view to finish (seqlock-style: announce,
// re-check, retract on conflict), drains the old representation into the
// new one, and publishes the final view. Writers
// that arrive mid-transition spin — the spins are recorded in the object's
// probe, so the cost of adapting is itself visible to the stall analysis.
//
// The map freezes its cheap representation as a read-through backing store
// on promotion and only pays a real drain on demotion (map.go).
//
// The map is the only adaptive object. A counter, set or ordered map
// declared with the same profile is served faster by the static adjusted
// representation its declaration already names, so the planner takes
// Adaptive on Map only.
//
// # Policy
//
// Promotion is driven by the windowed stall rate (contention.Window): the
// fraction of recent operations that stalled (failed a CAS, waited for a
// lock, spun). Demotion is driven by writer concurrency: the adjusted
// representations are stall-free by construction, so "contention subsided"
// is instead observed as the number of distinct threads that wrote during
// recent windows falling to DemoteWriters or below. Hysteresis (minimum
// window fill, consecutive low-concurrency samples, a post-transition
// cooldown) keeps the machine from flapping on workload noise.
package adaptive

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/adjusted-objects/dego/internal/contention"
	"github.com/adjusted-objects/dego/internal/core"
	"github.com/adjusted-objects/dego/internal/counter"
	"github.com/adjusted-objects/dego/internal/hashmap"
)

// State identifies a position in the adaptive state machine.
type State int32

const (
	// StateQuiescent: the object runs its cheap unadjusted representation.
	StateQuiescent State = iota
	// StateMigrating: promotion in progress; writers pause, readers do not.
	StateMigrating
	// StatePromoted: the object runs its adjusted representation.
	StatePromoted
	// StateDemoting: demotion in progress; writers pause while the adjusted
	// representation drains back into a fresh cheap one, readers do not.
	StateDemoting
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateQuiescent:
		return "quiescent"
	case StateMigrating:
		return "migrating"
	case StatePromoted:
		return "promoted"
	case StateDemoting:
		return "demoting"
	}
	return fmt.Sprintf("State(%d)", int32(s))
}

// Policy tunes when an adaptive object switches representation. The zero
// value of any field selects the DefaultPolicy value for that field.
type Policy struct {
	// SampleEvery is the number of operations between contention samples
	// (rounded up to a power of two; the trigger is a bitmask on counts the
	// write path already produces, so sampling adds no shared state).
	SampleEvery int
	// WindowBuckets is the sliding-window length in samples.
	WindowBuckets int
	// MinSamples is the minimum window fill before promotion is considered.
	MinSamples int
	// PromoteStallRate is the windowed stall rate at or above which a
	// quiescent object promotes. The numerator counts every stall the probe
	// sees — for the map that includes readers waiting on stripe locks,
	// deliberately: promoted reads are lock-free, so read-side lock waits
	// are a reason to promote. The denominator is the object's operation
	// proxy, which counts only handle-carrying operations (writes); under
	// read-heavy load the ratio is therefore stalls per *write*, reaching
	// the threshold earlier than a true per-operation rate would.
	PromoteStallRate float64
	// DemoteWriters is the writer-concurrency floor: a promoted object
	// demotes after DemoteSamples consecutive samples observed at most this
	// many distinct writing threads.
	DemoteWriters int
	// DemoteSamples is the consecutive low-concurrency sample count that
	// triggers demotion.
	DemoteSamples int
	// Cooldown is the number of samples ignored after a transition.
	Cooldown int
}

// DefaultPolicy returns the tuning used by the public constructor:
// sample every 1024 operations over an 8-sample window, promote at a 5%
// stall rate, demote after 3 consecutive single-writer samples.
func DefaultPolicy() Policy {
	return Policy{
		SampleEvery:      1024,
		WindowBuckets:    8,
		MinSamples:       3,
		PromoteStallRate: 0.05,
		DemoteWriters:    1,
		DemoteSamples:    3,
		Cooldown:         2,
	}
}

// withDefaults fills zero fields from DefaultPolicy.
func (p Policy) withDefaults() Policy {
	d := DefaultPolicy()
	if p.SampleEvery <= 0 {
		p.SampleEvery = d.SampleEvery
	}
	if p.WindowBuckets <= 0 {
		p.WindowBuckets = d.WindowBuckets
	}
	if p.MinSamples <= 0 {
		p.MinSamples = d.MinSamples
	}
	if p.PromoteStallRate <= 0 {
		p.PromoteStallRate = d.PromoteStallRate
	}
	if p.DemoteWriters <= 0 {
		p.DemoteWriters = d.DemoteWriters
	}
	if p.DemoteSamples <= 0 {
		p.DemoteSamples = d.DemoteSamples
	}
	if p.Cooldown <= 0 {
		p.Cooldown = d.Cooldown
	}
	return p
}

// rangeCount rounds a requested range count up to a power of two, at least
// 1 (hash-prefix routing takes the top log2(rangeCount) bits of the key
// hash, so the directory size must be one).
func rangeCount(ranges int) int {
	n := 1
	for n < ranges && n < 1<<30 {
		n <<= 1
	}
	return n
}

// sampleMask returns SampleEvery rounded up to a power of two, minus one,
// capped at 1<<62 (the largest int64 power of two — beyond it the doubling
// would overflow and SampleEvery values near MaxInt64 would loop forever).
func (p Policy) sampleMask() int64 {
	n := int64(1)
	for n < int64(p.SampleEvery) && n < 1<<62 {
		n <<= 1
	}
	return n - 1
}

// view is one published configuration of a range: a state plus the
// representations valid in it. cheap is set in every state; adj only in
// StatePromoted and StateDemoting, so adj == nil says the range reads its
// striped map alone. Transitions allocate fresh views, so pointer identity
// identifies the epoch.
type view[K comparable, V any] struct {
	state State
	cheap *hashmap.Striped[K, V]
	adj   *hashmap.Segmented[K, *V]
}

// action is the controller's verdict after a sample.
type action int

const (
	actNone action = iota
	actPromote
	actDemote
)

// machine is one range of the adaptive map: the current view, the
// per-thread writer slots used to quiesce an old view, and the sampling
// controller. Each range samples its own stream: its window sees only stalls
// recorded against its own probe and only operations routed to it, so a
// stall burst in one range can never promote another.
type machine[K comparable, V any] struct {
	cur   atomic.Pointer[view[K, V]]
	slots []core.PaddedPointer[view[K, V]] // writer presence, indexed by handle ID
	probe *contention.Probe
	// ops counts operations per thread — an unchecked IncrementOnly reused
	// as the sampling substrate: AddLocal's tally is the boundary trigger,
	// SnapshotCells the writer-activity source for demotion.
	ops *counter.IncrementOnly

	policy Policy
	mask   int64

	// Controller state, serialized by mu. The write path only ever TryLocks
	// it, so sampling never blocks an operation.
	mu         sync.Mutex
	window     *contention.Window
	lastOps    int64
	lastStalls int64
	lastCells  []int64
	scratch    []int64
	lowSamples int
	cooldown   int

	transitions atomic.Int64
}

// init sets up m in StateQuiescent over cheap, with one writer slot per
// registry handle. policy must already carry its defaults.
func (m *machine[K, V]) init(reg *core.Registry, probe *contention.Probe, policy Policy, cheap *hashmap.Striped[K, V]) {
	m.slots = make([]core.PaddedPointer[view[K, V]], reg.Capacity())
	m.probe = probe
	m.ops = counter.NewIncrementOnly(reg, false)
	m.policy = policy
	m.mask = policy.sampleMask()
	m.window = contention.NewWindow(policy.WindowBuckets)
	m.cur.Store(&view[K, V]{state: StateQuiescent, cheap: cheap})
}

// enter pins the current view for one write operation and returns it,
// spinning (probe-recorded) while a transition is in flight. The announce /
// re-check / retract dance is the seqlock-style handshake with swap: after
// the re-check succeeds, either the writer saw the transition's flip, or the
// transition's quiesce scan sees the writer's slot and waits for exit.
func (m *machine[K, V]) enter(h *core.Handle) *view[K, V] {
	slot := &m.slots[h.ID()].P
	for {
		v := m.cur.Load()
		if v.state == StateMigrating || v.state == StateDemoting {
			m.probe.RecordSpin()
			runtime.Gosched()
			continue
		}
		slot.Store(v)
		if m.cur.Load() == v {
			return v
		}
		slot.Store(nil)
	}
}

// exit retracts the caller's pin and advances its operation tally, reporting
// whether the tally crossed a sampling boundary.
func (m *machine[K, V]) exit(h *core.Handle) bool {
	m.slots[h.ID()].P.Store(nil)
	return m.ops.AddLocal(h, 1)&m.mask == 0
}

// swap performs one transition: CAS old→mid, wait until no writer is pinned
// to old, run drain against the now-stable old representations, then publish
// final. It returns false (no-op) when old is no longer current — concurrent
// transition attempts resolve on the CAS. Callers must not hold a writer pin.
//
// The controller mutex is held for the whole transition, reset included:
// evaluate only TryLocks, so no sampler can observe the new view paired with
// the old window, cooldown or lowSamples — without this, a sample racing the
// publish could act on the stale state (e.g. re-promote instantly on a
// window still full of the pre-demotion stall burst, bypassing Cooldown).
func (m *machine[K, V]) swap(old, mid, final *view[K, V], drain func()) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.cur.CompareAndSwap(old, mid) {
		return false
	}
	for i := range m.slots {
		for m.slots[i].P.Load() == old {
			runtime.Gosched()
		}
	}
	if drain != nil {
		drain()
	}
	m.cur.Store(final)
	m.transitions.Add(1)
	m.window.Reset()
	m.lowSamples = 0
	m.cooldown = m.policy.Cooldown
	return true
}

// evaluate records one contention sample and returns the recommended action.
// The operation tally is the monotone operation-count proxy; its per-thread
// cells count the distinct recent writers for demotion. At most one sampler
// runs at a time; contenders return immediately.
func (m *machine[K, V]) evaluate() action {
	if !m.mu.TryLock() {
		return actNone
	}
	defer m.mu.Unlock()

	v := m.cur.Load()
	if v.state == StateMigrating || v.state == StateDemoting {
		return actNone
	}

	ops := m.ops.Get(nil) // ops is unchecked, so its guard accepts the nil handle
	stalls := m.probe.Snapshot().Total()
	dOps := ops - m.lastOps
	dStalls := stalls - m.lastStalls
	m.lastOps, m.lastStalls = ops, stalls

	m.scratch = m.ops.SnapshotCells(m.scratch[:0])
	active := 0
	for i, tally := range m.scratch {
		// A cell first seen on this sample has an implicit previous tally of
		// zero: tallies are monotone, so zero means the thread never wrote —
		// a freshly registered reader must not count as an active writer.
		prev := int64(0)
		if i < len(m.lastCells) {
			prev = m.lastCells[i]
		}
		if tally != prev {
			active++
		}
	}
	m.lastCells = append(m.lastCells[:0], m.scratch...)

	if m.cooldown > 0 {
		m.cooldown--
		return actNone
	}
	if dOps <= 0 {
		return actNone
	}

	switch v.state {
	case StateQuiescent:
		m.window.Observe(dOps, dStalls)
		if m.window.Len() >= m.policy.MinSamples && m.window.Rate() >= m.policy.PromoteStallRate {
			return actPromote
		}
	case StatePromoted:
		if active <= m.policy.DemoteWriters {
			m.lowSamples++
		} else {
			m.lowSamples = 0
		}
		if m.lowSamples >= m.policy.DemoteSamples {
			m.lowSamples = 0
			return actDemote
		}
	}
	return actNone
}

// Package dego is the public API of the library: adjusted objects for Go,
// after "Adjusted Objects: An Efficient and Principled Approach to Scalable
// Programming" (Middleware '25).
//
// An adjusted object is a shared object tailored to how a program actually
// uses it: the interface is narrowed (blind writes, write-once, no reset)
// and access is restricted (single writer, single reader, commuting
// writers). Both adjustments densify the object's indistinguishability
// graph, which is the paper's predictor of scalability; the objects here are
// drop-in replacements for the mutex/CAS equivalents with the same
// consistency on the operations they keep.
//
// # Profile-driven construction
//
// Programs declare the usage; the planner picks the representation. Each
// datatype has one constructor taking functional options:
//
//	m, err := dego.Map[string, int](dego.CommutingWriters(), dego.Capacity(1<<16))
//	c, err := dego.Counter(dego.Blind(), dego.SingleReader())
//	q, err := dego.Queue[task](dego.SingleReader())
//	o, err := dego.Ordered[int, string](dego.CommutingWriters())
//	s, err := dego.Set[string](dego.CommutingWriters())
//	r, err := dego.Ref[config](nil, dego.WriteOnce())
//
// The options narrow the interface (Blind, WriteOnce), restrict access
// (SingleWriter, SingleReader, CommutingWriters), request adaptivity of a
// map (Adaptive, with Ranges granularity) or tune the result (On,
// Checked, WithHash, WithProbe, Capacity, Stripes, Buckets). The planner
// names the Table 1 object the declared profile describes from its
// narrowings and access mode alone, certifies it against the executable
// Definition 1 in the spec catalog, and then picks the first — most
// adjusted — representation in the datatype's row table whose modes,
// needs and guard the declaration meets. Impossible combinations fail at
// construction with an error wrapping ErrInvalidProfile. Every constructed
// object reports its Plan.
//
// # Thread identity
//
// Go has no goroutine-local storage, so ownership is explicit: goroutines
// register once and pass their *Handle to owner-routed operations. A handle
// must come from the same Registry the object was created on (the default
// registry unless On(r) was declared); mixing registries corrupts segment
// routing.
//
//	h := dego.MustRegister()
//	defer h.Release()
//	counter := dego.Must(dego.Counter(dego.Blind(), dego.SingleReader()))
//	counter.Inc(h)
//
// # Representations
//
// Plan().Rep names the representation the planner chose:
//
//   - IncrementOnlyCounter — increment-only counter (C3, CWSR): per-thread
//     cells, no CAS.
//   - Adder — LongAdder-style striped adder (CAS cells).
//   - AtomicCounter — the unadjusted baseline (shared cell).
//   - WriteOnceRef — write-once reference (R2), the Listing 1 pattern.
//   - RCUBox — read-copy-update box for rarely-written structures.
//   - AtomicRef — the unadjusted atomic reference.
//   - MPSCQueue — multi-producer single-consumer queue (Q1, MWSR).
//   - MSQueue — Michael–Scott queue (the unadjusted baseline).
//   - SWMRMap / SWMRSkipList / SWMRSet — single-writer multi-reader
//     collections.
//   - SegmentedMap / SegmentedSet — commuting-writers collections (CWMR):
//     one lock-free directory whose entry holds the key, the thread it is
//     bound to on first insert, and the value, so a lookup is one chain
//     walk. SegmentedSkipList — the ordered one: the same node per key,
//     also linked into one insert-only lock-free skip list for ordered
//     iteration.
//   - StripedMap / StripedSet — lock-striped baselines;
//     ConcurrentSkipList — the lock-free CAS baseline.
//   - FlatMap / FlatSWMRMap / FlatSet / FlatSWMRSet — preallocated
//     open-addressing tables for integer-kinded keys (Capacity-gated):
//     keys and values inline in slot arrays, zero steady-state allocation,
//     nothing for the GC to trace. FlatCounter — padded wait-free cells,
//     the flat pairing of the C3 counter.
//   - AdaptiveMap — the contention-adaptive map: the striped map until the
//     windowed stall rate says otherwise, the segmented one while
//     contention lasts (readers never block on a switch). Its engine
//     (internal/adaptive) holds a directory of per-range representations,
//     so only the key ranges that actually contend pay for the adjustment
//     (Adaptive(Ranges(n))). It is the only adaptive representation: a
//     counter, set or ordered map plans its static adjusted representation,
//     which is faster under the same declaration. See ARCHITECTURE.md for
//     the full layer stack.
//
// Each *Set row is the map row of the same name over empty values:
// SWMRSet is SWMRMap's representation, SegmentedSet SegmentedMap's,
// StripedSet StripedMap's, FlatSet FlatMap's and FlatSWMRSet
// FlatSWMRMap's, with Add storing an empty value.
//
// The theory toolkit (sequential specifications, indistinguishability
// graphs, consensus-number analysis) lives in internal packages and is
// exposed through the igraph command; the planner consults it through the
// spec catalog's query surface.
package dego

import (
	"github.com/adjusted-objects/dego/internal/adaptive"
	"github.com/adjusted-objects/dego/internal/contention"
	"github.com/adjusted-objects/dego/internal/core"
	"github.com/adjusted-objects/dego/internal/ref"
	"github.com/adjusted-objects/dego/internal/stats"
)

// Handle is a registered thread identity; see Register.
type Handle = core.Handle

// Registry hands out thread identities; most programs use the default one.
type Registry = core.Registry

// Mode is an access-permission mode (ALL, SWMR, MWSR, CWMR, CWSR).
type Mode = core.Mode

// Access-permission modes (§4.2 of the paper).
const (
	ModeAll  = core.ModeAll
	ModeSWMR = core.ModeSWMR
	ModeMWSR = core.ModeMWSR
	ModeCWMR = core.ModeCWMR
	ModeCWSR = core.ModeCWSR
)

// Probe collects contention events (CAS failures, lock waits) — the
// library's stall proxy. Pass nil anywhere a probe is accepted to disable.
type Probe = contention.Probe

// NewProbe returns an empty contention probe.
func NewProbe() *Probe { return contention.NewProbe() }

// NewRegistry creates a registry for the given maximum number of
// simultaneously live threads.
func NewRegistry(capacity int) *Registry { return core.NewRegistry(capacity) }

// DefaultRegistry returns the process-wide registry.
func DefaultRegistry() *Registry { return core.Default }

// Register allocates a thread handle from the default registry.
func Register() (*Handle, error) { return core.Register() }

// MustRegister is Register, panicking on registry exhaustion.
func MustRegister() *Handle { return core.MustRegister() }

// ---------------------------------------------------------------------------
// The adaptive map

// AdaptiveState is a position in the adaptive state machine (quiescent →
// migrating → promoted → demoting).
type AdaptiveState = adaptive.State

// Adaptive state machine positions.
const (
	AdaptiveQuiescent = adaptive.StateQuiescent
	AdaptiveMigrating = adaptive.StateMigrating
	AdaptivePromoted  = adaptive.StatePromoted
	AdaptiveDemoting  = adaptive.StateDemoting
)

// AdaptivePolicy tunes when the adaptive map switches representation; the
// zero value of any field selects its default. Every range of the map's
// directory (see Ranges) samples and switches under the same policy.
type AdaptivePolicy = adaptive.Policy

// DefaultAdaptivePolicy returns the tuning an Adaptive map declaration
// uses when it names no WithPolicy.
func DefaultAdaptivePolicy() AdaptivePolicy { return adaptive.DefaultPolicy() }

// AdaptiveMap is the contention-adaptive hash map: lock-striped until its
// windowed lock-wait rate crosses the policy threshold, extended-segmented
// (the M2 adjustment) while contention lasts. With Ranges(n), n > 1,
// the adjustment is per-range: only the hash-prefix buckets whose keys
// contend promote, and reads of keys in quiescent ranges never pay the
// promoted overlay lookup. It requires the commuting-writers contract in
// every state: distinct threads write distinct keys.
type AdaptiveMap[K comparable, V any] = adaptive.Map[K, V]

// ---------------------------------------------------------------------------
// References

// ErrAlreadySet is returned by AdjustedRef.Set and Update under WriteOnce
// once the reference is set.
var ErrAlreadySet = ref.ErrAlreadySet

// ---------------------------------------------------------------------------
// Hashing helpers

// Hash64 mixes an integer key (splitmix64); the default hasher for built-in
// integer key types.
func Hash64(x uint64) uint64 { return stats.Hash64(x) }

// HashString hashes a string key (FNV-1a + mixing); the default hasher for
// string keys.
func HashString(s string) uint64 { return stats.HashString(s) }

// HashInt adapts Hash64 to int keys.
func HashInt(k int) uint64 { return stats.Hash64(uint64(k)) }

package dego

// An Option declares one aspect of how a program will use a shared object.
// The profile constructors (Counter, Map, Set, Ordered, Queue, Ref) fold
// their options into a usage profile and hand it to the planner, which picks
// the representation — callers say what they do, not which data structure
// they want. Options divide into
//
//   - interface narrowings: Blind, WriteOnce — give up part of the base
//     interface (return values, re-initialization);
//   - access restrictions: SingleWriter, SingleReader, CommutingWriters —
//     promise which threads call what;
//   - adaptivity: Adaptive — ask a map for a representation that switches
//     itself under measured contention;
//   - context and tuning: On, Checked, WithHash, Capacity, Stripes,
//     Buckets — they place, guard, hash or size whatever the planner
//     picks, and never change which object is declared.
//
// Narrowings, restrictions and adaptivity that do not exist for a datatype
// (WriteOnce on a map, Blind on a queue, Adaptive on a counter) make the
// whole profile invalid, and so does a profile no
// representation serves (SingleReader alone on a map, Checked on a plan
// with no guard): the constructor returns an error wrapping
// ErrInvalidProfile rather than guessing what was meant. Both rules are
// data — one applicability table of the options each datatype takes, and
// one row per representation stating the modes it serves, what it needs
// and whether it carries a guard. The sizing options (Capacity, Stripes,
// Buckets) are likewise rejected on datatypes they can never size (queues,
// references); on the sized datatypes they are hints, consumed where the
// planned representation has the corresponding knob and harmlessly unused
// where it does not (e.g. Capacity on an unrestricted Ordered plan — the
// lock-free list has no preallocation).
type Option func(*profile)

// An AdaptiveOption tunes the Adaptive declaration.
type AdaptiveOption func(*profile)

// On places the object on a specific registry; without it the process-wide
// default registry is used. Representations that never route by thread
// identity (striped and lock-free baselines, atomic cells) ignore it.
func On(r *Registry) Option { return func(p *profile) { p.registry = r } }

// Checked enables the planned representation's runtime permission guard:
// violations of the declared access restriction panic instead of silently
// corrupting. Valid only when the planned representation carries a guard
// (the handle-routed adjusted representations do; the any-thread baselines
// have nothing to check).
func Checked() Option { return func(p *profile) { p.checked = true } }

// Blind declares that write operations need not return information about
// the previous state (the r-arrows of Figure 3: a voided postcondition).
// For counters this is the C2→C3 step that unlocks the striped and
// per-thread cell representations — an increment that must return the new
// value is inherently a read-modify-write on shared state.
func Blind() Option { return func(p *profile) { p.blind = true } }

// WriteOnce declares the reference is initialized at most once (the
// p-arrow R1→R2: set's precondition strengthens to "unset"). Applies to
// Ref only.
func WriteOnce() Option { return func(p *profile) { p.writeOnce = true } }

// SingleWriter declares that one thread performs every write (SWMR).
func SingleWriter() Option { return func(p *profile) { p.singleWriter = true } }

// SingleReader declares that one thread performs every read (MWSR; with
// CommutingWriters, CWSR).
func SingleReader() Option { return func(p *profile) { p.singleReader = true } }

// CommutingWriters declares that concurrent writes by distinct threads
// commute — e.g. they target distinct keys (CWMR; with SingleReader, CWSR).
// This is the contract that makes the extended segmentations sound, and it
// must hold for the object's whole lifetime.
func CommutingWriters() Option { return func(p *profile) { p.commuting = true } }

// Adaptive asks a commuting-writers Map for the contention-adaptive
// representation: the unadjusted one until the windowed stall rate says
// otherwise, the adjusted one while contention lasts. The declared access
// restriction must still hold in every state — adaptivity changes the
// representation, never the contract. Applies to Map only: Counter, Set and
// Ordered reject it, because under the same declaration their static
// adjusted representation is faster in every measured cell
// (ARCHITECTURE.md, "Why only the map adapts").
func Adaptive(opts ...AdaptiveOption) Option {
	return func(p *profile) {
		p.adaptive = true
		for _, o := range opts {
			o(p)
		}
	}
}

// WithPolicy overrides the adaptive switching policy (thresholds, window
// sizes); Ranges sets the range count.
func WithPolicy(pol AdaptivePolicy) AdaptiveOption {
	return func(p *profile) { p.policy = pol }
}

// Ranges splits an adaptive map into n hash-prefix ranges that promote and
// demote independently, so a hot range pays the adjusted representation
// while cold ranges keep single-lookup reads.
func Ranges(n int) AdaptiveOption { return func(p *profile) { p.ranges = n } }

// WithHash supplies the key hash for keyed objects. Optional for built-in
// integer and string key types, which get the library's default hashers
// (Hash64 / HashString); required for every other key type.
func WithHash[K comparable](f func(K) uint64) Option {
	return func(p *profile) { p.hash = f }
}

// Capacity sizes the object: hash-table capacity for maps and sets, the
// cell count for blind ALL-mode counters, the segment-directory default
// for commuting Ordered plans. Defaults are workload-neutral (1024
// entries; one cell per CPU). A hint: plans whose representation has no
// preallocation (per-thread counter cells, the lock-free and SWMR skip
// lists) leave it unused.
func Capacity(n int) Option { return func(p *profile) { p.capacity = n } }

// Stripes sizes the lock-stripe array of the striped representations
// (default 256). Applies to Map and Set; a hint on plans without a striped
// representation (SWMR, segmented).
func Stripes(n int) Option { return func(p *profile) { p.stripes = n } }

// Buckets sizes the key directory of the segmented representations
// (default: twice the capacity). The directory never grows, so size it for
// the expected key count. Applies to Map, Set and Ordered; a hint on plans
// without a key directory.
func Buckets(n int) Option { return func(p *profile) { p.buckets = n } }

// WithUsageRecording attaches a usage recorder to the constructed object:
// every wrapper operation is counted — per method, per thread slot (via
// handle IDs), per key — so Advise can later infer the most adjusted
// profile the observed usage would have permitted, certified against
// Definition 1. The intended use is the tuning loop: construct the object
// with no adjustment declared but recording on, replay a representative
// workload, and move what Advise recommends into the declaration.
//
// Recording is allocation-free per operation but not free (a few atomic
// adds per call, and keyed objects hash every written key a second time),
// so it is a replay/profiling mode, not a steady-state default. Objects
// built without this option carry no recorder and pay one nil check per
// operation. Keyed objects whose key type has no default hasher need
// WithHash for recording too (named integer key types hash through the
// flat family's codec automatically).
func WithUsageRecording() Option { return func(p *profile) { p.record = true } }

// Must unwraps a profile-constructor result, panicking on error. For
// program-shaped profiles that cannot be invalid — typically package-level
// construction where the profile is a literal.
func Must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

package dego

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"github.com/adjusted-objects/dego/internal/usage"
)

// ErrInvalidProfile is the sentinel every profile-rejection error wraps:
// errors.Is(err, dego.ErrInvalidProfile) is true exactly when a profile
// constructor (Counter, Map, Set, Ordered, Queue, Ref) refused to build
// because the declared usage is not a valid adjustment — the combination
// names no mode of §4.2, the narrowing does not exist in the object's
// Table 1 family, or the library has no representation for the declared
// object. The concrete error is an *InvalidProfileError carrying the
// datatype and the reason.
var ErrInvalidProfile = errors.New("invalid profile")

// InvalidProfileError reports why a declared profile was rejected. It wraps
// ErrInvalidProfile.
type InvalidProfileError struct {
	// Datatype is the profile constructor that rejected ("Counter", "Map",
	// "Set", "Ordered", "Queue", "Ref").
	Datatype string
	// Detail is the reason, phrased against the paper's model where the
	// rejection is theoretical (no such mode, no such narrowing) and
	// against the library where it is practical (no representation).
	Detail string
}

// Error implements the error interface.
func (e *InvalidProfileError) Error() string {
	return fmt.Sprintf("dego: %s: %s: %s", e.Datatype, ErrInvalidProfile.Error(), e.Detail)
}

// Unwrap makes errors.Is(err, ErrInvalidProfile) hold.
func (e *InvalidProfileError) Unwrap() error { return ErrInvalidProfile }

// invalid builds the rejection error for datatype dt.
func invalid(dt, format string, args ...any) error {
	return &InvalidProfileError{Datatype: dt, Detail: fmt.Sprintf(format, args...)}
}

// profile is the declared usage a constructor collects from its options
// before planning a representation. Zero value = no adjustment declared:
// full interface, every thread may do everything.
type profile struct {
	registry *Registry

	// Interface narrowings (the d/p/r arrows of Figure 3).
	blind     bool
	writeOnce bool

	// Access restrictions (the m/c arrows).
	singleWriter bool
	singleReader bool
	commuting    bool

	// Adaptivity.
	adaptive bool
	policy   AdaptivePolicy
	ranges   int

	// Tuning.
	capacity int
	stripes  int
	buckets  int
	checked  bool

	// Observation: attach a usage recorder for the tuning advisor.
	record bool

	// Key typing (carried as any because options are not generic over the
	// object's key type; the constructor re-types it).
	hash any // func(K) uint64
}

// profiles recycles the profiles constructors plan from. Options are
// closures over a *profile, so a profile escapes to the heap; a program that
// builds one object per user would otherwise allocate one per object.
var profiles = sync.Pool{New: func() any { return new(profile) }}

// release zeroes p, so the pool keeps nothing a caller declared (registry,
// hash) reachable, and recycles it.
func (p *profile) release() {
	*p = profile{}
	profiles.Put(p)
}

// apply folds the options into a profile.
func (p *profile) apply(opts []Option) {
	for _, o := range opts {
		o(p)
	}
}

// mode resolves the declared access restriction to one of the five §4.2
// modes. Declaring both a single writer and a single reader is rejected:
// the paper's permission maps have no SWSR point (a single thread doing
// everything needs no shared object at all).
func (p *profile) mode(dt string) (Mode, error) {
	if p.singleWriter && p.singleReader {
		return 0, invalid(dt, "SingleWriter and SingleReader together name no §4.2 mode (SWSR is not a shared-object permission map)")
	}
	switch {
	case p.singleWriter:
		// A single writer trivially commutes with itself, so
		// CommutingWriters alongside SingleWriter is redundant, not wrong.
		return ModeSWMR, nil
	case p.singleReader && p.commuting:
		return ModeCWSR, nil
	case p.singleReader:
		return ModeMWSR, nil
	case p.commuting:
		return ModeCWMR, nil
	}
	return ModeAll, nil
}

// reg returns the declared registry, defaulting to the process-wide one.
func (p *profile) reg() *Registry {
	if p.registry != nil {
		return p.registry
	}
	return DefaultRegistry()
}

// capacityOr returns the declared capacity or def.
func (p *profile) capacityOr(def int) int {
	if p.capacity > 0 {
		return p.capacity
	}
	return def
}

// stripesOr returns the declared stripe count or def.
func (p *profile) stripesOr(def int) int {
	if p.stripes > 0 {
		return p.stripes
	}
	return def
}

// bucketsOr returns the declared directory bucket count or def.
func (p *profile) bucketsOr(def int) int {
	if p.buckets > 0 {
		return p.buckets
	}
	return def
}

// recorder makes the usage recorder a WithUsageRecording profile asked for,
// with evidence cells for keyCells distinct keys.
func (p *profile) recorder(keyCells int) *usage.Recorder {
	return usage.NewRecorderKeys(p.reg(), keyCells)
}

// keyed resolves what a keyed constructor needs beyond its declaration:
// the key hash when the planned row hashes keys, and, when the profile
// records, the recorder together with the hash it files written keys under.
func keyed[K comparable](dt string, p *profile, row *repRow) (hash func(K) uint64, rec *usage.Recorder, recHash func(K) uint64, err error) {
	if row.hashed {
		if hash, err = resolveHash[K](dt, p); err != nil {
			return nil, nil, nil, err
		}
	}
	if p.record {
		if recHash, err = recordHash[K](dt, p); err != nil {
			return nil, nil, nil, err
		}
		rec = p.recorder(usageKeyCells(p.capacityOr(1024)))
	}
	return hash, rec, recHash, nil
}

// ---------------------------------------------------------------------------
// Planning as data

// An optBit is one option whose applicability depends on the datatype.
type optBit uint16

const (
	optBlind optBit = 1 << iota
	optWriteOnce
	optCommuting
	optAdaptive
	optRanges
	optHash
	optCapacity
	optStripes
	optBuckets
)

// optionNames names the optBits, lowest first.
var optionNames = [...]string{"Blind", "WriteOnce", "CommutingWriters", "Adaptive", "Ranges", "WithHash", "Capacity", "Stripes", "Buckets"}

// The applicability table: the datatype-dependent options each datatype
// takes. Declaring any other makes the profile invalid. Only Map takes
// Adaptive: a counter, set or ordered map under the same declaration is
// served faster by the static adjusted representation its profile names.
const (
	counterTakes = optBlind | optCommuting | optCapacity
	setTakes     = optBlind | optCommuting | optHash | optCapacity | optStripes | optBuckets
	mapTakes     = setTakes | optAdaptive | optRanges
	orderedTakes = optBlind | optCommuting | optHash | optCapacity | optBuckets
	queueTakes   = optBit(0)
	refTakes     = optWriteOnce
)

// bit is b when on, else 0.
func bit[B ~uint8 | ~uint16](on bool, b B) B {
	if on {
		return b
	}
	return 0
}

// declared returns the datatype-dependent options the profile declares.
func (p *profile) declared() optBit {
	return bit(p.blind, optBlind) | bit(p.writeOnce, optWriteOnce) | bit(p.commuting, optCommuting) |
		bit(p.adaptive, optAdaptive) | bit(p.ranges > 0, optRanges) | bit(p.hash != nil, optHash) |
		bit(p.capacity > 0, optCapacity) | bit(p.stripes > 0, optStripes) | bit(p.buckets > 0, optBuckets)
}

// A modeSet is a set of §4.2 modes, one bit per Mode.
type modeSet uint8

const (
	inALL     modeSet = 1 << ModeAll
	inSWMR    modeSet = 1 << ModeSWMR
	inMWSR    modeSet = 1 << ModeMWSR
	inCWMR    modeSet = 1 << ModeCWMR
	inCWSR    modeSet = 1 << ModeCWSR
	commuting         = inCWMR | inCWSR
	anyMode           = inALL | inSWMR | inMWSR | commuting
)

// A need is a declaration a representation requires beyond its modes.
type need uint8

const (
	// needFlat is the flat gate: an integer-kinded key and an explicit
	// Capacity (the flat tables preallocate, so a declared capacity is
	// their construction contract), and none of what only node-based
	// representations honor — a caller-supplied hash (flat tables hash
	// through the integer-key codec) or stripe or bucket tuning.
	needFlat need = 1 << iota
	needBlind
	// needCells is preallocated counter cells: a declared Capacity.
	needCells
	// needWriteOnce is matched exactly: a row without it refuses a
	// WriteOnce profile.
	needWriteOnce
)

// needNames names the needs, lowest first.
var needNames = [...]string{"an integer key and Capacity without WithHash, Stripes or Buckets", "Blind", "Capacity", "WriteOnce"}

// meets returns the needs the profile satisfies; intKey reports an
// integer-kinded key type.
func (p *profile) meets(intKey bool) need {
	return bit(intKey && p.capacity > 0 && p.hash == nil && p.stripes == 0 && p.buckets == 0, needFlat) |
		bit(p.blind, needBlind) | bit(p.capacity > 0, needCells) | bit(p.writeOnce, needWriteOnce)
}

// A repRow is one representation a datatype may plan to: the modes whose
// contract it honors, what else the profile must declare, whether it
// carries a runtime permission guard (so Checked may be declared), whether
// it is the adaptive engine, and whether it hashes keys. Each datatype
// lists its rows most adjusted first; they are the only statement of a
// representation's modes, needs and guard.
type repRow struct {
	name     string
	modes    modeSet
	needs    need
	guarded  bool
	adaptive bool
	hashed   bool
}

// fits is the stage a profile reaches on a row whose every requirement it
// meets.
const fits = 4

// fit returns how far down the row's requirements — modes, adaptivity,
// needs, guard — the profile gets.
func (r *repRow) fit(p *profile, mode Mode, met need) int {
	switch {
	case r.modes&(1<<mode) == 0:
		return 0
	case r.adaptive != p.adaptive:
		return 1
	case r.needs&^met != 0 || (r.needs^met)&needWriteOnce != 0:
		return 2
	case p.checked && !r.guarded:
		return 3
	}
	return fits
}

// declare folds a datatype's options into a profile and plans it. (a) It
// rejects the options the datatype does not take. (b) It resolves the §4.2
// mode. (c) It names the Table 1 object from Blind, WriteOnce and the mode
// alone and certifies it against Definition 1 before any representation
// is considered. (d) It picks the first row the profile fits; when none
// does, the row that got furthest names the requirement that failed. The
// options are folded into a recycled profile, and the constructor gets a
// copy.
func declare(dt string, takes optBit, opts []Option, rows []repRow, intKey bool) (profile, Plan, *repRow, error) {
	p := profiles.Get().(*profile)
	defer p.release()
	p.apply(opts)
	plan, row, err := p.decide(dt, takes, rows, intKey)
	if err != nil {
		return profile{}, Plan{}, nil, err
	}
	return *p, plan, row, nil
}

// decide is declare's decision over a profile the options are folded into.
func (p *profile) decide(dt string, takes optBit, rows []repRow, intKey bool) (Plan, *repRow, error) {
	if extra := p.declared() &^ takes; extra != 0 {
		return Plan{}, nil, invalid(dt, "%s does not apply", optionNames[bits.TrailingZeros16(uint16(extra))])
	}
	mode, err := p.mode(dt)
	if err != nil {
		return Plan{}, nil, err
	}
	if dt == "Counter" && mode == ModeMWSR {
		// Counter writes (inc, add) commute by the datatype, so a declared
		// single reader is the full CWSR adjustment.
		mode = ModeCWSR
	}
	plan := Plan{Datatype: dt, Variant: variant(dt, p, mode), Mode: mode}
	if err := plan.validate(); err != nil {
		return Plan{}, nil, err
	}
	met := p.meets(intKey)
	best, reached := 0, -1
	for i := range rows {
		switch stage := rows[i].fit(p, mode, met); {
		case stage == fits:
			plan.Rep, plan.Adaptive = rows[i].name, rows[i].adaptive
			return plan, &rows[i], nil
		case stage > reached:
			best, reached = i, stage
		}
	}
	return Plan{}, nil, rows[best].misfit(dt, plan.Declared(), reached, met)
}

// misfit is the rejection of a profile that got no further than stage down
// this row's requirements, and no row further.
func (r *repRow) misfit(dt, declared string, stage int, met need) error {
	switch stage {
	case 0:
		return invalid(dt, "no representation serves %s", declared)
	case 1:
		// Static rows cover every mode an adaptive row does, so only an
		// Adaptive declaration stops here.
		return invalid(dt, "no adaptive representation serves %s", declared)
	case 2:
		if unmet := r.needs &^ met; unmet != 0 {
			return invalid(dt, "%s needs %s", r.name, needNames[bits.TrailingZeros8(uint8(unmet))])
		}
		return invalid(dt, "%s does not take WriteOnce", r.name)
	}
	return invalid(dt, "%s has no permission guard; drop Checked", r.name)
}

// variant names the Table 1 object a profile declares, from its narrowings
// and mode alone.
func variant(dt string, p *profile, mode Mode) string {
	switch dt {
	case "Counter":
		if p.blind {
			return "C3"
		}
		return "C2"
	case "Map", "Ordered":
		if p.blind || mode == ModeSWMR || mode.CommutingWrites() {
			return "M2"
		}
		return "M1"
	case "Set":
		if mode.CommutingWrites() {
			return "S3"
		}
		if p.blind || mode == ModeSWMR {
			return "S2"
		}
		return "S1"
	case "Queue":
		return "Q1"
	}
	if p.writeOnce {
		return "R2"
	}
	return "R1"
}

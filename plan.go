package dego

import (
	"fmt"
	"sync"

	"github.com/adjusted-objects/dego/internal/spec"
)

// Plan is the planner's decision for one declared profile: which Table 1
// object the profile names and which representation the library chose for
// it. Every object built by a profile constructor carries its Plan (the
// Plan method), so a program can audit why it got the representation it
// got — and the tests cross-check every plan against the executable
// Definition 1 in internal/spec.
type Plan struct {
	// Datatype is the profile constructor ("Counter", "Map", "Set",
	// "Ordered", "Queue", "Ref"). Ordered maps share Table 1's map rows:
	// the catalog narrows interfaces, and an ordered map narrows M1's
	// interface no differently than a hash map does.
	Datatype string
	// Variant is the declared Table 1 row ("C2", "M2", ...).
	Variant string
	// Mode is the declared access-permission mode.
	Mode Mode
	// Rep names the chosen representation ("SegmentedMap", "AtomicCounter",
	// ...; the package doc lists them all).
	Rep string
	// Adaptive reports whether the representation switches itself under
	// measured contention.
	Adaptive bool
	// Ranges is the hash-prefix range count of an adaptive map's directory
	// (1 = wholesale; every other keyed plan reports 1).
	Ranges int
}

// Declared renders the declared object like the paper's nodes: "(M2, CWMR)".
func (p Plan) Declared() string { return fmt.Sprintf("(%s, %s)", p.Variant, p.Mode) }

// String renders the whole decision, e.g. "Map (M2, CWMR) → SegmentedMap".
func (p Plan) String() string {
	s := fmt.Sprintf("%s %s → %s", p.Datatype, p.Declared(), p.Rep)
	if p.Adaptive {
		s += " (adaptive)"
	}
	return s
}

// validate cross-checks the plan against the executable catalog: the
// declared object must adjust its family's base per Definition 1
// (spec.Adjusts) before anything is constructed. The planner's own rules
// only propose objects that satisfy this, so a failure here is a planner
// bug surfacing — it is still reported as an invalid profile rather than
// silently building an uncertified object.
func (p Plan) validate() error {
	if err := spec.ValidateAdjustment(p.Variant, p.Mode); err != nil {
		return invalid(p.Datatype, "declared object %s is not a valid adjustment: %v", p.Declared(), err)
	}
	return nil
}

// plans interns every Plan a constructor has made, so objects point at a
// shared one. It stays small: one entry per distinct declaration a program
// makes (testdata/plans.golden lists the accepted ones), times the range
// counts its adaptive maps use.
var plans struct {
	sync.RWMutex
	m map[Plan]*Plan
}

// intern returns the shared copy of plan. Its caller fills in every field
// first: an interned Plan is never written.
func intern(plan Plan) *Plan {
	plans.RLock()
	p, ok := plans.m[plan]
	plans.RUnlock()
	if ok {
		return p
	}
	plans.Lock()
	defer plans.Unlock()
	if p, ok = plans.m[plan]; !ok {
		if plans.m == nil {
			plans.m = make(map[Plan]*Plan)
		}
		p = new(Plan)
		*p = plan
		plans.m[plan] = p
	}
	return p
}

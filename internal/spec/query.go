package spec

import (
	"fmt"
	"sync"

	"github.com/adjusted-objects/dego/internal/core"
)

// This file is the catalog's query surface. The profile planner in the
// public dego package maps a declared usage profile to a Table 1 object and
// asks, before constructing anything, whether that object is a valid
// adjustment (Definition 1) of its family's unadjusted base. The check is
// the same Adjusts used to certify the Figure 3 lattice — the declared
// object must be a narrow behavioural subtype of the base whose mode
// restricts ALL — so the runtime's representation choices are validated
// against the paper's theory, not against an ad-hoc table.

// catalogByLabel builds the Table 1 data type for a label. Types are built
// on demand and memoized: they are immutable once constructed.
var catalogByLabel = map[string]func() *DataType{
	"C1": func() *DataType { return Counter(C1) },
	"C2": func() *DataType { return Counter(C2) },
	"C3": func() *DataType { return Counter(C3) },
	"S1": func() *DataType { return Set(S1) },
	"S2": func() *DataType { return Set(S2) },
	"S3": func() *DataType { return Set(S3) },
	"Q1": func() *DataType { return Queue() },
	"R1": func() *DataType { return Ref(R1) },
	"R2": func() *DataType { return Ref(R2) },
	"M1": func() *DataType { return Map(M1) },
	"M2": func() *DataType { return Map(M2) },
}

// familyBase maps a Table 1 label to the label of its family's unadjusted
// base — the row every adjustment chain in Figure 3 starts from.
var familyBase = map[string]string{
	"C1": "C1", "C2": "C1", "C3": "C1",
	"S1": "S1", "S2": "S1", "S3": "S1",
	"Q1": "Q1",
	"R1": "R1", "R2": "R1",
	"M1": "M1", "M2": "M1",
}

var typeCache sync.Map // label -> *DataType

// CatalogType returns the Table 1 data type with the given label ("C1".."C3",
// "S1".."S3", "Q1", "R1".."R2", "M1".."M2"); ok is false for unknown labels.
func CatalogType(label string) (*DataType, bool) {
	if t, ok := typeCache.Load(label); ok {
		return t.(*DataType), true
	}
	build, ok := catalogByLabel[label]
	if !ok {
		return nil, false
	}
	t, _ := typeCache.LoadOrStore(label, build())
	return t.(*DataType), true
}

// FamilyBase returns the label of the unadjusted base of label's family;
// ok is false for unknown labels.
func FamilyBase(label string) (string, bool) {
	base, ok := familyBase[label]
	return base, ok
}

// adjustKey is one declared object ValidateAdjustment has checked.
type adjustKey struct {
	label string
	mode  core.Mode
}

// adjustCache holds ValidateAdjustment's results (a nil error included). A
// hit allocates nothing: the key is a struct, not a built string.
var adjustCache struct {
	sync.RWMutex
	m map[adjustKey]error
}

// ValidateAdjustment checks Definition 1 for the declared object
// (label, mode) against its family base at mode ALL, with the default
// check configuration. A nil error certifies that the declared object
// adjusts the base — i.e. a program written against the base stays correct
// when handed the declared object, which is what entitles the planner to
// substitute a scalable representation. Results are cached: the subtype
// check enumerates reachable states, and construction sites may be hot.
func ValidateAdjustment(label string, mode core.Mode) error {
	key := adjustKey{label, mode}
	adjustCache.RLock()
	err, ok := adjustCache.m[key]
	adjustCache.RUnlock()
	if ok {
		return err
	}
	err = validateAdjustment(label, mode)
	adjustCache.Lock()
	if adjustCache.m == nil {
		adjustCache.m = make(map[adjustKey]error)
	}
	adjustCache.m[key] = err
	adjustCache.Unlock()
	return err
}

func validateAdjustment(label string, mode core.Mode) error {
	declared, ok := CatalogType(label)
	if !ok {
		return fmt.Errorf("spec: unknown catalog label %q", label)
	}
	baseLabel, _ := FamilyBase(label)
	base, _ := CatalogType(baseLabel)
	if !mode.Valid() {
		return fmt.Errorf("spec: invalid mode %v", mode)
	}
	return Adjusts(
		Object{Type: declared, Mode: mode},
		Object{Type: base, Mode: core.ModeAll},
		DefaultCheckConfig(),
	)
}

package dego

import (
	"errors"
	"strings"
	"testing"

	"github.com/adjusted-objects/dego/internal/core"
	"github.com/adjusted-objects/dego/internal/spec"
)

// These tests sweep the construction matrix — every datatype × access
// declaration × narrowing × adaptivity — and hold the planner to its two
// promises: every combination either builds or fails with a typed
// ErrInvalidProfile, and every plan it does make is certified by the
// executable Definition 1 (spec.Adjusts) on the Table 1 objects.

// modeDecl is one access-restriction declaration of the matrix.
type modeDecl struct {
	name string
	opts []Option
}

var modeDecls = []modeDecl{
	{"none", nil},
	{"SW", []Option{SingleWriter()}},
	{"SR", []Option{SingleReader()}},
	{"CW", []Option{CommutingWriters()}},
	{"SW+SR", []Option{SingleWriter(), SingleReader()}},
	{"SW+CW", []Option{SingleWriter(), CommutingWriters()}},
	{"SR+CW", []Option{SingleReader(), CommutingWriters()}},
}

// narrowDecl is one interface-narrowing declaration of the matrix.
type narrowDecl struct {
	name string
	opts []Option
}

var narrowDecls = []narrowDecl{
	{"plain", nil},
	{"blind", []Option{Blind()}},
	{"writeonce", []Option{WriteOnce()}},
}

// builders runs each profile constructor with int-shaped type arguments and
// returns the plan (or the construction error).
var builders = map[string]func(opts ...Option) (Plan, error){
	"Counter": func(opts ...Option) (Plan, error) {
		c, err := Counter(opts...)
		if err != nil {
			return Plan{}, err
		}
		return c.Plan(), nil
	},
	"Map": func(opts ...Option) (Plan, error) {
		m, err := Map[int, int](opts...)
		if err != nil {
			return Plan{}, err
		}
		return m.Plan(), nil
	},
	"Set": func(opts ...Option) (Plan, error) {
		s, err := Set[int](opts...)
		if err != nil {
			return Plan{}, err
		}
		return s.Plan(), nil
	},
	"Ordered": func(opts ...Option) (Plan, error) {
		o, err := Ordered[int, int](opts...)
		if err != nil {
			return Plan{}, err
		}
		return o.Plan(), nil
	},
	"Queue": func(opts ...Option) (Plan, error) {
		q, err := Queue[int](opts...)
		if err != nil {
			return Plan{}, err
		}
		return q.Plan(), nil
	},
	"Ref": func(opts ...Option) (Plan, error) {
		r, err := Ref[int](nil, opts...)
		if err != nil {
			return Plan{}, err
		}
		return r.Plan(), nil
	},
}

// TestConstructionMatrix sweeps every datatype × mode × narrowing ×
// adaptivity combination: each either builds, with the declared object
// certified against the family base by spec.Adjusts (Definition 1), or
// fails with an error wrapping ErrInvalidProfile that names the datatype.
func TestConstructionMatrix(t *testing.T) {
	for dt, build := range builders {
		for _, md := range modeDecls {
			for _, nd := range narrowDecls {
				for _, adaptive := range []bool{false, true} {
					name := dt + "/" + md.name + "/" + nd.name
					opts := append(append([]Option{}, md.opts...), nd.opts...)
					if adaptive {
						name += "/adaptive"
						opts = append(opts, Adaptive())
					}
					t.Run(name, func(t *testing.T) {
						plan, err := build(opts...)
						if err != nil {
							var perr *InvalidProfileError
							if !errors.Is(err, ErrInvalidProfile) || !errors.As(err, &perr) {
								t.Fatalf("rejection is not a typed ErrInvalidProfile: %v", err)
							}
							if perr.Datatype != dt {
								t.Fatalf("rejection names datatype %q, want %q (%v)", perr.Datatype, dt, err)
							}
							return
						}
						crossCheckPlan(t, plan)
					})
				}
			}
		}
	}
}

// crossCheckPlan re-derives the planner's certification independently: the
// declared Table 1 object (plan.Variant at plan.Mode) must adjust its
// family's base at ALL, per the same spec.Adjusts that certifies the
// Figure 3 lattice.
func crossCheckPlan(t *testing.T, plan Plan) {
	t.Helper()
	declared, ok := spec.CatalogType(plan.Variant)
	if !ok {
		t.Fatalf("plan %v declares unknown catalog variant %q", plan, plan.Variant)
	}
	baseLabel, ok := spec.FamilyBase(plan.Variant)
	if !ok {
		t.Fatalf("variant %q has no family base", plan.Variant)
	}
	base, _ := spec.CatalogType(baseLabel)
	err := spec.Adjusts(
		spec.Object{Type: declared, Mode: plan.Mode},
		spec.Object{Type: base, Mode: core.ModeAll},
		spec.DefaultCheckConfig(),
	)
	if err != nil {
		t.Fatalf("plan %v is not certified by Definition 1: %v", plan, err)
	}
}

// TestPlannerDecisions pins the representation the planner picks for the
// load-bearing cells of the matrix (the paper's Table 1 / Figure 3 nodes).
func TestPlannerDecisions(t *testing.T) {
	cases := []struct {
		dt       string
		opts     []Option
		declared string // "" = expect ErrInvalidProfile
		rep      string // the planned representation, or text the rejection must contain
	}{
		// Counter: Blind is the C2→C3 step; SingleReader completes CWSR.
		{"Counter", nil, "(C2, ALL)", "AtomicCounter"},
		{"Counter", []Option{Blind()}, "(C3, ALL)", "Adder"},
		{"Counter", []Option{Blind(), CommutingWriters()}, "(C3, CWMR)", "Adder"},
		{"Counter", []Option{Blind(), SingleReader()}, "(C3, CWSR)", "IncrementOnlyCounter"},
		{"Counter", []Option{Blind(), SingleReader(), CommutingWriters()}, "(C3, CWSR)", "IncrementOnlyCounter"},
		{"Counter", []Option{Blind(), SingleWriter()}, "(C3, SWMR)", "AtomicCounter"},
		// Only Map takes Adaptive: the same declaration plans the static
		// row, which is faster in every measured cell.
		{"Counter", []Option{Blind(), SingleReader(), Adaptive()}, "", "Adaptive does not apply"},
		{"Counter", []Option{Adaptive()}, "", "Adaptive does not apply"},
		{"Counter", []Option{SingleWriter(), SingleReader()}, "", ""},
		{"Counter", []Option{WriteOnce()}, "", ""},
		{"Counter", []Option{Blind(), SingleReader(), Adaptive(Ranges(4))}, "", "Adaptive does not apply"},
		// The flat counter: blind + commuting + a declared cell capacity.
		// Without CommutingWriters the same capacity keeps the Adder.
		{"Counter", []Option{Blind(), CommutingWriters(), Capacity(8)}, "(C3, CWMR)", "FlatCounter"},
		{"Counter", []Option{Blind(), Capacity(8)}, "(C3, ALL)", "Adder"},

		// Map: the (M2, CWMR) node is the extended segmentation.
		{"Map", nil, "(M1, ALL)", "StripedMap"},
		{"Map", []Option{SingleWriter()}, "(M2, SWMR)", "SWMRMap"},
		{"Map", []Option{CommutingWriters()}, "(M2, CWMR)", "SegmentedMap"},
		{"Map", []Option{CommutingWriters(), Adaptive()}, "(M2, CWMR)", "AdaptiveMap"},
		// CWSR is a stronger restriction than the segmentation's CWMR
		// contract requires, so the truthful declaration still builds.
		{"Map", []Option{CommutingWriters(), SingleReader()}, "(M2, CWSR)", "SegmentedMap"},
		{"Map", []Option{CommutingWriters(), SingleReader(), Adaptive()}, "(M2, CWSR)", "AdaptiveMap"},
		{"Map", []Option{SingleReader()}, "", ""},
		{"Map", []Option{Adaptive()}, "", ""},
		{"Map", []Option{SingleWriter(), Adaptive()}, "", ""},
		// The flat family: an integer key type plus a declared Capacity
		// gates preallocated open addressing. Any node-only tuning
		// (Stripes, Buckets, WithHash, Adaptive) keeps the
		// node-based pick, so no existing profile changes representation
		// by accident.
		{"Map", []Option{Capacity(1024)}, "(M1, ALL)", "FlatMap"},
		{"Map", []Option{Blind(), Capacity(1024)}, "(M2, ALL)", "FlatMap"},
		{"Map", []Option{CommutingWriters(), Capacity(1024)}, "(M2, CWMR)", "FlatMap"},
		{"Map", []Option{CommutingWriters(), SingleReader(), Capacity(1024)}, "(M2, CWSR)", "FlatMap"},
		{"Map", []Option{SingleWriter(), Capacity(1024)}, "(M2, SWMR)", "FlatSWMRMap"},
		{"Map", []Option{SingleWriter(), Checked(), Capacity(1024)}, "(M2, SWMR)", "FlatSWMRMap"},
		{"Map", []Option{CommutingWriters(), Capacity(1024), Buckets(2048)}, "(M2, CWMR)", "SegmentedMap"},
		{"Map", []Option{Capacity(1024), Stripes(64)}, "(M1, ALL)", "StripedMap"},
		{"Map", []Option{CommutingWriters(), Capacity(1024), WithHash(func(k int) uint64 { return uint64(k) })}, "(M2, CWMR)", "SegmentedMap"},
		{"Map", []Option{CommutingWriters(), Adaptive(), Capacity(1024)}, "(M2, CWMR)", "AdaptiveMap"},

		// Set: the (S3, CWMR) node of Figure 3.
		{"Set", nil, "(S1, ALL)", "StripedSet"},
		{"Set", []Option{Blind()}, "(S2, ALL)", "StripedSet"},
		{"Set", []Option{SingleWriter()}, "(S2, SWMR)", "SWMRSet"},
		{"Set", []Option{CommutingWriters()}, "(S3, CWMR)", "SegmentedSet"},
		{"Set", []Option{CommutingWriters(), Adaptive()}, "", "Adaptive does not apply"},
		{"Set", []Option{CommutingWriters(), Adaptive(Ranges(4))}, "", "Adaptive does not apply"},
		{"Set", []Option{CommutingWriters(), SingleReader()}, "(S3, CWSR)", "SegmentedSet"},
		{"Set", []Option{SingleReader()}, "", ""},
		// Flat set rows mirror the flat map gate.
		{"Set", []Option{Capacity(512)}, "(S1, ALL)", "FlatSet"},
		{"Set", []Option{CommutingWriters(), Capacity(512)}, "(S3, CWMR)", "FlatSet"},
		{"Set", []Option{SingleWriter(), Capacity(512)}, "(S2, SWMR)", "FlatSWMRSet"},
		{"Set", []Option{CommutingWriters(), Capacity(512), Stripes(64)}, "(S3, CWMR)", "SegmentedSet"},

		// Ordered shares the M rows; representations keep iteration sorted.
		{"Ordered", nil, "(M1, ALL)", "ConcurrentSkipList"},
		{"Ordered", []Option{SingleWriter()}, "(M2, SWMR)", "SWMRSkipList"},
		{"Ordered", []Option{CommutingWriters()}, "(M2, CWMR)", "SegmentedSkipList"},
		{"Ordered", []Option{CommutingWriters(), Adaptive()}, "", "Adaptive does not apply"},
		{"Ordered", []Option{CommutingWriters(), SingleReader()}, "(M2, CWSR)", "SegmentedSkipList"},
		{"Ordered", []Option{SingleReader()}, "", ""},

		// Queue: the (Q1, MWSR) node is the paper's QueueMASP.
		{"Queue", nil, "(Q1, ALL)", "MSQueue"},
		{"Queue", []Option{SingleReader()}, "(Q1, MWSR)", "MPSCQueue"},
		{"Queue", []Option{SingleWriter()}, "", ""},
		{"Queue", []Option{CommutingWriters()}, "", ""},
		// Q1 has no blind narrowing (Ref rejects Blind for the same reason).
		{"Queue", []Option{Blind()}, "", ""},

		// Ref: R2 is the write-once diamond of Figure 3.
		{"Ref", nil, "(R1, ALL)", "AtomicRef"},
		{"Ref", []Option{SingleWriter()}, "(R1, SWMR)", "RCUBox"},
		{"Ref", []Option{WriteOnce()}, "(R2, ALL)", "WriteOnceRef"},
		{"Ref", []Option{WriteOnce(), SingleWriter()}, "(R2, SWMR)", "WriteOnceRef"},
		{"Ref", []Option{CommutingWriters()}, "", ""},
		{"Ref", []Option{SingleReader()}, "", ""},
		{"Ref", []Option{Blind()}, "", ""},
	}
	for _, tc := range cases {
		plan, err := builders[tc.dt](tc.opts...)
		if tc.declared == "" {
			if err == nil {
				t.Errorf("%s %v: built %v, want ErrInvalidProfile", tc.dt, optNames(tc.opts), plan)
			} else if !errors.Is(err, ErrInvalidProfile) {
				t.Errorf("%s: error %v does not wrap ErrInvalidProfile", tc.dt, err)
			} else if !strings.Contains(err.Error(), tc.rep) {
				t.Errorf("%s %v: rejected with %q, want it to say %q", tc.dt, optNames(tc.opts), err, tc.rep)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s %s: unexpected rejection: %v", tc.dt, tc.declared, err)
			continue
		}
		if plan.Declared() != tc.declared || plan.Rep != tc.rep {
			t.Errorf("%s: planned %s → %s, want %s → %s",
				tc.dt, plan.Declared(), plan.Rep, tc.declared, tc.rep)
		}
		crossCheckPlan(t, plan)
	}
}

func optNames(opts []Option) string {
	return "<" + strings.Repeat("opt ", len(opts)) + ">"
}

// TestDefaultHashers: built-in integer and string key types construct keyed
// objects without WithHash; other key types fail with a typed error naming
// WithHash instead of panicking on a nil hash function.
func TestDefaultHashers(t *testing.T) {
	h := MustRegister()
	defer h.Release()

	ms := Must(Map[string, int](CommutingWriters()))
	ms.Put(h, "k", 1)
	if v, ok := ms.Get("k"); !ok || v != 1 {
		t.Fatal("string-keyed map broken")
	}
	mi := Must(Map[int, int](CommutingWriters()))
	mi.Put(h, 7, 7)
	if !mi.Contains(7) {
		t.Fatal("int-keyed map broken")
	}
	if _, err := Map[uint64, int](CommutingWriters()); err != nil {
		t.Fatalf("uint64 keys should hash by default: %v", err)
	}
	if _, err := Set[uint32](CommutingWriters()); err != nil {
		t.Fatalf("uint32 keys should hash by default: %v", err)
	}
	if _, err := Ordered[int64, int](CommutingWriters()); err != nil {
		t.Fatalf("int64 keys should hash by default: %v", err)
	}

	// A named key type has no default hasher: typed rejection, not a panic.
	type userID uint64
	_, err := Map[userID, int](CommutingWriters())
	if !errors.Is(err, ErrInvalidProfile) {
		t.Fatalf("named key type without WithHash: err = %v, want ErrInvalidProfile", err)
	}
	if !strings.Contains(err.Error(), "WithHash") {
		t.Fatalf("rejection should point at WithHash: %v", err)
	}
	// With an explicit hash it builds.
	mu := Must(Map[userID, int](CommutingWriters(),
		WithHash(func(u userID) uint64 { return Hash64(uint64(u)) })))
	mu.Put(h, userID(9), 9)
	if !mu.Contains(userID(9)) {
		t.Fatal("WithHash-keyed map broken")
	}
	// A mismatched WithHash type is a typed rejection too.
	_, err = Map[string, int](CommutingWriters(), WithHash(HashInt))
	if !errors.Is(err, ErrInvalidProfile) {
		t.Fatalf("mismatched WithHash: err = %v, want ErrInvalidProfile", err)
	}
	// And so is an explicit nil hash function — the typed-nil must not
	// slip past the guard and panic on first use.
	_, err = Map[userID, int](CommutingWriters(), WithHash[userID](nil))
	if !errors.Is(err, ErrInvalidProfile) {
		t.Fatalf("nil WithHash: err = %v, want ErrInvalidProfile", err)
	}
}

// TestAdaptiveGranularity: Ranges splits the adaptive map into hash-prefix
// ranges, and no other datatype takes it.
func TestAdaptiveGranularity(t *testing.T) {
	m := Must(Map[int, int](CommutingWriters(), Adaptive(Ranges(8))))
	if m.Plan().Ranges != m.Adaptive().Ranges() || m.Plan().Ranges != 8 {
		t.Fatalf("Ranges(8): plan=%d rep=%d", m.Plan().Ranges, m.Adaptive().Ranges())
	}

	for name, err := range map[string]error{
		"ranges on set":     second(Set[int](CommutingWriters(), Adaptive(Ranges(4)))),
		"ranges on ordered": second(Ordered[int, int](CommutingWriters(), Adaptive(Ranges(4)))),
	} {
		if !errors.Is(err, ErrInvalidProfile) {
			t.Errorf("%s: err = %v, want ErrInvalidProfile", name, err)
		}
	}
}

// TestCheckedRequiresGuard: Checked is valid exactly when the planned
// representation carries a runtime permission guard.
func TestCheckedRequiresGuard(t *testing.T) {
	// Guarded representations accept Checked.
	for name, err := range map[string]error{
		"CWSR counter": second(Counter(Blind(), SingleReader(), Checked())),
		"SWMR map":     second(Map[int, int](SingleWriter(), Checked())),
		"CWMR map":     second(Map[int, int](CommutingWriters(), Checked())),
		"MWSR queue":   second(Queue[int](SingleReader(), Checked())),
		"SWMR ref":     second(Ref[int](nil, SingleWriter(), Checked())),
	} {
		if err != nil {
			t.Errorf("%s: Checked rejected: %v", name, err)
		}
	}
	// Unguarded baselines reject it.
	for name, err := range map[string]error{
		"striped map":    second(Map[int, int](Checked())),
		"MS queue":       second(Queue[int](Checked())),
		"atomic counter": second(Counter(Checked())),
		"lock-free list": second(Ordered[int, int](Checked())),
		"adaptive map":   second(Map[int, int](CommutingWriters(), Adaptive(), Checked())),
	} {
		if !errors.Is(err, ErrInvalidProfile) {
			t.Errorf("%s: err = %v, want ErrInvalidProfile", name, err)
		}
	}
}

// second drops a constructor's object and keeps its error.
func second[T any](_ T, err error) error { return err }

// TestWriteOnceStartsUnset: the R2 precondition is enforced at construction.
func TestWriteOnceStartsUnset(t *testing.T) {
	v := 1
	if err := second(Ref(&v, WriteOnce())); !errors.Is(err, ErrInvalidProfile) {
		t.Fatalf("WriteOnce with initial value: err = %v, want ErrInvalidProfile", err)
	}
}

// TestPlanStrings pins the rendering the docs show.
func TestPlanStrings(t *testing.T) {
	m := Must(Map[string, int](CommutingWriters()))
	if got, want := m.Plan().String(), "Map (M2, CWMR) → SegmentedMap"; got != want {
		t.Errorf("Plan.String() = %q, want %q", got, want)
	}
	a := Must(Map[string, int](CommutingWriters(), Adaptive()))
	if got, want := a.Plan().String(), "Map (M2, CWMR) → AdaptiveMap (adaptive)"; got != want {
		t.Errorf("adaptive Plan.String() = %q, want %q", got, want)
	}
}

// TestValidateAdjustmentRejects: the catalog query surface itself rejects
// non-adjustments, so the planner's certification is not vacuous.
func TestValidateAdjustmentRejects(t *testing.T) {
	// C1 adjusts C1 trivially; but a C1 declared against the S family base
	// is unknown, and an unknown label errors.
	if err := spec.ValidateAdjustment("C9", ModeAll); err == nil {
		t.Error("unknown label certified")
	}
	// Widening is not adjusting: C1 at ALL against its own base passes,
	// but the reverse narrowing check inside Adjusts must fail when the
	// declared type is the base and the "base" is narrower. Exercised via
	// the library's own lattice instead: every Figure 3 edge verifies.
	if err := spec.Figure3().Verify(spec.DefaultCheckConfig()); err != nil {
		t.Errorf("Figure 3 lattice failed verification: %v", err)
	}
}

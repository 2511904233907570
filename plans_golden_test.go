package dego

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

// updatePlans rewrites testdata/plans.golden from the current planner:
// go test -run TestPlanGolden -update-plans .
var updatePlans = flag.Bool("update-plans", false, "rewrite testdata/plans.golden")

// planGoldenFile holds every accepted cell of the declaration matrix with
// the plan it got. Rejected cells are absent, so a planner change that
// accepts or rejects one more cell shows up as an added or removed line.
const planGoldenFile = "testdata/plans.golden"

// eachDeclaration calls f with every cell of builders × modeDecls ×
// narrowDecls × adaptivity × Checked × Capacity × one tuning option, in one
// fixed order, and returns the number of cells.
func eachDeclaration(f func(dt, name string, opts []Option)) int {
	type decl struct {
		name string
		opts []Option
	}
	adaptivity := []decl{{"static", nil}, {"adaptive", []Option{Adaptive()}}, {"adaptive-ranges4", []Option{Adaptive(Ranges(4))}}}
	checked := []decl{{"unchecked", nil}, {"checked", []Option{Checked()}}}
	capacity := []decl{{"nocap", nil}, {"cap64", []Option{Capacity(64)}}}
	tuning := []decl{
		{"none", nil},
		{"stripes16", []Option{Stripes(16)}},
		{"buckets32", []Option{Buckets(32)}},
		{"hash", []Option{WithHash(HashInt)}},
		{"recorded", []Option{WithUsageRecording()}},
	}
	dts := make([]string, 0, len(builders))
	for dt := range builders {
		dts = append(dts, dt)
	}
	sort.Strings(dts)

	cells := 0
	for _, dt := range dts {
		for _, md := range modeDecls {
			for _, nd := range narrowDecls {
				for _, ad := range adaptivity {
					for _, ck := range checked {
						for _, cp := range capacity {
							for _, tn := range tuning {
								cells++
								var opts []Option
								for _, d := range [][]Option{md.opts, nd.opts, ad.opts, ck.opts, cp.opts, tn.opts} {
									opts = append(opts, d...)
								}
								f(dt, strings.Join([]string{dt, md.name, nd.name, ad.name, ck.name, cp.name, tn.name}, "/"), opts)
							}
						}
					}
				}
			}
		}
	}
	return cells
}

// TestPlanGolden builds every cell of the declaration matrix
// (eachDeclaration) and compares the accepted ones, line by line, against
// the golden file.
func TestPlanGolden(t *testing.T) {
	var got []string
	cells := eachDeclaration(func(dt, name string, opts []Option) {
		if plan, err := builders[dt](opts...); err == nil {
			got = append(got, fmt.Sprintf("%s: %s ranges=%d", name, plan, plan.Ranges))
		}
	})
	if cells != 7560 {
		t.Fatalf("matrix has %d cells, want 7560", cells)
	}
	text := strings.Join(got, "\n") + "\n"
	if *updatePlans {
		if err := os.WriteFile(planGoldenFile, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(planGoldenFile)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-plans)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	diffLines(t, want, got)
}

// TestPlanMemo plans every cell of the declaration matrix cold, with every
// datatype's memo emptied, then warm, and once more. An accepted cell must
// get one interned *Plan all three times; a static one must leave exactly
// one decision in the memo and an adaptive one none, so a warm static
// declaration is served from the memo. A rejected cell must fail with the
// same text every time and memoise nothing.
func TestPlanMemo(t *testing.T) {
	defer forgetDecisions()
	accepted := 0
	eachDeclaration(func(dt, name string, opts []Option) {
		forgetDecisions()
		cold, coldErr := builders[dt](opts...)
		memoised := decisions()
		for i := 0; i < 2; i++ {
			warm, err := builders[dt](opts...)
			switch {
			case (err == nil) != (coldErr == nil):
				t.Errorf("%s: cold error %v, warm error %v", name, coldErr, err)
			case err != nil && err.Error() != coldErr.Error():
				t.Errorf("%s: cold rejection %q, warm %q", name, coldErr, err)
			case err == nil && (warm != cold || *warm != *cold):
				t.Errorf("%s: cold plan %p %v, warm %p %v", name, cold, cold, warm, warm)
			}
		}
		want := 0
		if coldErr == nil {
			accepted++
			if !cold.Adaptive {
				want = 1
			}
		}
		if memoised != want || decisions() != want {
			t.Errorf("%s (error %v): %d decisions memoised cold, %d warm, want %d", name, coldErr, memoised, decisions(), want)
		}
	})
	if accepted == 0 {
		t.Fatal("no cell of the matrix was accepted")
	}
}

// datatypes lists every constructor's planning data.
var datatypes = []*datatype{&counterType, &mapType, &setType, &orderedType, &queueType, &refType}

// forgetDecisions empties every datatype's memo.
func forgetDecisions() {
	for _, dt := range datatypes {
		for i := range dt.memo {
			dt.memo[i].Store(nil)
		}
	}
}

// decisions counts the decisions memoised over every datatype.
func decisions() int {
	n := 0
	for _, dt := range datatypes {
		for i := range dt.memo {
			if dt.memo[i].Load() != nil {
				n++
			}
		}
	}
	return n
}

// diffLines reports every line only one side has; both sides are in the
// matrix's iteration order.
func diffLines(t *testing.T, want, got []string) {
	t.Helper()
	inWant := make(map[string]bool, len(want))
	for _, l := range want {
		inWant[l] = true
	}
	inGot := make(map[string]bool, len(got))
	for _, l := range got {
		inGot[l] = true
		if !inWant[l] {
			t.Errorf("+ %s", l)
		}
	}
	for _, l := range want {
		if !inGot[l] {
			t.Errorf("- %s", l)
		}
	}
	if !t.Failed() && strings.Join(want, "\n") != strings.Join(got, "\n") {
		t.Errorf("same %d lines in a different order", len(got))
	}
}

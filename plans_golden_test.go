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

// TestPlanGolden builds every cell of builders × modeDecls × narrowDecls ×
// adaptivity × Checked × Capacity × one tuning option and compares the
// accepted ones, line by line, against the golden file.
func TestPlanGolden(t *testing.T) {
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

	var got []string
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
								plan, err := builders[dt](opts...)
								if err != nil {
									continue
								}
								got = append(got, fmt.Sprintf("%s/%s/%s/%s/%s/%s/%s: %s ranges=%d",
									dt, md.name, nd.name, ad.name, ck.name, cp.name, tn.name,
									plan, plan.Ranges))
							}
						}
					}
				}
			}
		}
	}
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

package main

import (
	"strings"
	"testing"
)

// TestRunEveryMode renders each of the command's outputs: Figure 2 as text
// and as DOT, Figure 3 with its Definition 1 verification, Table 1, one
// type's analysis, and the default of all three.
func TestRunEveryMode(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-fig", "2"}, "=== Figure 2"},
		{[]string{"-fig", "2", "-dot"}, `graph "Counter" {`},
		{[]string{"-fig", "3"}, "verifying Definition 1 on every edge and path... OK"},
		// The blind counter is permissive and has consensus number 1
		// (Theorem 1): its Table 1 row of computed properties.
		{[]string{"-table", "1"}, "C3   ops=[inc get reset rmw] readable=true permissive=true CN=1\n"},
		{[]string{"-analyze", "C3"}, "=== Analysis of C3 ==="},
		{nil, "=== Table 1: adjusted data types ==="},
	} {
		var out strings.Builder
		if err := run(tc.args, &out); err != nil {
			t.Fatalf("run %v: %v", tc.args, err)
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("run %v: output lacks %q:\n%s", tc.args, tc.want, out.String())
		}
	}
}

func TestRunRejectsUnknownType(t *testing.T) {
	if err := run([]string{"-analyze", "X9"}, &strings.Builder{}); err == nil {
		t.Fatal("unknown data type accepted")
	}
}

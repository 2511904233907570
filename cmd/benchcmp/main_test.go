package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// checkout writes a NEW checkout holding only BENCHMARK.json: one
// workload, run for 3 s, and the end-to-end metrics given as name:better.
func checkout(t *testing.T, metrics ...string) string {
	t.Helper()
	var e2e []string
	for _, m := range metrics {
		name, better, _ := strings.Cut(m, ":")
		e2e = append(e2e, fmt.Sprintf(`{"name": %q, "unit": "x", "better": %q, "bound": 0.25}`, name, better))
	}
	dir := t.TempDir()
	blob := `{"run_seconds": 3, "workloads": [{"name": "w", "why": "-"}], "end_to_end": [` + strings.Join(e2e, ", ") + `]}`
	if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// fake stands in for bash and go: it records every run and answers with a
// transcript whose result line holds each metric value(side, seed).
type fake struct {
	calls    []string
	failed   [2]int64
	newDir   string
	value    map[string]func(side, seed int) float64
	counters map[string]func(side, run int) float64 // per-layer counts of the traced runs
}

func (f *fake) exec(dir string, argv ...string) ([]byte, error) {
	side := 0
	if dir == f.newDir {
		side = 1
	}
	seed, _ := strconv.Atoi(argv[slices.Index(argv, "--seed")+1])
	f.calls = append(f.calls, fmt.Sprintf("%s seed=%d %s", [2]string{"OLD", "NEW"}[side], seed, strings.Join(argv[len(argv)-4:], " ")))
	var ms []string
	for name, v := range f.value {
		ms = append(ms, fmt.Sprintf(`%q: {"value": %g, "unit": "x"}`, name, v(side, seed)))
	}
	if argv[len(argv)-1] == "1" {
		for name, v := range f.counters {
			ms = append(ms, fmt.Sprintf(`%q: {"value": %g, "unit": "count"}`, name, v(side, len(f.calls))))
		}
	}
	return fmt.Appendf(nil, "workload=w seed=%d\nops_per_s   1.0000 1/s\n"+
		`{"correct": true, "attempted": 100, "failed": %d, "metrics": {%s}}`+"\n",
		seed, f.failed[side], strings.Join(ms, ", ")), nil
}

func constant(v float64) func(int, int) float64 { return func(int, int) float64 { return v } }

func TestPairsAlternateAndSeedEachPair(t *testing.T) {
	f := &fake{newDir: checkout(t, "ops_per_s:higher"), value: map[string]func(int, int) float64{"ops_per_s": constant(1)}}
	var out strings.Builder
	if err := run([]string{"-pairs", "3", "-seed", "7", "old", f.newDir}, &out, f.exec); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"OLD seed=7 --seconds 3 --trace 0", "NEW seed=7 --seconds 3 --trace 0",
		"NEW seed=8 --seconds 3 --trace 0", "OLD seed=8 --seconds 3 --trace 0",
		"OLD seed=9 --seconds 3 --trace 0", "NEW seed=9 --seconds 3 --trace 0",
		"OLD seed=7 --seconds 3 --trace 1", "NEW seed=7 --seconds 3 --trace 1",
		"NEW seed=7 --seconds 3 --trace 1", "OLD seed=7 --seconds 3 --trace 1",
	}
	if !slices.Equal(f.calls, want) {
		t.Fatalf("runs:\n%s\nwant:\n%s", strings.Join(f.calls, "\n"), strings.Join(want, "\n"))
	}
	if !strings.Contains(out.String(), "per-layer counts that differ (traced twice a side, seed 7): none\n") {
		t.Fatalf("report:\n%s", out.String())
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 4, 2}, [3]float64{1.25, 3, 4.75}},
		{[]float64{10, 40}, [3]float64{2.5, 25, 47.5}},
		{[]float64{6}, [3]float64{6, 6, 6}},
	} {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestVerdicts runs ten pairs of five metrics whose better direction comes
// from BENCHMARK.json, one for each verdict.
func TestVerdicts(t *testing.T) {
	f := &fake{
		newDir: checkout(t, "up:higher", "slower:lower", "faster:lower", "noisy:lower", "flat:higher"),
		value: map[string]func(int, int) float64{
			"up":     func(side, seed int) float64 { return 100 + float64(seed%3) + 20*float64(side) },
			"slower": func(side, seed int) float64 { return 100 + float64(seed%3) + 40*float64(side) },
			"faster": func(side, seed int) float64 { return 100 + float64(seed%3) - 20*float64(side) },
			"noisy":  func(side, seed int) float64 { return 50 + 100*float64(seed%2) },
			"flat":   constant(100),
		},
	}
	var out strings.Builder
	if err := run([]string{"old", f.newDir}, &out, f.exec); err != nil {
		t.Fatal(err)
	}
	for metric, want := range map[string]string{
		"up": "10/10 gain", "slower": "0/10 worse", "faster": "10/10 gain", "noisy": "0/10 unresolved", "flat": "0/10 level",
	} {
		f := strings.Fields(rowOf(out.String(), metric))
		if got := strings.Join(f[max(len(f)-2, 0):], " "); got != want {
			t.Errorf("%s: wins and verdict %q, want %q in\n%s", metric, got, want, out.String())
		}
	}
}

// rowOf returns the report line of one metric.
func rowOf(report, metric string) string {
	for _, line := range strings.Split(report, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), metric+" ") {
			return line
		}
	}
	return ""
}

func TestCompareRules(t *testing.T) {
	old := []float64{100, 101, 102, 100, 101, 102, 100, 101, 102, 100}
	up := []float64{120, 121, 122, 120, 121, 122, 120, 121, 122, 120}
	for _, c := range []struct {
		name     string
		old, new []float64
		higher   bool
		bound    float64
		want     string
	}{
		{"a -bench loss needs no bound", up, old, true, 0, "worse"},
		{"a -bench change short of 9 in 10", old, append(slices.Clone(up[:8]), 90, 90), true, 0, "level"},
		{"fewer than ten pairs gain nothing", old[:9], up[:9], true, 0.25, "level"},
		{"a gain needs a gap wider than the IQR", []float64{1, 10, 1, 10, 1, 10, 1, 10, 1, 10}, []float64{2, 11, 2, 11, 2, 11, 2, 11, 2, 11}, true, 0, "level"},
		{"within the bound is level", up, old, true, 0.25, "level"},
		{"a wide spread beaten by every run is level", []float64{10, 50, 10, 50}, []float64{60, 70, 60, 70}, true, 0.25, "level"},
	} {
		if _, got := compare(c.old, c.new, c.higher, c.bound); got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, got, c.want)
		}
	}
}

func TestFailedShareCompared(t *testing.T) {
	f := &fake{newDir: checkout(t, "ops_per_s:higher"), value: map[string]func(int, int) float64{"ops_per_s": constant(1)}}
	f.failed = [2]int64{1, 2}
	var out strings.Builder
	if err := run([]string{"-pairs", "2", "old", f.newDir}, &out, f.exec); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "failed ops: OLD 2/200, NEW 4/200  NEW fails a larger share") {
		t.Fatalf("report:\n%s", out.String())
	}
}

// TestPerLayerCountsThatDiffer lists a count that repeats on each side
// and differs between them, and names apart one that moves run to run.
func TestPerLayerCountsThatDiffer(t *testing.T) {
	f := &fake{newDir: checkout(t, "ops_per_s:higher"), value: map[string]func(int, int) float64{"ops_per_s": constant(1)},
		counters: map[string]func(int, int) float64{
			"proc.allocs_per_op": func(side, _ int) float64 { return 8 - float64(side) },
			"proc.gc_cycles":     func(_, run int) float64 { return float64(run) },
			"trace.spans":        func(int, int) float64 { return 40 },
		}}
	var out strings.Builder
	if err := run([]string{"-pairs", "1", "old", f.newDir}, &out, f.exec); err != nil {
		t.Fatal(err)
	}
	want := "per-layer counts that differ (traced twice a side, seed 42):\n" +
		"  proc.allocs_per_op: OLD 8, NEW 7 count\nnot repeating, so no claim: proc.gc_cycles\n"
	if !strings.HasSuffix(out.String(), want) {
		t.Fatalf("report:\n%s\nwant it to end:\n%s", out.String(), want)
	}
}

func TestParseResultReadsTheLastLine(t *testing.T) {
	transcript := "workload=lib_table2 seed=42 seconds=18 trace=0\n" +
		"ops_per_s      123456.0000 1/s\n" +
		`{"correct":true,"attempted":518400,"failed":3,"metrics":{"ops_per_s":{"value":123456,"unit":"1/s"}}}` + "\n"
	r, err := parseResult([]byte(transcript))
	if err != nil {
		t.Fatal(err)
	}
	if r.values["ops_per_s"] != 123456 || r.units["ops_per_s"] != "1/s" || r.attempted != 518400 || r.failed != 3 {
		t.Fatalf("parsed %+v", r)
	}
	for _, bad := range []string{"ops_per_s 1 1/s\n", "{\"metrics\":{}}\nPASS\n"} {
		if _, err := parseResult([]byte(bad)); err == nil {
			t.Errorf("parseResult(%q) accepted", bad)
		}
	}
}

func TestParseBenchLines(t *testing.T) {
	out := "goos: linux\ngoarch: amd64\npkg: github.com/adjusted-objects/dego\n" +
		"BenchmarkFig6ReferenceJUC     \t     100\t     10450 ns/op\t     95693 ops/s\t        95.69 Kops/s/thread\n" +
		"BenchmarkFig6ReferenceJUC-2   \t     100\t     10450 ns/op\t    191386 ops/s\t        95.69 Kops/s/thread\n" +
		"PASS\nok  \tgithub.com/adjusted-objects/dego\t1.234s\n"
	r, err := parseBench([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkFig6ReferenceJUC ns/op": 10450, "BenchmarkFig6ReferenceJUC ops/s": 95693,
		"BenchmarkFig6ReferenceJUC Kops/s/thread": 95.69, "BenchmarkFig6ReferenceJUC-2 ns/op": 10450,
		"BenchmarkFig6ReferenceJUC-2 ops/s": 191386, "BenchmarkFig6ReferenceJUC-2 Kops/s/thread": 95.69,
	}
	if len(r.values) != len(want) {
		t.Fatalf("parsed %v", r.values)
	}
	for k, v := range want {
		if r.values[k] != v {
			t.Errorf("%s = %v, want %v", k, r.values[k], v)
		}
	}
	if _, err := parseBench([]byte("PASS\n")); err == nil {
		t.Error("output without benchmark lines accepted")
	}

	// Through run: a rate is better higher, a time lower.
	x := func(dir string, argv ...string) ([]byte, error) {
		if !slices.Equal(argv[:8], []string{"go", "test", "-run", "^$", "-bench", "Fig6Reference", "-count", "1"}) ||
			!slices.Equal(argv[8:], []string{"-cpu", "1,2", "."}) {
			return nil, fmt.Errorf("ran %q", argv)
		}
		if dir == "new" {
			return []byte(strings.Replace(strings.ReplaceAll(out, "95693 ops/s", "191386 ops/s"), "10450 ns/op", "5225 ns/op", 1)), nil
		}
		return []byte(out), nil
	}
	var report strings.Builder
	if err := run([]string{"-bench", "Fig6Reference", "-pairs", "10", "old", "new", "--", "-cpu", "1,2", "."}, &report, x); err != nil {
		t.Fatal(err)
	}
	for metric, change := range map[string]string{"BenchmarkFig6ReferenceJUC ops/s": "+100.0 %", "BenchmarkFig6ReferenceJUC ns/op": "-50.0 %"} {
		if row := rowOf(report.String(), metric); !strings.Contains(row, change) || !strings.HasSuffix(row, "gain") {
			t.Errorf("%s row %q in\n%s", metric, row, report.String())
		}
	}
}

// TestHelperProcess is the child TestFailingRunReportsStderr starts: it
// writes to standard error and exits non-zero. Run as a test, it does
// nothing.
func TestHelperProcess(t *testing.T) {
	if !slices.Contains(os.Args, "fail-with-stderr") {
		return
	}
	fmt.Fprintln(os.Stderr, "benchmark: lib_table2: posts 7 != 8")
	os.Exit(3)
}

func TestFailingRunReportsStderr(t *testing.T) {
	_, err := command(t.TempDir(), os.Args[0], "-test.run=^TestHelperProcess$", "fail-with-stderr")
	if err == nil || !strings.Contains(err.Error(), "benchmark: lib_table2: posts 7 != 8") {
		t.Fatalf("err = %v", err)
	}
	x := func(string, ...string) ([]byte, error) { return nil, errors.New("boom") }
	if err := run([]string{"-pairs", "1", "old", checkout(t, "ops_per_s:higher")}, &strings.Builder{}, x); err == nil {
		t.Fatal("a failed run did not fail benchcmp")
	}
}

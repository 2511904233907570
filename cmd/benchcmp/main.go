// Command benchcmp runs two checkouts in alternating pairs and reports, per
// metric, how NEW reads against OLD:
//
//	benchcmp [-pairs 10] [-workload w,…] [-seed 42] OLD NEW
//	benchcmp -bench PATTERN [-pairs 10] OLD NEW [-- go test args…]
//
// Pair i runs `bash benchmark/run.sh --workload W --seed seed+i --seconds S
// --trace 0` in each checkout, OLD first in even pairs, for every workload
// in NEW's BENCHMARK.json, which also gives S and each end-to-end metric's
// direction and bound; then `--trace 1` at the first seed twice a side.
// Only a run's last line, the JSON result line, is read. With -bench a run
// is `go test -run '^$' -bench PATTERN -count 1 ARGS…` and its benchmark
// lines are read; a unit containing "/s" is better higher, others lower.
//
// Each metric gets OLD's median, quartiles and spread (IQR ÷ median), NEW's
// median, the change, NEW's wins (ties count for neither) and a verdict:
// gain (≥ 10 pairs, 9 in 10 won, medians apart by more than OLD's IQR),
// worse (NEW's median past the bound; with -bench, which has no bounds, the
// gain rule the other way round), unresolved (spread past the bound, unless
// every NEW run beats every OLD run) or level. A workload adds each side's
// failed ops and the per-layer counts that differ. The exit status is
// non-zero only when a run fails or its output cannot be parsed.
package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
)

// entry is a named BENCHMARK.json entry: a workload, or a metric and how it
// is judged (bound 0: none).
type entry struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// result is what one run reported.
type result struct {
	values            map[string]float64
	units             map[string]string
	attempted, failed int64
}

func main() {
	if err := run(os.Args[1:], os.Stdout, command); err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(1)
	}
}

// execFunc runs argv in dir and returns its stdout; tests hand run a fake.
type execFunc func(dir string, argv ...string) ([]byte, error)

// command runs argv in dir; the error of a failed run carries its stderr.
func command(dir string, argv ...string) ([]byte, error) {
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if exit := (*exec.ExitError)(nil); errors.As(err, &exit) {
		return nil, fmt.Errorf("%s in %s: %v: %s", strings.Join(argv, " "), dir, err, bytes.TrimSpace(exit.Stderr))
	}
	return out, err
}

func run(args []string, w io.Writer, x execFunc) error {
	fs := flag.NewFlagSet("benchcmp", flag.ContinueOnError)
	n := fs.Int("pairs", 10, "alternating pairs of runs per workload, or of the -bench run")
	only := fs.String("workload", "", "comma-separated workloads (default: every workload in NEW's BENCHMARK.json)")
	seed := fs.Int("seed", 42, "seed of the first pair; pair i runs seed+i")
	pattern := fs.String("bench", "", "compare `go test -bench` results for this pattern instead of running the benchmark")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest, testArgs := fs.Args(), []string(nil)
	if i := slices.Index(rest, "--"); i >= 0 {
		rest, testArgs = rest[:i], rest[i+1:]
	}
	if len(rest) != 2 || *n < 1 {
		return errors.New("usage: benchcmp [-pairs n] [-workload w,…] [-seed s] OLD NEW, or benchcmp -bench PATTERN [-pairs n] OLD NEW [-- go test args…]")
	}
	fmt.Fprintf(w, "OLD %s\nNEW %s\n", rest[0], rest[1])
	if *pattern == "" {
		return workloads(w, x, [2]string(rest), *n, *seed, *only)
	}
	argv := append([]string{"go", "test", "-run", "^$", "-bench", *pattern, "-count", "1"}, testArgs...)
	runs, err := pairs(w, x, [2]string(rest), *n, func(int) []string { return argv }, parseBench)
	if err != nil {
		return err
	}
	var ms []entry
	for _, key := range slices.Sorted(maps.Keys(runs[0][0].values)) {
		rate := strings.Contains(key[strings.LastIndexByte(key, ' '):], "/s")
		ms = append(ms, entry{Name: key, Better: map[bool]string{true: "higher", false: "lower"}[rate]})
	}
	return report(w, runs, ms)
}

// workloads compares the checkouts on the repository benchmark.
func workloads(w io.Writer, x execFunc, dirs [2]string, n, seed int, only string) error {
	blob, err := os.ReadFile(filepath.Join(dirs[1], "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var cfg struct {
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []entry `json:"workloads"`
		EndToEnd   []entry `json:"end_to_end"`
	}
	if err := json.Unmarshal(blob, &cfg); err != nil {
		return fmt.Errorf("%s: BENCHMARK.json: %w", dirs[1], err)
	}
	names := strings.FieldsFunc(only, func(r rune) bool { return r == ',' })
	for _, wl := range cfg.Workloads {
		if only == "" {
			names = append(names, wl.Name)
		}
	}
	secs := strconv.FormatFloat(cfg.RunSeconds, 'g', -1, 64)
	for _, name := range names {
		argv := func(seed, trace int) []string {
			return []string{"bash", "benchmark/run.sh", "--workload", name, "--seed", strconv.Itoa(seed),
				"--seconds", secs, "--trace", strconv.Itoa(trace)}
		}
		fmt.Fprintf(w, "\n== %s: %d pairs, seeds %d–%d, %s s a run\n", name, n, seed, seed+n-1, secs)
		runs, err := pairs(w, x, dirs, n, func(i int) []string { return argv(seed+i, 0) }, parseResult)
		if err != nil {
			return err
		}
		traced, err := pairs(w, x, dirs, 2, func(int) []string { return argv(seed, 1) }, parseResult)
		if err != nil {
			return err
		}
		if err := report(w, runs, cfg.EndToEnd); err != nil {
			return err
		}
		var f [2][2]int64 // failed and attempted ops by side
		for side, rs := range runs {
			for _, r := range rs {
				f[side][0], f[side][1] = f[side][0]+r.failed, f[side][1]+r.attempted
			}
		}
		fmt.Fprintf(w, "failed ops: OLD %d/%d, NEW %d/%d", f[0][0], f[0][1], f[1][0], f[1][1])
		if f[1][0]*f[0][1] > f[0][0]*f[1][1] {
			fmt.Fprint(w, "  NEW fails a larger share")
		}
		counts(w, traced, seed)
	}
	return nil
}

// counts lists the per-layer `count` and `B` metrics that repeat over each
// side's traced runs and differ between the sides, then those that moved.
func counts(w io.Writer, traced [2][]result, seed int) {
	var diffs, unsteady []string
	for _, key := range slices.Sorted(maps.Keys(traced[1][0].units)) {
		u, o, n := traced[1][0].units[key], series(traced[0], key), series(traced[1], key)
		switch {
		case u != "count" && u != "B" || o == nil || n == nil:
		case o[0] != o[1] || n[0] != n[1]:
			unsteady = append(unsteady, key)
		case o[0] != n[0]:
			diffs = append(diffs, fmt.Sprintf("\n  %s: OLD %s, NEW %s %s", key, num(o[0]), num(n[0]), u))
		}
	}
	fmt.Fprintf(w, "\nper-layer counts that differ (traced twice a side, seed %d):%s\nnot repeating, so no claim: %s\n",
		seed, cmp.Or(strings.Join(diffs, ""), " none"), cmp.Or(strings.Join(unsteady, ", "), "none"))
}

// pairs runs argv(i) in both checkouts for pair i = 0…n-1, OLD first in even
// pairs and NEW first in odd ones, and parses each run's output.
func pairs(w io.Writer, x execFunc, dirs [2]string, n int, argv func(i int) []string, parse func([]byte) (result, error)) (runs [2][]result, err error) {
	for i := 0; i < n; i++ {
		order := [2]int{i % 2, 1 - i%2}
		for _, side := range order {
			out, err := x(dirs[side], argv(i)...)
			if err != nil {
				return runs, err
			}
			r, err := parse(out)
			if err != nil {
				return runs, fmt.Errorf("%s in %s: %w", strings.Join(argv(i), " "), dirs[side], err)
			}
			runs[side] = append(runs[side], r)
		}
		fmt.Fprintf(w, "pair %d/%d, %s first: %s\n", i+1, n, [2]string{"OLD", "NEW"}[order[0]], strings.Join(argv(i), " "))
	}
	return runs, nil
}

// parseResult reads the last line of a run.sh transcript, the result line.
func parseResult(out []byte) (result, error) {
	var line struct {
		Attempted, Failed int64
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal(out[bytes.LastIndexByte(bytes.TrimRight(out, "\n"), '\n')+1:], &line); err != nil {
		return result{}, fmt.Errorf("the last line is no result line: %w", err)
	}
	r := result{map[string]float64{}, map[string]string{}, line.Attempted, line.Failed}
	for name, m := range line.Metrics {
		r.values[name], r.units[name] = m.Value, m.Unit
	}
	return r, nil
}

// parseBench reads `go test -bench` lines (name, iterations, value–unit
// pairs), keying a metric by the name, cpu suffix included, and the unit.
func parseBench(out []byte) (result, error) {
	r := result{values: map[string]float64{}}
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") || strings.Trim(f[1], "0123456789") != "" {
			continue
		}
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return result{}, fmt.Errorf("benchmark line %q: %w", line, err)
			}
			r.values[f[0]+" "+f[i+1]] = v
		}
	}
	if len(r.values) == 0 {
		return result{}, errors.New("no benchmark lines in the output")
	}
	return r, nil
}

// series is key's value in each run, or nil when a run lacks it.
func series(rs []result, key string) []float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		var ok bool
		if v[i], ok = r.values[key]; !ok {
			return nil
		}
	}
	return v
}

// report prints one line per metric.
func report(w io.Writer, runs [2][]result, ms []entry) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "metric\tOLD median\tOLD q1–q3\tspread\tNEW median\tΔ\twins\tverdict\t")
	for _, m := range ms {
		old, new := series(runs[0], m.Name), series(runs[1], m.Name)
		if old == nil || new == nil {
			return fmt.Errorf("a run did not report %s", m.Name)
		}
		wins, verdict := compare(old, new, m.Better == "higher", m.Bound)
		q, newMed := quartiles(old), quartiles(new)[1]
		base := max(math.Abs(q[1]), math.SmallestNonzeroFloat64) // a zero median reads 0 % when nothing moved
		fmt.Fprintf(tw, "%s\t%s\t%s–%s\t%.1f %%\t%s\t%+.1f %%\t%d/%d\t%s\t\n", m.Name, num(q[1]), num(q[0]), num(q[2]),
			100*(q[2]-q[0])/base, num(newMed), 100*(newMed-q[1])/base, wins, len(old), verdict)
	}
	return tw.Flush()
}

// compare counts NEW's wins over OLD, pair by pair, and judges the metric.
func compare(old, new []float64, higher bool, bound float64) (wins int, verdict string) {
	sign := map[bool]float64{true: 1, false: -1}[higher]
	losses, worstNew, bestOld := 0, math.Inf(1), math.Inf(-1)
	for i := range old {
		if d := sign * (new[i] - old[i]); d > 0 {
			wins++
		} else if d < 0 {
			losses++
		}
		worstNew, bestOld = min(worstNew, sign*new[i]), max(bestOld, sign*old[i])
	}
	q := quartiles(old)
	gap, iqr, med := sign*(quartiles(new)[1]-q[1]), q[2]-q[0], math.Abs(q[1]) // gap > 0: NEW is better
	decisive := func(k int) bool { return len(old) >= 10 && 10*k >= 9*len(old) && math.Abs(gap) > iqr }
	switch {
	case gap > 0 && decisive(wins):
		return wins, "gain"
	case bound > 0 && -gap > bound*med, bound == 0 && gap < 0 && decisive(losses):
		return wins, "worse"
	case bound > 0 && iqr > bound*med && worstNew <= bestOld:
		return wins, "unresolved"
	}
	return wins, "level"
}

// quartiles are Python's statistics.quantiles(v, n=4), the exclusive
// method; one value is its own quartiles.
func quartiles(v []float64) [3]float64 {
	s := slices.Sorted(slices.Values(v))
	if len(s) == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(len(s)+1)/4, 1), len(s)-1)
		delta := float64(i*(len(s)+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

func num(v float64) string {
	if math.Abs(v) >= 1000 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}

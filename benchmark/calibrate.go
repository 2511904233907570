package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// runOne re-executes this binary for one workload and parses the result
// line. The child's report goes to our stdout as it is produced.
func runOne(workload string, seed int64, seconds float64, trace int, outDir string) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(self,
		"-workload", workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace),
		"-out", outDir)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	err = cmd.Run()
	os.Stdout.Write(out.Bytes())
	if err != nil {
		return result{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return res, nil
}

// runAll runs every workload in a child process of its own, runs times over
// with seeds seed, seed+1, …. With more than one run it then prints, per
// workload and end-to-end metric, the spread the benchmark's bounds must
// cover: the interquartile range as a share of the median — the statistic
// the acceptance check uses — and the largest deviation from the median.
func runAll(runs int, seed int64, seconds float64, trace int, outDir string) error {
	values := map[string][]float64{} // "workload metric" -> one value per run
	for r := 0; r < runs; r++ {
		for _, w := range workloads {
			res, err := runOne(w.name, seed+int64(r), seconds, trace, outDir)
			if err != nil {
				return err
			}
			for name, m := range res.Metrics {
				key := w.name + " " + name
				values[key] = append(values[key], m.Value)
			}
		}
	}
	if runs < 2 || trace == 1 {
		return nil
	}
	fmt.Printf("\ncalibration over %d runs, seeds %d..%d\n", runs, seed, seed+int64(runs)-1)
	fmt.Printf("%-18s %-14s %12s %12s %12s %10s %10s\n",
		"workload", "metric", "q1", "median", "q3", "iqr/med", "maxdev/med")
	for _, w := range workloads {
		for _, m := range endToEnd {
			vals := values[w.name+" "+m.name]
			q1, q2, q3 := quartiles(vals)
			maxDev := 0.0
			for _, v := range vals {
				maxDev = max(maxDev, math.Abs(v-q2))
			}
			fmt.Printf("%-18s %-14s %12.4f %12.4f %12.4f %10.4f %10.4f\n",
				w.name, m.name, q1, q2, q3, (q3-q1)/q2, maxDev/q2)
		}
	}
	return nil
}

// quartiles cuts vals as Python's statistics.quantiles(vals, n=4) does (the
// exclusive method), which is what the acceptance check computes.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := slices.Sorted(slices.Values(vals))
	n := len(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// Command benchcmp compares two dego-bench JSON artifacts (the -json output
// of cmd/dego-bench) and reports per-series throughput ratios against a
// noise band. It exists for the regression-tracked flat baseline: CI runs
// the flat figure at the smoke configuration and compares it against the
// checked-in BENCH_flat.json, so a representation regression shows up as a
// ratio outside the band instead of a silent drift.
//
// Usage:
//
//	benchcmp [-band 0.40] [-fail] old.json new.json
//
// The report prints one line per (figure, section, object, threads) series
// point: old and new Kops/s, the new/old ratio, and a verdict. Points whose
// ratio falls below 1-band are regressions; above 1+band, improvements.
// Shared-runner smoke numbers are noisy, so the default band is wide and
// the CI step that runs this is non-blocking; -fail turns regressions into
// a non-zero exit for local use on quiet machines.
//
// Only points present in both files are compared — a new figure or object
// in one file is listed as unmatched, never an error, so adding a workload
// does not break the comparison against an older baseline.
//
// benchcmp also compares frontier artifacts (the -json output of
// retwis-bench -net, a JSON array of net points). The file shape
// selects the mode: two arrays compare as frontiers, two objects as
// dego-bench artifacts, one of each is an error. Frontier cells are keyed
// by (store, shards, pipeline, workers, process, faulted, target rate) and
// judged on two metrics per cell: achieved rate (a regression when the
// ratio falls below 1-band) and p99 latency (a regression when the ratio
// rises above 1+band). Latency at a saturated cell measures queueing, not
// the server, so p99 is only judged when both runs stayed unsaturated.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"github.com/adjusted-objects/dego/internal/bench"
	"github.com/adjusted-objects/dego/internal/retwis"
)

// artifact mirrors cmd/dego-bench's writeJSON payload.
type artifact struct {
	BaseConfig bench.Config
	Note       string
	Threads    []int
	Figures    map[string]map[string]map[string][]bench.Result
}

// point is one comparable series point, keyed by everything except the
// measurement itself.
type point struct {
	Figure, Section, Object string
	Threads                 int
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("benchcmp", flag.ContinueOnError)
	band := fs.Float64("band", 0.40, "noise band: ratios in [1-band, 1+band] count as unchanged")
	fail := fs.Bool("fail", false, "exit non-zero when any point regresses below 1-band")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("want two arguments: old.json new.json (got %d)", fs.NArg())
	}
	oldBlob, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	newBlob, err := os.ReadFile(fs.Arg(1))
	if err != nil {
		return err
	}
	if isArray(oldBlob) != isArray(newBlob) {
		return fmt.Errorf("%s and %s are different artifact kinds (one frontier array, one dego-bench object)",
			fs.Arg(0), fs.Arg(1))
	}
	if isArray(oldBlob) {
		return runFrontier(w, *band, *fail, fs.Arg(0), oldBlob, fs.Arg(1), newBlob)
	}

	oldArt, err := load(fs.Arg(0), oldBlob)
	if err != nil {
		return err
	}
	newArt, err := load(fs.Arg(1), newBlob)
	if err != nil {
		return err
	}

	oldPts := flatten(oldArt)
	newPts := flatten(newArt)

	keys := make([]point, 0, len(oldPts))
	for k := range oldPts {
		if _, ok := newPts[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Figure != b.Figure {
			return a.Figure < b.Figure
		}
		if a.Section != b.Section {
			return a.Section < b.Section
		}
		if a.Object != b.Object {
			return a.Object < b.Object
		}
		return a.Threads < b.Threads
	})

	if oldArt.BaseConfig.InitialItems != newArt.BaseConfig.InitialItems ||
		oldArt.BaseConfig.KeyRange != newArt.BaseConfig.KeyRange {
		fmt.Fprintf(w, "note: base configs differ (old %d/%d items/range, new %d/%d) — ratios compare different workloads\n\n",
			oldArt.BaseConfig.InitialItems, oldArt.BaseConfig.KeyRange,
			newArt.BaseConfig.InitialItems, newArt.BaseConfig.KeyRange)
	}

	regressions := 0
	fmt.Fprintf(w, "%-10s %-24s %-28s %7s %10s %10s %7s  %s\n",
		"figure", "section", "object", "threads", "old Kops", "new Kops", "ratio", "verdict")
	for _, k := range keys {
		o, n := oldPts[k].Kops(), newPts[k].Kops()
		ratio := 0.0
		if o > 0 {
			ratio = n / o
		}
		verdict := "ok"
		switch {
		case o == 0 || n == 0:
			verdict = "no-data"
		case ratio < 1-*band:
			verdict = "REGRESSION"
			regressions++
		case ratio > 1+*band:
			verdict = "improved"
		}
		fmt.Fprintf(w, "%-10s %-24s %-28s %7d %10.1f %10.1f %6.2fx  %s\n",
			k.Figure, k.Section, k.Object, k.Threads, o, n, ratio, verdict)
	}
	fmt.Fprintf(w, "\n%d points compared (band ±%.0f%%), %d regression(s)",
		len(keys), *band*100, regressions)
	if un := unmatched(oldPts, newPts); un > 0 {
		fmt.Fprintf(w, ", %d point(s) only in one file", un)
	}
	fmt.Fprintln(w)

	if *fail && regressions > 0 {
		return fmt.Errorf("%d point(s) regressed below %.2fx", regressions, 1-*band)
	}
	return nil
}

func load(path string, blob []byte) (*artifact, error) {
	var a artifact
	if err := json.Unmarshal(blob, &a); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &a, nil
}

// isArray reports whether a JSON document's top level is an array — the
// shape that distinguishes a frontier artifact from a dego-bench one.
func isArray(blob []byte) bool {
	trimmed := bytes.TrimLeft(blob, " \t\r\n")
	return len(trimmed) > 0 && trimmed[0] == '['
}

// fpoint is one comparable frontier cell, keyed by everything that
// identifies the experiment except the measurements.
type fpoint struct {
	Store            string
	Shards, Pipeline int
	Workers          int
	Process          string
	Faulted          bool
	TargetRate       float64
}

func flattenFrontier(pts []retwis.NetPoint) map[fpoint]retwis.NetPoint {
	out := map[fpoint]retwis.NetPoint{}
	for _, p := range pts {
		k := fpoint{p.Store, p.Shards, p.Pipeline, p.Workers, p.Process, p.Faulted, p.TargetRate}
		if prev, ok := out[k]; !ok || p.ElapsedMS > prev.ElapsedMS {
			out[k] = p
		}
	}
	return out
}

// runFrontier compares two frontier artifacts cell by cell. A
// cell regresses when achieved rate drops below 1-band of the baseline, or
// — when both runs absorbed the offered rate — when p99 rises above 1+band.
func runFrontier(w io.Writer, band float64, fail bool, oldPath string, oldBlob []byte, newPath string, newBlob []byte) error {
	var oldRaw, newRaw []retwis.NetPoint
	if err := json.Unmarshal(oldBlob, &oldRaw); err != nil {
		return fmt.Errorf("%s: %w", oldPath, err)
	}
	if err := json.Unmarshal(newBlob, &newRaw); err != nil {
		return fmt.Errorf("%s: %w", newPath, err)
	}
	oldPts, newPts := flattenFrontier(oldRaw), flattenFrontier(newRaw)

	keys := make([]fpoint, 0, len(oldPts))
	for k := range oldPts {
		if _, ok := newPts[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Store != b.Store {
			return a.Store < b.Store
		}
		if a.Faulted != b.Faulted {
			return !a.Faulted
		}
		if a.Shards != b.Shards {
			return a.Shards < b.Shards
		}
		if a.Pipeline != b.Pipeline {
			return a.Pipeline < b.Pipeline
		}
		return a.TargetRate < b.TargetRate
	})

	regressions := 0
	fmt.Fprintf(w, "%-10s %6s %5s %8s %10s %10s %7s %9s %9s %7s  %s\n",
		"store", "shards", "pipe", "target/s", "old ach/s", "new ach/s", "rate", "old p99", "new p99", "p99", "verdict")
	for _, k := range keys {
		o, n := oldPts[k], newPts[k]
		rateRatio, p99Ratio := 0.0, 0.0
		if o.AchievedRate > 0 {
			rateRatio = n.AchievedRate / o.AchievedRate
		}
		if o.P99us > 0 {
			p99Ratio = float64(n.P99us) / float64(o.P99us)
		}
		judgeLatency := !o.Saturated && !n.Saturated && o.P99us > 0 && n.P99us > 0
		verdict := "ok"
		switch {
		case o.AchievedRate == 0 || n.AchievedRate == 0:
			verdict = "no-data"
		case rateRatio < 1-band:
			verdict = "REGRESSION(rate)"
			regressions++
		case judgeLatency && p99Ratio > 1+band:
			verdict = "REGRESSION(p99)"
			regressions++
		case rateRatio > 1+band || (judgeLatency && p99Ratio < 1-band):
			verdict = "improved"
		case !judgeLatency:
			verdict = "ok(rate-only)"
		}
		fmt.Fprintf(w, "%-10s %6d %5d %8.0f %10.0f %10.0f %6.2fx %8dµs %8dµs %6.2fx  %s\n",
			k.Store, k.Shards, k.Pipeline, k.TargetRate,
			o.AchievedRate, n.AchievedRate, rateRatio, o.P99us, n.P99us, p99Ratio, verdict)
	}
	fmt.Fprintf(w, "\n%d frontier cell(s) compared (band ±%.0f%%), %d regression(s)",
		len(keys), band*100, regressions)
	un := 0
	for k := range oldPts {
		if _, ok := newPts[k]; !ok {
			un++
		}
	}
	for k := range newPts {
		if _, ok := oldPts[k]; !ok {
			un++
		}
	}
	if un > 0 {
		fmt.Fprintf(w, ", %d cell(s) only in one file", un)
	}
	fmt.Fprintln(w)

	if fail && regressions > 0 {
		return fmt.Errorf("%d frontier cell(s) regressed beyond the ±%.0f%% band", regressions, band*100)
	}
	return nil
}

// flatten indexes every series point of an artifact by its identity. A
// duplicate thread count within one series keeps the longer-running point
// (more samples, less noise); dego-bench never emits duplicates, so this is
// pure defense against hand-edited baselines.
func flatten(a *artifact) map[point]bench.Result {
	out := map[point]bench.Result{}
	for fig, sections := range a.Figures {
		for section, series := range sections {
			for object, results := range series {
				for _, r := range results {
					k := point{fig, section, object, r.Threads}
					if prev, ok := out[k]; !ok || r.Elapsed > prev.Elapsed {
						out[k] = r
					}
				}
			}
		}
	}
	return out
}

// unmatched counts points present in exactly one artifact.
func unmatched(a, b map[point]bench.Result) int {
	n := 0
	for k := range a {
		if _, ok := b[k]; !ok {
			n++
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			n++
		}
	}
	return n
}

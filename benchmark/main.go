// Command benchmark is the repository's benchmark: four single-process
// workloads, five end-to-end metrics each, and a per-layer run with a span
// trace. README.md in this directory says why each workload is there, what
// each metric means and which layer should move which number.
//
// One invocation with -workload runs that workload in this process and
// prints every metric by name and unit, then one JSON object on the last
// line. Without -workload it re-executes itself once per workload, so peak
// memory, heap size and GC state never leak from one workload into the next.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime"
	"slices"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a single-workload run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one entry of the benchmark: a trial of the timed run and the
// per-layer run.
type workload struct {
	name string
	on   int // which per-layer metrics are specified for it
	// trial runs one fixed-work trial at the given share of full size.
	trial func(seed int64, sz sizes, pr probe) (trial, error)
	// layers measures the workload's layers; the metrics it returns are the
	// ones the workload's layers take part in.
	layers func(seed int64, sz sizes, outDir string) (layerSet, trial, error)
}

var workloads = []workload{
	{"lib_table2", onLib, libTable2Trial, libLayers},
	{"net_table2_p16", onClosed, p16Trial, func(seed int64, sz sizes, out string) (layerSet, trial, error) {
		return netLayers("net_table2_p16", seed, sz, sz.p16(), out)
	}},
	{"net_read_p1", onClosed, readP1Trial, func(seed int64, sz sizes, out string) (layerSet, trial, error) {
		return netLayers("net_read_p1", seed, sz, sz.readP1(), out)
	}},
	{"net_table2_open", onOpen, openLoopTrial, openLayers},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	var (
		name      = flag.String("workload", "", "run this workload in this process (default: every workload, one child process each)")
		seed      = flag.Int64("seed", 42, "roots every op stream, arrival schedule and key set")
		seconds   = flag.Float64("seconds", 10, "measured time one run aims at; sets the fixed op count of each trial")
		trace     = flag.Int("trace", 0, "1: run the per-layer measurements and write the span trace instead of the timed run")
		calibrate = flag.Int("calibrate", 0, "run the whole benchmark N times, seeds seed..seed+N-1, and print the spread of every end-to-end metric")
		outDir    = flag.String("out", "benchmark/out", "directory for trace files")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	if *name == "" {
		runs := max(*calibrate, 1)
		if err := runAll(runs, *seed, *seconds, *trace, *outDir); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}

	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	fmt.Printf("workload=%s seed=%d seconds=%g trace=%d gomaxprocs=%d nproc=%d go=%s\n",
		w.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	var (
		res result
		err error
	)
	if *trace == 1 {
		res, err = runLayers(w, *seed, fullSizes(*seconds), *outDir)
	} else {
		res, err = runTimed(w, *seed, fullSizes(*seconds))
	}
	if err != nil {
		// A failed check fails the run: no result line, non-zero exit.
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// printMetrics lists metrics by name with their units.
func printMetrics(ms map[string]metric) {
	for _, n := range slices.Sorted(maps.Keys(ms)) {
		fmt.Printf("%-34s %16.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

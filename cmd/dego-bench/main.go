// Command dego-bench regenerates the micro-benchmark figures of the paper
// (§6.2): Figure 6 (high contention), Figure 7 (update-ratio sweep) and
// Figure 8 (working-set sweep), plus the Pearson throughput/stall analysis.
//
// Usage:
//
//	dego-bench -fig 6 [-threads 1,5,10,20,40,80] [-duration 1s] [-pearson]
//	dego-bench -fig 7 [-ratios 25,50,75,100]
//	dego-bench -fig 8
//	dego-bench -fig hotrange
//	dego-bench -fig flat
//	dego-bench -fig all
//
// hotrange is the per-range directory evaluation: the skewed workload
// (hot-range updates, cold-range reads) under wholesale vs per-range
// promotion, swept over working-set scale. flat is the flat-family
// evaluation: the planner's open-addressing pick against the striped,
// segmented and sync.Map baselines over the same working-set axis.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/adjusted-objects/dego/internal/bench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dego-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dego-bench", flag.ContinueOnError)
	fig := fs.String("fig", "all", "figure to regenerate: 6, 7, 8, hotrange, flat, all or none (with -ablation)")
	threadsFlag := fs.String("threads", "1,5,10,20,40,80", "comma-separated thread counts")
	ratiosFlag := fs.String("ratios", "25,50,75,100", "update ratios for figure 7, in percent (0-100)")
	duration := fs.Duration("duration", 500*time.Millisecond, "measured duration per point")
	warmup := fs.Duration("warmup", 100*time.Millisecond, "warm-up before each point")
	items := fs.Int("items", 16<<10, "initial items (paper: 16384)")
	keyRange := fs.Int("range", 32<<10, "key range (paper: 32768)")
	pearson := fs.Bool("pearson", false, "print Pearson(throughput, stalls) per object")
	ablation := fs.Bool("ablation", false, "also run the segmentation/padding/guard ablations")
	jsonPath := fs.String("json", "", "also write the raw figure sweep results as JSON to this file (CI artifact; -ablation output is print-only and not included)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	threads, err := parseInts(*threadsFlag, 1, math.MaxInt32)
	if err != nil {
		return fmt.Errorf("bad -threads: %w", err)
	}
	ratios, err := parseInts(*ratiosFlag, 0, 100)
	if err != nil {
		return fmt.Errorf("bad -ratios: %w", err)
	}

	cfg := bench.DefaultConfig()
	cfg.Duration = *duration
	cfg.Warmup = *warmup
	cfg.InitialItems = *items
	cfg.KeyRange = *keyRange

	figures := map[string]map[string]map[string][]bench.Result{}
	switch *fig {
	case "none":
	case "6":
		figures["figure6"] = bench.Figure6(os.Stdout, cfg, threads, *pearson)
	case "7":
		figures["figure7"] = bench.Figure7(os.Stdout, cfg, threads, ratios)
	case "8":
		figures["figure8"] = bench.Figure8(os.Stdout, cfg, threads)
	case "hotrange":
		figures["hotrange"] = bench.FigureHotRange(os.Stdout, cfg, threads)
	case "flat":
		figures["flat"] = bench.FigureFlat(os.Stdout, cfg, threads)
	case "all":
		figures["figure6"] = bench.Figure6(os.Stdout, cfg, threads, *pearson)
		figures["figure7"] = bench.Figure7(os.Stdout, cfg, threads, ratios)
		figures["figure8"] = bench.Figure8(os.Stdout, cfg, threads)
		figures["hotrange"] = bench.FigureHotRange(os.Stdout, cfg, threads)
		figures["flat"] = bench.FigureFlat(os.Stdout, cfg, threads)
	default:
		return fmt.Errorf("unknown figure %q (want 6, 7, 8, hotrange, flat or all)", *fig)
	}
	if *ablation {
		bench.Ablations(os.Stdout, cfg, threads)
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, cfg, threads, figures); err != nil {
			return fmt.Errorf("writing %s: %w", *jsonPath, err)
		}
	}
	return nil
}

// writeJSON persists the raw sweep results. The CI bench-smoke job uploads
// the file as a workflow artifact, so harness bit-rot shows up as a missing
// or empty artifact even when the tables printed fine.
func writeJSON(path string, cfg bench.Config, threads []int,
	figures map[string]map[string]map[string][]bench.Result) error {
	blob, err := json.MarshalIndent(struct {
		// BaseConfig is the CLI configuration the figures started from, not
		// what every series ran with: figure sections override it (figure7
		// varies UpdateRatio, figure8 varies InitialItems/KeyRange — the
		// section titles name the override) and the swept thread count of
		// each point is in that Result's own Threads field, never in here.
		BaseConfig bench.Config
		Note       string
		Threads    []int
		Figures    map[string]map[string]map[string][]bench.Result
	}{cfg, "figure sections override BaseConfig (figure7: UpdateRatio; " +
		"figure8: InitialItems/KeyRange; see section titles); " +
		"per-point thread counts are in each Result.Threads",
		threads, figures}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// parseInts parses a comma-separated list whose every value lies in
// [lo, hi].
func parseInts(s string, lo, hi int) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		if n < lo || n > hi {
			return nil, fmt.Errorf("value %d outside [%d, %d]", n, lo, hi)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

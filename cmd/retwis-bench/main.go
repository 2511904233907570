// Command retwis-bench regenerates the social-network evaluation of §6.3:
// Figure 9 (speedup over JUC across user counts and thread counts, with the
// DAP upper bound) and Figure 10 (throughput across the user-access
// distribution parameter alpha). The operation mix is Table 2. Both figures
// also sweep the ADAPTIVE backend (the DEGO program over contention-adaptive
// tables), which is not in the paper: it measures the runtime-adjustment
// engine end to end on the same workload, so its ratio compares
// representations, like every other column.
//
// Usage:
//
//	retwis-bench -fig 9 [-users 100000,500000,1000000] [-threads 1,5,10,20,40,80]
//	retwis-bench -fig 10 [-alphas 0,0.25,0.5,0.75,1,2]
//	retwis-bench -fig all
//
// -net switches to the networked evaluation: the same Table-2 workload is
// generated client-side and shipped to a dego-server as RESP pipelines by
// one driver (internal/loadgen) under one of two pacings. -arrivals closed
// (the default) is the closed loop: each of -conns connections sends its
// next pipeline when the last one returned, -netops ops in all, and the
// point measures service time and capacity. -arrivals poisson or uniform
// schedules arrivals at each target rate in -rates over a -netduration
// horizon and measures latency from *intended* start, so queueing delay
// behind a stalled server is recorded instead of coordinated away (see
// README, "Measuring latency"); each cell's rate walk stops at saturation.
// Either way the sweep covers every (shard count × pipeline depth) cell,
// self-hosts a server per point unless -addr names a live one, and -json
// writes the points as a JSON array (the CI artifact). -chaos runs the
// same sweep through a fault-injecting dialer:
//
//	retwis-bench -net [-conns 4] [-pipelines 8] [-netusers 10000]
//	             [-netops 100000] [-json net.json]
//	retwis-bench -net -addr 127.0.0.1:6399
//	retwis-bench -net -arrivals poisson [-shardcounts 2] [-pipelines 8]
//	             [-rates 2k,4k,8k] [-netduration 1s] [-json frontier.json]
//	retwis-bench -net -arrivals poisson -chaos [-chaosseed 42]
//
// -advise switches to the tuning-advisor replay: the same Table-2 workload
// runs against a backend whose shared objects are built with NO adjustment
// declared but with usage recorders attached, and the advisor reports the
// declarations the observed traffic would have certified — rediscovering
// the commuting-writers maps, single-consumer timelines, and write-once
// metadata the hand-tuned backends declare. -json writes the per-table
// advice as a JSON array (rendered by dego-advise):
//
//	retwis-bench -advise [-advusers 2000] [-advthreads 4] [-advops 2000]
//	             [-json advise.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/adjusted-objects/dego/internal/faultnet"
	"github.com/adjusted-objects/dego/internal/loadgen"
	"github.com/adjusted-objects/dego/internal/retwis"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "retwis-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("retwis-bench", flag.ContinueOnError)
	fig := fs.String("fig", "all", "figure to regenerate: 9, 10 or all")
	usersFlag := fs.String("users", "100000,500000,1000000", "user counts for figure 9")
	threadsFlag := fs.String("threads", "1,5,10,20,40,80", "thread counts")
	alphasFlag := fs.String("alphas", "0,0.25,0.5,0.75,1,2", "alpha sweep for figure 10")
	users10 := fs.Int("users10", 100000, "user count for figure 10")
	threads10 := fs.Int("threads10", 0, "thread count for figure 10 (default: max of -threads)")
	duration := fs.Duration("duration", 500*time.Millisecond, "measured duration per point")
	alpha := fs.Float64("alpha", 1, "user-selection bias for figure 9")

	netMode := fs.Bool("net", false, "networked mode: drive dego-server over TCP instead of the figures")
	netAddr := fs.String("addr", "", "live server address for -net ('' self-hosts one per point)")
	arrivals := fs.String("arrivals", "closed", "pacing for -net: closed, poisson or uniform")
	conns := fs.Int("conns", 4, "worker connections per -net point")
	pipelines := fs.String("pipelines", "8", "pipeline depths swept by -net (most ops per flush)")
	shardCounts := fs.String("shardcounts", "2", "self-hosted server shard counts swept by -net")
	netUsers := fs.Int("netusers", 10_000, "seeded users for -net")
	netOps := fs.Int("netops", 100_000, "ops per closed-loop -net point")
	ratesFlag := fs.String("rates", "2k,4k,8k", "arrival rates walked per cell under open -net arrivals (ops/sec, k/m suffixes)")
	netDuration := fs.Duration("netduration", time.Second, "schedule horizon per open -net point")
	queueCap := fs.Int("queue", 1024, "bounded backlog between the arrival clock and the workers under open -net arrivals")
	chaosMode := fs.Bool("chaos", false, "run the -net sweep through a fault-injecting dialer")
	chaosSeed := fs.Int64("chaosseed", 42, "fault schedule seed for -chaos")
	jsonPath := fs.String("json", "", "write -net points or -advise tables as a JSON array to this file")

	adviseMode := fs.Bool("advise", false, "advisor mode: replay the workload unadjusted-with-recorders and print recommended declarations")
	advUsers := fs.Int("advusers", 2000, "seeded users for -advise")
	advThreads := fs.Int("advthreads", 4, "worker threads for -advise")
	advOps := fs.Int("advops", 2000, "ops per thread for -advise")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *adviseMode {
		return runAdvise(*advUsers, *advThreads, *advOps, *alpha, *jsonPath)
	}
	if *netMode {
		process, err := loadgen.ParseProcess(*arrivals)
		if err != nil {
			return fmt.Errorf("bad -arrivals: %w", err)
		}
		p := retwis.DefaultParams()
		p.Users = *netUsers
		p.Alpha = *alpha
		base := retwis.NetParams{
			Workload: p,
			Addr:     *netAddr,
			Process:  process,
			Duration: *netDuration,
			Workers:  *conns,
			QueueCap: *queueCap,
		}
		if process == loadgen.Closed {
			base.Ops = *netOps
		}
		if *chaosMode {
			// A moderate seeded storm on the client's transport: enough
			// latency, torn writes, stalls and the odd reset to bend the
			// frontier, while the op mix and schedule stay identical to the
			// clean sweep — the two JSONs differ only by the network.
			base.Fault = &faultnet.Config{
				Seed:             *chaosSeed,
				LatencyProb:      0.05,
				LatencyMax:       2 * time.Millisecond,
				PartialWriteProb: 0.10,
				StallProb:        0.02,
				StallMax:         5 * time.Millisecond,
				ResetProb:        0.002,
			}
		}
		return runNet(base, *shardCounts, *pipelines, *ratesFlag, *jsonPath)
	}

	users, err := parseInts(*usersFlag)
	if err != nil {
		return fmt.Errorf("bad -users: %w", err)
	}
	threads, err := parseInts(*threadsFlag)
	if err != nil {
		return fmt.Errorf("bad -threads: %w", err)
	}
	alphas, err := parseFloats(*alphasFlag)
	if err != nil {
		return fmt.Errorf("bad -alphas: %w", err)
	}

	base := retwis.DefaultParams()
	base.Duration = *duration
	base.Alpha = *alpha

	fmt.Printf("Table 2 operation mix: %+v\n\n", retwis.DefaultMix())

	switch *fig {
	case "9":
		return retwis.Figure9(os.Stdout, base, users, threads)
	case "10":
		return runFigure10(base, alphas, *users10, *threads10, threads)
	case "all":
		if err := retwis.Figure9(os.Stdout, base, users, threads); err != nil {
			return err
		}
		return runFigure10(base, alphas, *users10, *threads10, threads)
	default:
		return fmt.Errorf("unknown figure %q (want 9, 10 or all)", *fig)
	}
}

// runAdvise replays the Table-2 workload against an unadjusted,
// recorder-instrumented backend and reports the declarations the tuning
// advisor would recommend — the profiles the hand-tuned backends declare,
// rediscovered from traffic. -json additionally writes the per-table
// advice as a JSON array (the CI artifact).
func runAdvise(users, threads, ops int, alpha float64, jsonPath string) error {
	p := retwis.DefaultParams()
	p.Users = users
	p.Threads = threads
	p.OpsPerThread = ops
	p.Alpha = alpha
	tables, err := retwis.AdviseRun(p)
	if err != nil {
		return err
	}
	retwis.WriteAdviceReport(os.Stdout, retwis.AdviseHeader(p), tables)
	if jsonPath != "" {
		return writeJSON(jsonPath, tables, len(tables))
	}
	return nil
}

// runNet sweeps every (shard count × pipeline depth) cell: one point per
// cell under the closed loop, a rate walk to saturation under open
// arrivals.
func runNet(base retwis.NetParams, shardCounts, pipelines, rates, jsonPath string) error {
	shards, err := parseInts(shardCounts)
	if err != nil {
		return fmt.Errorf("bad -shardcounts: %w", err)
	}
	depths, err := parseInts(pipelines)
	if err != nil {
		return fmt.Errorf("bad -pipelines: %w", err)
	}
	walk, err := parseRates(rates)
	if err != nil {
		return fmt.Errorf("bad -rates: %w", err)
	}
	points, err := retwis.Frontier(os.Stdout, base, shards, depths, walk)
	if err != nil {
		return err
	}
	return writeJSON(jsonPath, points, len(points))
}

// writeJSON serializes points to path when set (the CI artifact).
func writeJSON(path string, points any, n int) error {
	if path == "" {
		return nil
	}
	blob, err := json.MarshalIndent(points, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d point(s) to %s\n", n, path)
	return nil
}

func runFigure10(base retwis.Params, alphas []float64, users, threads10 int, threads []int) error {
	p := base
	p.Users = users
	if threads10 > 0 {
		p.Threads = threads10
	} else {
		p.Threads = threads[len(threads)-1]
	}
	return retwis.Figure10(os.Stdout, p, alphas)
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		if n <= 0 {
			return nil, fmt.Errorf("value %d must be positive", n)
		}
		out = append(out, n)
	}
	return out, nil
}

// parseRates parses a rate list with k/m suffixes: "2k,4k" → 2000, 4000;
// "1.5m" → 1_500_000; bare numbers pass through.
func parseRates(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(strings.ToLower(p))
		mult := 1.0
		switch {
		case strings.HasSuffix(p, "k"):
			mult, p = 1e3, strings.TrimSuffix(p, "k")
		case strings.HasSuffix(p, "m"):
			mult, p = 1e6, strings.TrimSuffix(p, "m")
		}
		f, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, err
		}
		if f*mult <= 0 {
			return nil, fmt.Errorf("rate %q is not positive", p)
		}
		out = append(out, f*mult)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

package retwis

import (
	"fmt"
	"io"
	"time"

	"github.com/adjusted-objects/dego/internal/faultnet"
	"github.com/adjusted-objects/dego/internal/loadgen"
)

// OpenLoopParams configures one open-loop point: the Table-2 workload
// scheduled on an arrival process at a target rate, measured from intended
// start (see internal/loadgen for why that kills coordinated omission).
// Unlike the closed-loop NetParams, Workload.Threads is ignored — the
// worker pool size is Workers, and ops are drawn from one global stream so
// the schedule, not the pool, decides when work happens.
type OpenLoopParams struct {
	Workload Params
	// Addr targets a live server; "" self-hosts one per point.
	Addr string
	// Shards sizes the self-hosted server (ignored with Addr).
	Shards int
	// Rate is the target arrival rate in ops/sec.
	Rate float64
	// Ops is the scheduled arrival count; 0 derives Rate*Duration.
	Ops int
	// Duration is the schedule horizon when Ops is 0 (default 1s).
	Duration time.Duration
	// Process is the arrival process (default Poisson).
	Process loadgen.Process
	// Workers is the connection pool size (default 4).
	Workers int
	// Pipeline caps how many queued ops one flush coalesces (default 8).
	Pipeline int
	// QueueCap bounds the backlog between clock and pool (default 1024).
	QueueCap int
	// Wire tunes the workers' transport; seeding uses a clean dial.
	Wire WireConfig
	// Fault, when non-nil, wraps every worker dial in a fault injector —
	// the latency-under-chaos frontier. The injector is fresh per point so
	// its deterministic schedule restarts with the run.
	Fault *faultnet.Config
}

func (olp *OpenLoopParams) fill() {
	if olp.Duration == 0 {
		olp.Duration = time.Second
	}
	if olp.Workers <= 0 {
		olp.Workers = 4
	}
	if olp.Pipeline <= 0 {
		olp.Pipeline = 8
	}
}

// FrontierPoint is one (shards × pipeline × rate) measurement on
// the latency-vs-throughput frontier. Percentiles are intended-start →
// completion — coordinated-omission-free — and Scheduled is always
// Executed + Errors + Dropped.
type FrontierPoint struct {
	// Store labels the target: the served store kind when self-hosted,
	// "remote" for a live server.
	Store        string  `json:"store"`
	Shards       int     `json:"shards"`
	Pipeline     int     `json:"pipeline"`
	Workers      int     `json:"workers"`
	Process      string  `json:"process"`
	Faulted      bool    `json:"faulted"`
	TargetRate   float64 `json:"target_rate"`
	AchievedRate float64 `json:"achieved_rate"`
	Scheduled    uint64  `json:"scheduled"`
	Executed     uint64  `json:"executed"`
	Errors       uint64  `json:"errors"`
	Dropped      uint64  `json:"dropped"`
	Retries      uint64  `json:"retries"`
	Reconnects   uint64  `json:"reconnects"`
	ElapsedMS    float64 `json:"elapsed_ms"`
	P50us        uint64  `json:"p50_us"`
	P95us        uint64  `json:"p95_us"`
	P99us        uint64  `json:"p99_us"`
	P999us       uint64  `json:"p999_us"`
	MaxUs        uint64  `json:"max_us"`
	// LagP99us is the generator's own dispatch lag: a heavy tail here
	// means the harness, not the server, was the bottleneck at this rate.
	LagP99us uint64 `json:"lag_p99_us"`
	// Saturated marks the point where the system stopped absorbing the
	// offered rate (achieved < 90% of target, or arrivals were dropped);
	// the frontier walk stops the cell here.
	Saturated bool `json:"saturated"`
}

// DrawOps pre-draws n operations from one global deterministic stream: a
// single Generator over the full user set. Same Params and n ⇒ the same
// sequence, byte for byte — the op-side half of frontier reproducibility
// (the schedule side is loadgen.Schedule).
func DrawOps(p Params, n int) []Op {
	gp := p
	gp.Threads = 1
	all := make([]UserID, p.Users)
	for u := range all {
		all[u] = UserID(u)
	}
	g := NewGenerator(0, gp, all, false)
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = g.Next()
	}
	return ops
}

// olExecutor is one open-loop worker: a NetClient over its own connection,
// executing scheduled jobs by index into the pre-drawn op sequence.
type olExecutor struct {
	cl  *NetClient
	ops []Op
}

func (e *olExecutor) Exec(jobs []loadgen.Job) error {
	for _, j := range jobs {
		e.cl.AppendOp(e.ops[j.Index])
	}
	return e.cl.Flush()
}

func (e *olExecutor) Close() error { return e.cl.Close() }

// RunOpenLoop measures one frontier point. Self-hosted mode boots a server,
// seeds it, runs the schedule, and tears everything down; with Addr set it
// issues FLUSHALL and reseeds the live server first, like RunNet.
func RunOpenLoop(olp OpenLoopParams) (FrontierPoint, error) {
	olp.fill()
	p := olp.Workload
	if err := p.Mix.Validate(); err != nil {
		return FrontierPoint{}, err
	}
	if olp.Rate <= 0 {
		return FrontierPoint{}, fmt.Errorf("retwis: open loop needs a positive arrival rate")
	}

	addr, label, shards, graph, closeTarget, err := seedTarget(olp.Addr, olp.Shards, p)
	if err != nil {
		return FrontierPoint{}, err
	}
	defer closeTarget()

	cfg := loadgen.Config{
		Rate:     olp.Rate,
		Count:    olp.Ops,
		Duration: olp.Duration,
		Process:  olp.Process,
		Seed:     p.Seed,
		Workers:  olp.Workers,
		Batch:    olp.Pipeline,
		QueueCap: olp.QueueCap,
	}
	if cfg.Count == 0 {
		cfg.Count = int(olp.Rate * olp.Duration.Seconds())
	}
	ops := DrawOps(p, cfg.Count)

	wire := olp.Wire
	if olp.Fault != nil {
		wire.Dialer = faultnet.New(*olp.Fault).Dialer()
	}
	kvs := make([]*WireKV, 0, olp.Workers)
	res, err := loadgen.Run(cfg, func(id int) (loadgen.Executor, error) {
		kv, err := DialKVConfig(addr, wire)
		if err != nil {
			return nil, err
		}
		kvs = append(kvs, kv)
		return &olExecutor{cl: NewNetClient(kv, graph), ops: ops}, nil
	})
	if err != nil {
		return FrontierPoint{}, err
	}

	var retries, reconnects uint64
	for _, kv := range kvs {
		st := kv.Stats()
		retries += st.Retries
		reconnects += st.Reconnects
	}

	achieved := 0.0
	if res.Elapsed > 0 {
		achieved = float64(res.Executed) / res.Elapsed.Seconds()
	}
	pt := FrontierPoint{
		Store:        label,
		Shards:       shards,
		Pipeline:     olp.Pipeline,
		Workers:      olp.Workers,
		Process:      olp.Process.String(),
		Faulted:      olp.Fault != nil,
		TargetRate:   olp.Rate,
		AchievedRate: achieved,
		Scheduled:    res.Scheduled,
		Executed:     res.Executed,
		Errors:       res.Errors,
		Dropped:      res.Dropped,
		Retries:      retries,
		Reconnects:   reconnects,
		ElapsedMS:    float64(res.Elapsed.Microseconds()) / 1e3,
		P50us:        res.Latency.Percentile(0.50),
		P95us:        res.Latency.Percentile(0.95),
		P99us:        res.Latency.Percentile(0.99),
		P999us:       res.Latency.Percentile(0.999),
		MaxUs:        res.Latency.Max(),
		LagP99us:     res.Lag.Percentile(0.99),
	}
	pt.Saturated = pt.AchievedRate < 0.9*pt.TargetRate || pt.Dropped > 0
	return pt, nil
}

// Frontier walks arrival rates (ascending) through every (shard count ×
// pipeline depth) cell, stopping a cell's walk at the first saturated
// point — past saturation an open-loop run only measures the backlog
// policy, not the system. The returned points are what retwis-bench
// -openloop serializes to JSON. With base.Addr set there is exactly one
// remote cell and only the rates walk.
func Frontier(w io.Writer, base OpenLoopParams, shardCounts, pipelines []int, rates []float64) ([]FrontierPoint, error) {
	if len(shardCounts) == 0 || len(pipelines) == 0 || len(rates) == 0 {
		return nil, fmt.Errorf("retwis: frontier needs at least one shard count, pipeline depth and rate")
	}
	mode := "clean network"
	if base.Fault != nil {
		mode = "fault-injected dialer"
	}
	fmt.Fprintf(w, "=== open-loop frontier: %s arrivals over %s (users=%d, workers=%d) ===\n\n",
		base.Process, mode, base.Workload.Users, base.Workers)
	fmt.Fprintf(w, "%-12s%8s%10s%12s%12s%10s%10s%10s%10s%8s%8s\n",
		"store", "shards", "pipeline", "target/s", "achieved/s", "p50 µs", "p95 µs", "p99 µs", "p99.9 µs", "errs", "drops")

	if base.Addr != "" {
		shardCounts, pipelines = shardCounts[:1], pipelines[:1]
	}
	var points []FrontierPoint
	for _, shards := range shardCounts {
		for _, depth := range pipelines {
			for _, rate := range rates {
				olp := base
				olp.Shards = shards
				olp.Pipeline = depth
				olp.Rate = rate
				pt, err := RunOpenLoop(olp)
				if err != nil {
					return nil, err
				}
				points = append(points, pt)
				mark := ""
				if pt.Saturated {
					mark = "  <- saturated"
				}
				fmt.Fprintf(w, "%-12s%8d%10d%12.0f%12.0f%10d%10d%10d%10d%8d%8d%s\n",
					pt.Store, pt.Shards, pt.Pipeline, pt.TargetRate, pt.AchievedRate,
					pt.P50us, pt.P95us, pt.P99us, pt.P999us, pt.Errors, pt.Dropped, mark)
				if pt.Saturated {
					break
				}
			}
		}
	}
	fmt.Fprintln(w)
	return points, nil
}

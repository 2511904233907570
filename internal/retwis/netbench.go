package retwis

import (
	"fmt"
	"io"
	"time"

	"github.com/adjusted-objects/dego/internal/faultnet"
	"github.com/adjusted-objects/dego/internal/loadgen"
	"github.com/adjusted-objects/dego/internal/server"
)

// NetParams configures one networked point: the Table-2 workload generated
// client-side and shipped to a dego-server as RESP pipelines over TCP,
// driven by loadgen under one of its arrival processes. Closed measures
// service time and capacity: each worker sends its next pipeline when the
// last one returned. Poisson and Uniform schedule arrivals at Rate and
// measure from intended start (see internal/loadgen for why that kills
// coordinated omission). Workload.Threads is ignored — the pool size is
// Workers, and ops are drawn from one global stream (DrawOps), so the
// server sees no per-connection ownership of users.
type NetParams struct {
	Workload Params
	// Addr targets a live server; "" self-hosts one per point.
	Addr string
	// Shards sizes the self-hosted server (ignored with Addr).
	Shards int
	// Process is the arrival process (default Poisson).
	Process loadgen.Process
	// Rate is the target arrival rate in ops/sec (not read by Closed).
	Rate float64
	// Ops is the op count; an open process derives Rate*Duration from 0,
	// Closed needs it set.
	Ops int
	// Duration is an open schedule's horizon when Ops is 0 (default 1s).
	Duration time.Duration
	// Workers is the connection pool size (default 4).
	Workers int
	// Pipeline caps how many ops one flush carries (default 8): a closed
	// worker always fills it, an open one coalesces what has queued.
	Pipeline int
	// QueueCap bounds an open run's backlog between clock and pool
	// (default 1024).
	QueueCap int
	// Wire tunes the workers' transport; seeding uses a clean dial. Its
	// Dialer hook lets a test interpose its own faultnet injector.
	Wire WireConfig
	// Fault, when non-nil, wraps every worker dial in a fault injector —
	// the latency-under-chaos frontier. The injector is fresh per point so
	// its deterministic schedule restarts with the run.
	Fault *faultnet.Config
}

// NetPoint is one (shards × pipeline × rate) measurement. Percentiles run
// from each op's intended start (a closed worker's claim) to completion,
// and Scheduled is always Executed + Errors + Dropped.
type NetPoint struct {
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
	// the frontier walk stops the cell here. A closed point never is.
	Saturated bool `json:"saturated"`
}

// seedTarget resolves the server a networked run talks to and brings it to
// the seeded start state, so successive points start alike. With addr empty
// it self-hosts an in-process dego-server on an ephemeral loopback port;
// either way it then issues FLUSHALL and seeds the social graph over a clean
// dial. It returns where to connect, the point's store label (the store
// kind for a self-hosted server, "remote" for a live one), the shard count
// (as declared for a live server, as built for a self-hosted one) and the
// seeded graph; closeTarget tears the self-hosted server down and is a no-op
// for a live one.
func seedTarget(addr string, shards int, p Params) (target, label string, nshards int, graph *Graph, closeTarget func(), err error) {
	target, label, nshards, closeTarget = addr, "remote", shards, func() {}
	if addr == "" {
		srv, err := server.New(server.Config{Store: server.StoreConfig{Shards: shards}})
		if err != nil {
			return "", "", 0, nil, nil, err
		}
		if err := srv.Listen(); err != nil {
			srv.Close() // releases the store New built
			return "", "", 0, nil, nil, err
		}
		go srv.Serve()
		target, label, nshards = srv.Addr().String(), srv.Store().Kind(), srv.Store().Shards()
		closeTarget = func() { srv.Close() }
	}
	graph = BuildGraph(p)
	seeder, err := DialKV(target)
	if err == nil {
		_, err = seeder.ExecPipe([][][]byte{{[]byte("FLUSHALL")}})
		if err == nil {
			err = SeedKV(seeder, p, graph)
		}
		seeder.Close()
	}
	if err != nil {
		closeTarget()
		return "", "", 0, nil, nil, err
	}
	return target, label, nshards, graph, closeTarget, nil
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

// netExecutor is one worker: a NetClient over its own connection,
// executing jobs by index into the pre-drawn op sequence.
type netExecutor struct {
	cl  *NetClient
	kv  *WireKV
	ops []Op
	err error // the first failed flush, for the all-failed report
}

func (e *netExecutor) Exec(jobs []loadgen.Job) error {
	for _, j := range jobs {
		e.cl.AppendOp(e.ops[j.Index])
	}
	err := e.cl.Flush()
	if e.err == nil {
		e.err = err
	}
	return err
}

func (e *netExecutor) Close() error { return e.cl.Close() }

// RunNet measures one point. Self-hosted mode boots a server, seeds it,
// runs, and tears everything down; with Addr set it issues FLUSHALL and
// reseeds the live server first. A worker that cannot dial fails the run;
// a failed flush is counted and the run goes on, unless no flush at all
// got through.
func RunNet(np NetParams) (NetPoint, error) {
	if np.Duration == 0 {
		np.Duration = time.Second
	}
	if np.Workers <= 0 {
		np.Workers = 4
	}
	if np.Pipeline <= 0 {
		np.Pipeline = 8
	}
	p := np.Workload
	if err := p.Mix.Validate(); err != nil {
		return NetPoint{}, err
	}
	count := np.Ops
	if np.Process != loadgen.Closed {
		if np.Rate <= 0 {
			return NetPoint{}, fmt.Errorf("retwis: %v arrivals need a positive rate", np.Process)
		}
		if count == 0 {
			count = int(np.Rate * np.Duration.Seconds())
		}
	}
	if count <= 0 {
		return NetPoint{}, fmt.Errorf("retwis: a point needs a positive op count")
	}

	addr, label, shards, graph, closeTarget, err := seedTarget(np.Addr, np.Shards, p)
	if err != nil {
		return NetPoint{}, err
	}
	defer closeTarget()

	ops := DrawOps(p, count)
	wire := np.Wire
	if np.Fault != nil {
		wire.Dialer = faultnet.New(*np.Fault).Dialer()
	}
	execs := make([]*netExecutor, 0, np.Workers)
	res, err := loadgen.Run(loadgen.Config{
		Rate:     np.Rate,
		Count:    count,
		Process:  np.Process,
		Seed:     p.Seed,
		Workers:  np.Workers,
		Batch:    np.Pipeline,
		QueueCap: np.QueueCap,
	}, func(int) (loadgen.Executor, error) {
		kv, err := DialKVConfig(addr, wire)
		if err != nil {
			return nil, err
		}
		execs = append(execs, &netExecutor{cl: NewNetClient(kv, graph), kv: kv, ops: ops})
		return execs[len(execs)-1], nil
	})
	if err != nil {
		return NetPoint{}, err
	}

	pt := NetPoint{
		Store:     label,
		Shards:    shards,
		Pipeline:  np.Pipeline,
		Workers:   np.Workers,
		Process:   np.Process.String(),
		Faulted:   np.Fault != nil,
		Scheduled: res.Scheduled,
		Executed:  res.Executed,
		Errors:    res.Errors,
		Dropped:   res.Dropped,
		ElapsedMS: float64(res.Elapsed.Microseconds()) / 1e3,
		P50us:     res.Latency.Percentile(0.50),
		P95us:     res.Latency.Percentile(0.95),
		P99us:     res.Latency.Percentile(0.99),
		P999us:    res.Latency.Percentile(0.999),
		MaxUs:     res.Latency.Max(),
		LagP99us:  res.Lag.Percentile(0.99),
	}
	var firstErr error
	for _, e := range execs {
		st := e.kv.Stats()
		pt.Retries += st.Retries
		pt.Reconnects += st.Reconnects
		if firstErr == nil {
			firstErr = e.err
		}
	}
	if res.Executed == 0 && res.Errors > 0 {
		// Nothing at all got through: there is no point to report.
		return NetPoint{}, fmt.Errorf("retwis: every batch failed (%d ops, first: %w)", res.Errors, firstErr)
	}
	if np.Process != loadgen.Closed {
		pt.TargetRate = np.Rate
	}
	if res.Elapsed > 0 {
		pt.AchievedRate = float64(res.Executed) / res.Elapsed.Seconds()
	}
	pt.Saturated = pt.AchievedRate < 0.9*pt.TargetRate || pt.Dropped > 0
	return pt, nil
}

// Frontier measures every (shard count × pipeline depth) cell. Under an
// open process it walks the rates (ascending) and stops a cell's walk at
// the first saturated point — past saturation an open-loop run only
// measures the backlog policy, not the system; under Closed it measures
// one point per cell and reads no rate. The returned points are what
// retwis-bench -net serializes to JSON. With base.Addr set there is
// exactly one remote cell.
func Frontier(w io.Writer, base NetParams, shardCounts, pipelines []int, rates []float64) ([]NetPoint, error) {
	if base.Process == loadgen.Closed {
		rates = []float64{0}
	}
	if len(shardCounts) == 0 || len(pipelines) == 0 || len(rates) == 0 {
		return nil, fmt.Errorf("retwis: frontier needs at least one shard count, pipeline depth and rate")
	}
	mode := "clean network"
	if base.Fault != nil {
		mode = "fault-injected dialer"
	}
	fmt.Fprintf(w, "=== net frontier: %s arrivals over %s (users=%d, workers=%d) ===\n\n",
		base.Process, mode, base.Workload.Users, base.Workers)
	fmt.Fprintf(w, "%-12s%8s%10s%12s%12s%10s%10s%10s%10s%8s%8s\n",
		"store", "shards", "pipeline", "target/s", "achieved/s", "p50 µs", "p95 µs", "p99 µs", "p99.9 µs", "errs", "drops")

	if base.Addr != "" {
		shardCounts, pipelines = shardCounts[:1], pipelines[:1]
	}
	var points []NetPoint
	for _, shards := range shardCounts {
		for _, depth := range pipelines {
			for _, rate := range rates {
				np := base
				np.Shards = shards
				np.Pipeline = depth
				np.Rate = rate
				pt, err := RunNet(np)
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

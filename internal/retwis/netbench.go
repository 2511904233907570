package retwis

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/adjusted-objects/dego/internal/server"
	"github.com/adjusted-objects/dego/internal/stats"
)

// NetParams configures one networked benchmark run: the Table-2 workload of
// Params generated client-side, shipped as RESP pipelines over TCP. Threads
// doubles as the connection count — each connection is one closed-loop
// worker owning the users u with u mod Threads == tid, exactly like an
// in-process worker thread.
type NetParams struct {
	Workload Params
	// Addr is a live server to target; "" self-hosts an in-process
	// dego-server on an ephemeral loopback port.
	Addr string
	// Shards is the self-hosted shard count (0 = server default).
	Shards int
	// Pipeline is how many generated ops each worker batches per flush.
	Pipeline int
	// Wire tunes the measured workers' transport (zero value = defaults).
	// Its Dialer hook is how the coordinated-omission tests interpose
	// faultnet on a closed-loop run; seeding always uses a clean dial.
	Wire WireConfig
}

// NetPoint is one measured latency-vs-throughput point. Latency is the
// round-trip time of one pipeline flush (write burst → last reply read), so
// deeper pipelines trade latency for throughput — the curve the paper-style
// serving evaluation wants.
type NetPoint struct {
	// Store labels the target: the served store kind when self-hosted,
	// "remote" for a live server.
	Store     string  `json:"store"`
	Conns     int     `json:"conns"`
	Pipeline  int     `json:"pipeline"`
	Users     int     `json:"users"`
	Ops       int64   `json:"ops"`
	Commands  int64   `json:"commands"`
	ElapsedMS float64 `json:"elapsed_ms"`
	OpsPerSec float64 `json:"ops_per_sec"`
	P50us     uint64  `json:"p50_us"`
	P95us     uint64  `json:"p95_us"`
	P99us     uint64  `json:"p99_us"`
	MaxUs     uint64  `json:"max_us"`
	// Resilience counters: failed batches are counted per connection and
	// the run continues, rather than aborting the sweep on the first
	// broken connection. Retries/Reconnects sum the WireKV self-healing
	// work across connections.
	Errors     int64  `json:"errors"`
	Retries    uint64 `json:"retries"`
	Reconnects uint64 `json:"reconnects"`
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
			srv.Close() // stops the shard loops New started
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

// RunNet seeds the target and drives the measured phase. Self-hosted mode
// boots a server, runs, and tears it down; targeting a live Addr it issues
// FLUSHALL first so successive points start from the same state.
func RunNet(np NetParams) (NetPoint, error) {
	p := np.Workload
	if err := p.Mix.Validate(); err != nil {
		return NetPoint{}, err
	}
	if p.Users < p.Threads {
		return NetPoint{}, fmt.Errorf("retwis: need at least one user per connection (%d < %d)", p.Users, p.Threads)
	}
	if np.Pipeline <= 0 {
		np.Pipeline = 8
	}

	addr, label, _, graph, closeTarget, err := seedTarget(np.Addr, np.Shards, p)
	if err != nil {
		return NetPoint{}, err
	}
	defer closeTarget()

	partUsers := make([][]UserID, p.Threads)
	for u := 0; u < p.Users; u++ {
		t := owner(UserID(u), p.Threads)
		partUsers[t] = append(partUsers[t], UserID(u))
	}

	var (
		stop     atomic.Bool
		begin    = make(chan struct{})
		started  sync.WaitGroup
		finished sync.WaitGroup
		ops      = make([]int64, p.Threads)
		cmds     = make([]int64, p.Threads)
		hists    = make([]stats.LatencyHist, p.Threads)
		errCount = make([]int64, p.Threads)
		firstErr = make([]error, p.Threads)
		wstats   = make([]WireStats, p.Threads)
	)

	worker := func(tid int) {
		defer finished.Done()
		kv, err := DialKVConfig(addr, np.Wire)
		if err != nil {
			// A connection that never came up is counted, not fatal: the
			// rest of the sweep still measures.
			errCount[tid]++
			firstErr[tid] = err
			started.Done()
			return
		}
		defer func() { wstats[tid] = kv.Stats() }()
		cl := NewNetClient(kv, graph)
		defer cl.Close()
		gen := NewGenerator(tid, p, partUsers[tid], false)
		h := &hists[tid]

		// oneBatch executes one pipeline flush; a failed batch is counted
		// and the worker moves on — WireKV has already torn down and will
		// redial on the next flush.
		oneBatch := func() {
			for i := 0; i < np.Pipeline; i++ {
				cl.AppendOp(gen.Next())
			}
			n := cl.Pending()
			t0 := time.Now()
			if err := cl.Flush(); err != nil {
				errCount[tid]++
				if firstErr[tid] == nil {
					firstErr[tid] = err
				}
				return
			}
			h.Record(uint64(time.Since(t0).Microseconds()))
			ops[tid] += int64(np.Pipeline)
			cmds[tid] += int64(n)
		}

		started.Done()
		<-begin
		if p.OpsPerThread > 0 {
			for done := 0; done < p.OpsPerThread; done += np.Pipeline {
				oneBatch()
			}
		} else {
			for !stop.Load() {
				oneBatch()
			}
		}
	}

	started.Add(p.Threads)
	finished.Add(p.Threads)
	for tid := 0; tid < p.Threads; tid++ {
		go worker(tid)
	}
	started.Wait()
	t0 := time.Now()
	close(begin)
	if p.OpsPerThread == 0 {
		time.Sleep(p.Duration)
		stop.Store(true)
	}
	finished.Wait()
	elapsed := time.Since(t0)

	var all stats.LatencyHist
	var totalOps, totalCmds, totalErrs int64
	var totalRetries, totalReconnects uint64
	var sampleErr error
	for tid := 0; tid < p.Threads; tid++ {
		all.Merge(&hists[tid])
		totalOps += ops[tid]
		totalCmds += cmds[tid]
		totalErrs += errCount[tid]
		totalRetries += wstats[tid].Retries
		totalReconnects += wstats[tid].Reconnects
		if sampleErr == nil {
			sampleErr = firstErr[tid]
		}
	}
	if totalOps == 0 && totalErrs > 0 {
		// Nothing at all got through: there is no point to report.
		return NetPoint{}, fmt.Errorf("retwis: every batch failed (%d errors, first: %w)", totalErrs, sampleErr)
	}
	return NetPoint{
		Store:      label,
		Conns:      p.Threads,
		Pipeline:   np.Pipeline,
		Users:      p.Users,
		Ops:        totalOps,
		Commands:   totalCmds,
		ElapsedMS:  float64(elapsed.Microseconds()) / 1e3,
		OpsPerSec:  float64(totalOps) / elapsed.Seconds(),
		P50us:      all.Percentile(0.50),
		P95us:      all.Percentile(0.95),
		P99us:      all.Percentile(0.99),
		MaxUs:      all.Max(),
		Errors:     totalErrs,
		Retries:    totalRetries,
		Reconnects: totalReconnects,
	}, nil
}

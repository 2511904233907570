// Package loadgen drives a pool of executors through a fixed number of
// jobs under one of three arrival processes, and measures every job's
// latency from the moment it was due.
//
// The open processes (Poisson, Uniform) schedule arrivals at a target rate,
// and each operation's latency runs from its *intended* start — the moment
// the schedule said it should begin — to its completion, not from when a
// worker finally got around to sending it. The closed process has no clock:
// each worker issues its next batch only after the previous one returns.
//
// That distinction is the whole point. Under the closed process a server
// stall silently paces the client down: the stalled request measures slow,
// but the requests that *would have arrived* during the stall are never
// issued and never measured. This is coordinated omission, and it hides
// exactly the queueing delay a production latency SLO cares about. An open
// process keeps the clock honest: arrivals are fixed in advance, a stalled
// connection makes subsequent arrivals queue, and their recorded latency
// grows by the wait. The closed process is kept for what it does measure —
// service time and capacity.
//
// Under an open process the dispatcher never blocks on slow workers: the
// backlog between the clock and the worker pool is a bounded queue, and an
// arrival that finds it full is counted as dropped rather than delaying the
// schedule. Dropped arrivals are load the system failed to absorb — they
// are reported in the Result, and a nonzero count marks the point as past
// saturation.
package loadgen

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/adjusted-objects/dego/internal/stats"
)

// Process selects the arrival process.
type Process uint8

// Arrival processes.
const (
	// Poisson draws exponential inter-arrival gaps (memoryless arrivals,
	// the standard open-system model).
	Poisson Process = iota
	// Uniform spaces arrivals exactly 1/rate apart (fixed interval).
	Uniform
	// Closed has no clock and no backlog: each worker claims the next
	// Batch jobs as soon as its previous Exec returned, and a job's
	// latency runs from that claim. Rate and Duration are not read.
	Closed
)

// String returns the process label used in frontier JSON.
func (p Process) String() string {
	switch p {
	case Uniform:
		return "uniform"
	case Closed:
		return "closed"
	}
	return "poisson"
}

// ParseProcess parses a process label.
func ParseProcess(s string) (Process, error) {
	switch s {
	case "poisson", "":
		return Poisson, nil
	case "uniform", "fixed":
		return Uniform, nil
	case "closed":
		return Closed, nil
	}
	return 0, fmt.Errorf("loadgen: unknown arrival process %q (want poisson, uniform or closed)", s)
}

// Config is one run.
type Config struct {
	// Rate is the target arrival rate in operations per second.
	Rate float64
	// Count is the number of jobs; 0 derives it from Rate*Duration (the
	// closed process needs it set).
	Count int
	// Duration is the schedule horizon used when Count is 0.
	Duration time.Duration
	// Process is the arrival process (default Poisson).
	Process Process
	// Seed roots the arrival schedule; the same seed yields a
	// byte-identical schedule (see Schedule).
	Seed int64
	// Workers is the executor pool size (default 1). Each worker owns one
	// Executor — one connection, in the networked case.
	Workers int
	// Batch is the most jobs one Exec call coalesces (default 1). Under an
	// open process a worker drains what the backlog holds up to this depth,
	// so batching only happens when arrivals outpace the pool — latency is
	// still recorded per job from its own intended start. A closed worker
	// always claims Batch jobs, fewer only at the end of the run.
	Batch int
	// QueueCap bounds the backlog between the clock and the pool (default
	// 1024). Arrivals that find it full are dropped and counted, never
	// blocking the schedule.
	QueueCap int
}

func (c *Config) fill() error {
	if c.Process != Closed {
		if c.Rate <= 0 {
			return errors.New("loadgen: Rate must be positive")
		}
		if c.Count == 0 {
			c.Count = int(c.Rate * c.Duration.Seconds())
		}
	}
	if c.Count <= 0 {
		return errors.New("loadgen: need Count > 0 or a positive Duration")
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Batch <= 0 {
		c.Batch = 1
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 1024
	}
	return nil
}

// Job is one scheduled arrival. Index is its position in the schedule (and
// in any pre-drawn op sequence); Intended is the wall-clock moment the
// schedule assigned it, or for a closed worker the moment it claimed it.
type Job struct {
	Index    int
	Intended time.Time
}

// Executor runs batches of jobs. One Executor serves one worker goroutine;
// Exec returns when every job in the batch has completed (for a pipelined
// network client: last reply read), and an error fails the whole batch.
type Executor interface {
	Exec(jobs []Job) error
	Close() error
}

// Result is one run's accounting. Scheduled = Executed + Errors +
// Dropped always holds: every arrival is either completed, failed, or
// shed at the full backlog.
type Result struct {
	Scheduled uint64
	Executed  uint64 // jobs whose batch completed
	Errors    uint64 // jobs in batches whose Exec failed
	Dropped   uint64 // arrivals shed at a full backlog
	Elapsed   time.Duration
	// Latency is intended-start → completion in microseconds, the
	// coordinated-omission-free distribution. Failed and dropped jobs are
	// not in it — they are accounted above instead.
	Latency stats.LatencyHist
	// Lag is intended-start → dispatch in microseconds: how far the clock
	// goroutine itself ran behind schedule. A heavy tail here means the
	// target rate exceeds what the generator can even dispatch, so the
	// latency histogram is measuring the harness, not the system. A closed
	// run has no clock and leaves it empty.
	Lag stats.LatencyHist
}

// Schedule returns the deterministic arrival schedule for n arrivals at
// rate per second: offsets from the run start, strictly non-decreasing.
// The same (process, rate, n, seed) yields a byte-identical schedule on
// any machine, which is what makes frontier JSONs reproducible.
func Schedule(process Process, rate float64, n int, seed int64) []time.Duration {
	offsets := make([]time.Duration, n)
	switch process {
	case Uniform:
		interval := float64(time.Second) / rate
		for i := range offsets {
			offsets[i] = time.Duration(float64(i) * interval)
		}
	default: // Poisson
		rng := rand.New(rand.NewSource(seed))
		t := 0.0
		for i := range offsets {
			t += rng.ExpFloat64() / rate * float64(time.Second)
			offsets[i] = time.Duration(t)
		}
	}
	return offsets
}

type workerTally struct {
	executed uint64
	errors   uint64
	lat      stats.LatencyHist
}

// Run executes cfg against a pool built by newWorker (called sequentially,
// once per worker, before the clock starts). It returns when every job has
// been executed, failed or dropped.
func Run(cfg Config, newWorker func(id int) (Executor, error)) (Result, error) {
	if err := cfg.fill(); err != nil {
		return Result{}, err
	}
	var offsets []time.Duration
	if cfg.Process != Closed {
		offsets = Schedule(cfg.Process, cfg.Rate, cfg.Count, cfg.Seed)
	}

	workers := make([]Executor, cfg.Workers)
	for i := range workers {
		w, err := newWorker(i)
		if err != nil {
			for _, prev := range workers[:i] {
				prev.Close()
			}
			return Result{}, fmt.Errorf("loadgen: worker %d: %w", i, err)
		}
		workers[i] = w
	}

	queue := make(chan Job, cfg.QueueCap)
	// next refills batch with a worker's next jobs; empty means done. A
	// closed worker claims from the shared counter, an open one drains the
	// backlog.
	var claimed atomic.Int64
	next := func(batch []Job) []Job {
		batch = batch[:0]
		if cfg.Process == Closed {
			end := int(claimed.Add(int64(cfg.Batch)))
			now := time.Now()
			for i := end - cfg.Batch; i < min(end, cfg.Count); i++ {
				batch = append(batch, Job{Index: i, Intended: now})
			}
			return batch
		}
		j, ok := <-queue
		if !ok {
			return batch
		}
		batch = append(batch, j)
		for len(batch) < cfg.Batch {
			select {
			case j2, ok := <-queue:
				if !ok {
					return batch
				}
				batch = append(batch, j2)
			default:
				return batch
			}
		}
		return batch
	}

	// Closed workers wait for the clock to start, so Elapsed covers their
	// first claim; open ones wait on the backlog anyway.
	begin := make(chan struct{})
	tallies := make([]workerTally, cfg.Workers)
	var wg sync.WaitGroup
	wg.Add(cfg.Workers)
	for i := range workers {
		go func(id int) {
			defer wg.Done()
			ex := workers[id]
			defer ex.Close()
			tally := &tallies[id]
			batch := make([]Job, 0, cfg.Batch)
			if cfg.Process == Closed {
				<-begin
			}
			for batch = next(batch); len(batch) > 0; batch = next(batch) {
				if err := ex.Exec(batch); err != nil {
					tally.errors += uint64(len(batch))
					continue
				}
				for _, jb := range batch {
					tally.lat.RecordSince(jb.Intended)
				}
				tally.executed += uint64(len(batch))
			}
		}(i)
	}

	res := Result{Scheduled: uint64(cfg.Count)}
	t0 := time.Now()
	close(begin)
	// Pacing is a plain sleep: the timer overshoots by some hundreds of
	// microseconds per wake, and that overshoot lands in every measured
	// latency. Spinning the gap away is tempting but wrong on small
	// machines — a busy dispatcher starves the very workers (and an
	// in-process server) it feeds. The honest answer is the Lag histogram:
	// it records exactly how far the clock ran behind, so a reader can
	// subtract the harness from the system.
	for i, off := range offsets {
		intended := t0.Add(off)
		if d := time.Until(intended); d > 0 {
			time.Sleep(d)
		}
		// Behind schedule (sleep overshoot or a too-high target rate): no
		// catch-up sleep, dispatch immediately and record the lag.
		res.Lag.RecordSince(intended)
		select {
		case queue <- Job{Index: i, Intended: intended}:
		default:
			res.Dropped++
		}
	}
	close(queue)
	wg.Wait()
	res.Elapsed = time.Since(t0)

	for i := range tallies {
		res.Executed += tallies[i].executed
		res.Errors += tallies[i].errors
		res.Latency.Merge(&tallies[i].lat)
	}
	return res, nil
}

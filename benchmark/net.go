package main

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"github.com/adjusted-objects/dego/internal/loadgen"
	"github.com/adjusted-objects/dego/internal/retwis"
	"github.com/adjusted-objects/dego/internal/server"
	"github.com/adjusted-objects/dego/internal/wire"
)

const (
	// shards of every served store: one event loop per core.
	shards = 2
	// warmDepth is the pipeline depth of warm-up traffic, whatever depth the
	// measured phase uses.
	warmDepth = 16
	// openRate is net_table2_open's fixed offered load in ops/s: roughly a
	// quarter of net_table2_p16's capacity on the 2-core reference box.
	openRate = 20000
	// openBatch is loadgen's coalescing cap. openQueue is its backlog: 0.8 s
	// of arrivals, because this box's host stalls the whole process for up
	// to 200 ms a few times an hour and at 1024 that sheds load; a stall
	// must show as latency, not fail the run.
	openBatch = 8
	openQueue = 16384
	// timelineFloor is the fewest entries the two hottest users' timelines
	// must hold after a net_read_p1 trial: below it the measured reads were
	// not the large-reply reads the workload is there for.
	timelineFloor = 40
)

var storeConfig = server.StoreConfig{Shards: shards, Kind: server.StoreAdaptive}

// netShape is what distinguishes the two closed-loop net workloads.
type netShape struct {
	users    int
	depth    int  // workload ops per measured flush
	warmOps  int  // Table-2 warm-up ops per connection, at warmDepth
	ops      int  // measured ops per connection
	readOnly bool // measured ops are Timeline reads of the drawn acting user
}

// netExtra is what the per-layer run reads off a net trial.
type netExtra struct {
	cycleNs    int64 // Σ over workers of the measured loop's wall time
	accepted   uint64
	panics     uint64
	retries    uint64
	reconnects uint64
	lagP50us   uint64
	lagP99us   uint64
	dropped    uint64
	achieved   float64 // achieved ÷ target rate (open loop)
}

// stream is a closed-loop net workload's deterministic op source: one
// generator per connection over its partition of the users, exactly as
// retwis.RunNet draws them. The timed run and the layer replay both pull
// from a stream, so they see the same commands.
type stream struct {
	p     retwis.Params
	graph *retwis.Graph
	gens  []*retwis.Generator
	shape netShape
	// drawn, when set, replaces the generators: the open loop's single
	// global stream (retwis.DrawOps), consumed in order by whoever fills.
	drawn []retwis.Op
}

func newStream(seed int64, shape netShape) *stream {
	p := params(seed, shape.users)
	s := &stream{p: p, graph: retwis.BuildGraph(graphParams(shape.users)), shape: shape}
	parts := partition(p)
	s.gens = make([]*retwis.Generator, p.Threads)
	for w := range s.gens {
		s.gens[w] = retwis.NewGenerator(w, p, parts[w], false)
	}
	return s
}

// fill appends connection w's next flush to cl and returns how many posts
// it holds. Warm-up flushes are always Table-2 ops.
func (s *stream) fill(w int, cl *retwis.NetClient, warm bool) (posts int64) {
	depth := s.shape.depth
	if warm {
		depth = warmDepth
	}
	for i := 0; i < depth; i++ {
		var op retwis.Op
		if s.drawn != nil {
			op, s.drawn = s.drawn[0], s.drawn[1:]
		} else {
			op = s.gens[w].Next()
		}
		if !warm && s.shape.readOnly {
			op = retwis.Op{Kind: retwis.OpTimeline, User: op.User}
		}
		if op.Kind == retwis.OpPost {
			posts++
		}
		cl.AppendOp(op)
	}
	return posts
}

// warm drives connection w's warm-up ops through cl.
func (s *stream) warm(w int, cl *retwis.NetClient) (posts int64, err error) {
	for done := 0; done < s.shape.warmOps; done += warmDepth {
		posts += s.fill(w, cl, true)
		if err := cl.Flush(); err != nil {
			return posts, fmt.Errorf("warm-up flush: %w", err)
		}
	}
	return posts, nil
}

// hosted is a dego-server running inside the benchmark process.
type hosted struct {
	srv    *server.Server
	served chan error
}

func boot() (*hosted, error) {
	srv, err := server.New(server.Config{Store: storeConfig})
	if err != nil {
		return nil, err
	}
	if err := srv.Listen(); err != nil {
		srv.Close()
		return nil, err
	}
	h := &hosted{srv: srv, served: make(chan error, 1)}
	go func() { h.served <- srv.Serve() }()
	return h, nil
}

func (h *hosted) addr() string { return h.srv.Addr().String() }

// stop closes the server and waits for Serve to return.
func (h *hosted) stop() error {
	if err := h.srv.Close(); err != nil {
		return err
	}
	if err := <-h.served; !errors.Is(err, server.ErrServerClosed) {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// seedOver loads the initial state through one throw-away connection.
func seedOver(addr string, p retwis.Params, graph *retwis.Graph) error {
	kv, err := retwis.DialKV(addr)
	if err != nil {
		return err
	}
	defer kv.Close()
	return retwis.SeedKV(kv, p, graph)
}

// storeInt reads an integer-valued string key straight from the store; a
// missing key reads as 0.
func storeInt(st *server.Store, key string) (int64, error) {
	rep := st.Exec([][]byte{[]byte("GET"), []byte(key)})
	switch rep.Kind {
	case wire.KindNull:
		return 0, nil
	case wire.KindBulk:
		return strconv.ParseInt(string(rep.Bulk), 10, 64)
	}
	return 0, fmt.Errorf("GET %s: unexpected reply %s", key, rep)
}

// checkServed is the after-trial check every net workload shares: the
// server counted exactly the posts the clients issued, and recovered no
// panic.
func checkServed(h *hosted, posts int64) error {
	got, err := storeInt(h.srv.Store(), "stat:posts")
	if err != nil {
		return err
	}
	if got != posts {
		return fmt.Errorf("stat:posts = %d, clients issued %d posts", got, posts)
	}
	if st := h.srv.Stats(); st.Panics != 0 {
		return fmt.Errorf("server recovered %d panics", st.Panics)
	}
	return nil
}

// closedTrial boots a fresh server, seeds and warms it, and drives a fixed
// number of ops per connection in a closed loop: each connection sends its
// next flush only after the previous one's last reply.
func closedTrial(seed int64, shape netShape, pr probe) (t trial, err error) {
	if shape.ops < shape.depth {
		return t, fmt.Errorf("closed trial needs at least one flush of %d ops", shape.depth)
	}
	t0 := time.Now()
	h, err := boot()
	if err != nil {
		return t, err
	}
	defer func() {
		if serr := h.stop(); err == nil {
			err = serr
		}
	}()
	st := newStream(seed, shape)
	if err := seedOver(h.addr(), st.p, st.graph); err != nil {
		return t, fmt.Errorf("seed: %w", err)
	}

	kvs := make([]*retwis.WireKV, workers)
	cls := make([]*retwis.NetClient, workers)
	for w := range cls {
		kv, err := retwis.DialKV(h.addr())
		if err != nil {
			return t, err
		}
		defer kv.Close()
		kvs[w], cls[w] = kv, retwis.NewNetClient(kv, st.graph)
	}

	type tally struct {
		posts, ops, failed, cmds, loopNs int64
		samples                          []int64
		err                              error
	}
	tallies := make([]tally, workers)
	flushes := shape.ops / shape.depth
	var wg sync.WaitGroup
	for w := range tallies {
		tallies[w].samples = make([]int64, 0, flushes)
		wg.Add(1)
		go func() {
			defer wg.Done()
			tallies[w].posts, tallies[w].err = st.warm(w, cls[w])
		}()
	}
	wg.Wait()
	for w := range tallies {
		if tallies[w].err != nil {
			return t, tallies[w].err
		}
	}
	setup := time.Since(t0)

	var (
		begin   = make(chan struct{})
		started sync.WaitGroup
	)
	started.Add(workers)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			ty, cl := &tallies[w], cls[w]
			started.Done()
			<-begin
			loop0 := time.Now()
			for f := 0; f < flushes; f++ {
				ty.posts += st.fill(w, cl, false)
				n := cl.Pending()
				sent := time.Now()
				err := cl.Flush()
				d := time.Since(sent)
				if err != nil {
					ty.failed += int64(shape.depth)
					if ty.err == nil {
						ty.err = err
					}
					continue
				}
				ty.samples = append(ty.samples, int64(d))
				ty.ops += int64(shape.depth)
				ty.cmds += int64(n)
			}
			ty.loopNs = int64(time.Since(loop0))
		}()
	}
	started.Wait()
	t.ph.begin()
	close(begin)
	wg.Wait()
	t.ph.end()

	t.setup = setup
	var posts int64
	for w := range tallies {
		ty := &tallies[w]
		t.ops += ty.ops
		t.failed += ty.failed
		t.cmds += ty.cmds
		t.flushes += int64(len(ty.samples))
		t.samples = append(t.samples, ty.samples...)
		t.net.cycleNs += ty.loopNs
		posts += ty.posts
		ws := kvs[w].Stats()
		t.net.retries += ws.Retries
		t.net.reconnects += ws.Reconnects
		if ty.err != nil && err == nil {
			err = fmt.Errorf("connection %d: %w", w, ty.err)
		}
	}
	if err != nil {
		return t, err
	}
	if err := checkServed(h, posts); err != nil {
		return t, err
	}
	if shape.readOnly {
		for w := 0; w < workers; w++ {
			// User w is the head of connection w's Zipf draw: most measured
			// reads were of its timeline.
			key := "timeline:" + strconv.Itoa(w)
			rep := h.srv.Store().Exec([][]byte{[]byte("LRANGE"), []byte(key), []byte("0"), []byte("49")})
			if rep.Kind != wire.KindArray || len(rep.Elems) < timelineFloor {
				return t, fmt.Errorf("%s holds %d entries after warm-up, want at least %d",
					key, len(rep.Elems), timelineFloor)
			}
		}
	}
	t.served(h, posts, pr)
	return t, nil
}

// served records what the per-layer run reads off the server after a trial
// that passed its checks.
func (t *trial) served(h *hosted, posts int64, pr probe) {
	stats := h.srv.Stats()
	t.net.accepted, t.net.panics = stats.Accepted, stats.Panics
	t.state = posts
	if pr.heap {
		t.heapMB = liveHeapMB(h)
	}
}

// openExec is one open-loop worker: a NetClient over its own connection,
// executing scheduled jobs by index into the pre-drawn op stream and keeping
// each job's raw latency from its intended start.
type openExec struct {
	cl     *retwis.NetClient
	kv     *retwis.WireKV
	ops    []retwis.Op
	lat    []int64
	execs  int64
	execNs int64
	cmds   int64
	posts  int64
}

func (e *openExec) Exec(jobs []loadgen.Job) error {
	t := time.Now()
	for _, j := range jobs {
		op := e.ops[j.Index]
		if op.Kind == retwis.OpPost {
			e.posts++
		}
		e.cl.AppendOp(op)
	}
	n := e.cl.Pending()
	if err := e.cl.Flush(); err != nil {
		return err
	}
	now := time.Now()
	for _, j := range jobs {
		e.lat = append(e.lat, int64(now.Sub(j.Intended)))
	}
	e.execs++
	e.execNs += int64(now.Sub(t))
	e.cmds += int64(n)
	return nil
}

func (e *openExec) Close() error { return e.cl.Close() }

// openTrial boots and seeds a fresh server and offers it arrivals ops on a
// Poisson schedule at rate ops/s through loadgen.Run.
func openTrial(seed int64, users, arrivals int, rate float64, pr probe) (t trial, err error) {
	t0 := time.Now()
	h, err := boot()
	if err != nil {
		return t, err
	}
	defer func() {
		if serr := h.stop(); err == nil {
			err = serr
		}
	}()
	p := params(seed, users)
	graph := retwis.BuildGraph(graphParams(users))
	if err := seedOver(h.addr(), p, graph); err != nil {
		return t, fmt.Errorf("seed: %w", err)
	}
	ops := retwis.DrawOps(p, arrivals)

	cfg := loadgen.Config{
		Rate: rate, Count: arrivals, Process: loadgen.Poisson, Seed: seed,
		Workers: workers, Batch: openBatch, QueueCap: openQueue,
	}
	execs := make([]*openExec, 0, workers)
	res, err := loadgen.Run(cfg, func(id int) (loadgen.Executor, error) {
		kv, err := retwis.DialKV(h.addr())
		if err != nil {
			return nil, err
		}
		execs = append(execs, &openExec{
			cl: retwis.NewNetClient(kv, graph), kv: kv, ops: ops,
			lat: make([]int64, 0, arrivals),
		})
		if id == workers-1 {
			// loadgen starts its clock right after the last dial.
			t.setup = time.Since(t0)
			t.ph.begin()
		}
		return execs[id], nil
	})
	t.ph.end()
	if err != nil {
		return t, err
	}
	// loadgen's own clock starts a goroutine spawn after ph.begin and stops
	// when the backlog has drained: the schedule's elapsed time, not ours.
	t.ph.elapsed = res.Elapsed

	var posts int64
	for _, e := range execs {
		t.samples = append(t.samples, e.lat...)
		t.flushes += e.execs
		t.cmds += e.cmds
		t.net.cycleNs += e.execNs
		posts += e.posts
		ws := e.kv.Stats()
		t.net.retries += ws.Retries
		t.net.reconnects += ws.Reconnects
	}
	t.ops = int64(res.Executed)
	t.failed = int64(res.Errors + res.Dropped)
	t.net.dropped = res.Dropped
	t.net.lagP50us = res.Lag.Percentile(0.50)
	t.net.lagP99us = res.Lag.Percentile(0.99)
	t.net.achieved = float64(res.Executed) / res.Elapsed.Seconds() / rate

	switch {
	case res.Scheduled != res.Executed+res.Errors+res.Dropped:
		return t, fmt.Errorf("open loop lost arrivals: scheduled %d != executed %d + errors %d + dropped %d",
			res.Scheduled, res.Executed, res.Errors, res.Dropped)
	case res.Dropped != 0 || res.Errors != 0:
		return t, fmt.Errorf("open loop shed load: %d dropped, %d errors", res.Dropped, res.Errors)
	}
	if err := checkServed(h, posts); err != nil {
		return t, err
	}
	t.served(h, posts, pr)
	return t, nil
}

package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"github.com/adjusted-objects/dego"
	"github.com/adjusted-objects/dego/internal/flatmap"
	"github.com/adjusted-objects/dego/internal/hashmap"
	"github.com/adjusted-objects/dego/internal/retwis"
	"github.com/adjusted-objects/dego/internal/server"
	"github.com/adjusted-objects/dego/internal/stats"
	"github.com/adjusted-objects/dego/internal/wire"
)

// Which workloads a per-layer metric is specified for.
const (
	onLib = 1 << iota
	onClosed
	onOpen
	onNet = onClosed | onOpen
	onAll = onLib | onNet
)

// layerMetric is one entry of the per-layer catalogue. BENCHMARK.json lists
// the same names and units (bench_test.go holds the two together). A
// workload's result line carries every name; the ones not specified for it
// — its layers do not run there — read 0.
type layerMetric struct {
	name, unit string
	on         int
}

var perLayer = []layerMetric{
	// Representation: single thread, sz.repKeys random string keys.
	{"rep.striped_get_ns", "ns", onAll},
	{"rep.striped_put_ns", "ns", onAll},
	{"rep.segmented_get_ns", "ns", onAll},
	{"rep.segmented_put_ns", "ns", onAll},
	{"rep.adaptive_get_ns", "ns", onAll},
	{"rep.adaptive_put_ns", "ns", onAll},
	{"rep.flat_get_ns", "ns", onAll},
	{"rep.flat_put_ns", "ns", onAll},
	{"rep.adaptive_allocs_per_put", "count", onAll},
	{"rep.flat_allocs_per_put", "count", onAll},
	{"rep.adaptive_get_small_ns", "ns", onAll},

	// internal/retwis backends, from the traced lib run and one short trial
	// per backend kind.
	{"retwis.adduser_ns", "ns", onLib},
	{"retwis.follow_ns", "ns", onLib},
	{"retwis.post_ns", "ns", onLib},
	{"retwis.timeline_ns", "ns", onLib},
	{"retwis.group_ns", "ns", onLib},
	{"retwis.profile_ns", "ns", onLib},
	{"retwis.adduser_share", "share", onLib},
	{"retwis.follow_share", "share", onLib},
	{"retwis.post_share", "share", onLib},
	{"retwis.timeline_share", "share", onLib},
	{"retwis.group_share", "share", onLib},
	{"retwis.profile_share", "share", onLib},
	{"retwis.juc_ops_per_s", "1/s", onLib},
	{"retwis.flat_ops_per_s", "1/s", onLib},
	{"retwis.adaptive_ops_per_s", "1/s", onLib},
	{"retwis.dap_ops_per_s", "1/s", onLib},
	{"retwis.dego_vs_juc", "ratio", onLib},

	// The Adjusted* wrapper over the adaptive map, planned as a shard's.
	{"wrapper.map_get_ns", "ns", onNet},
	{"wrapper.map_put_ns", "ns", onNet},
	{"wrapper.map_get_rec_ns", "ns", onNet},
	{"wrapper.map_put_rec_ns", "ns", onNet},
	{"wrapper.get_overhead_ratio", "ratio", onNet},
	{"wrapper.put_overhead_ratio", "ratio", onNet},

	// internal/server Store: plan + mailbox + shard exec.
	{"store.execbatch_ns_per_cmd", "ns", onNet},
	{"store.execbatch_allocs_per_cmd", "count", onNet},
	{"store.execbatch_bytes_per_cmd", "B", onNet},
	{"store.share", "share", onNet},
	{"store.exec1_ns", "ns", onNet},

	// internal/wire.
	{"wire.encode_cmd_ns_per_cmd", "ns", onNet},
	{"wire.decode_cmd_ns_per_cmd", "ns", onNet},
	{"wire.encode_reply_ns_per_cmd", "ns", onNet},
	{"wire.decode_reply_ns_per_cmd", "ns", onNet},
	{"wire.decode_cmd_allocs_per_cmd", "count", onNet},
	{"wire.decode_reply_allocs_per_cmd", "count", onNet},
	{"wire.cmd_bytes_per_cmd", "B", onNet},
	{"wire.reply_bytes_per_cmd", "B", onNet},
	{"wire.server_share", "share", onNet},
	{"wire.client_share", "share", onNet},

	// Connection handler + TCP: what the replay cannot account for.
	{"conn.rtt_ns_per_flush", "ns", onNet},
	{"conn.residual_ns_per_flush", "ns", onNet},
	{"conn.residual_share", "share", onNet},
	{"conn.accepted", "count", onNet},
	{"conn.panics", "count", onNet},

	// internal/retwis client.
	{"client.expand_ns_per_op", "ns", onNet},
	{"client.expand_share", "share", onNet},
	{"client.cmds_per_op", "count", onNet},
	{"client.rtt_p99_us", "us", onNet},
	{"client.rtt_p999_us", "us", onNet},
	{"client.retries", "count", onNet},
	{"client.reconnects", "count", onNet},

	// internal/loadgen.
	{"loadgen.lag_p50_us", "us", onOpen},
	{"loadgen.lag_p99_us", "us", onOpen},
	{"loadgen.lat_p99_us", "us", onOpen},
	{"loadgen.lat_p999_us", "us", onOpen},
	{"loadgen.dropped", "count", onOpen},
	{"loadgen.achieved_share", "share", onOpen},
	{"loadgen.batch_mean", "count", onOpen},

	// The process, over the untraced trial of the per-layer run.
	{"proc.allocs_per_op", "count", onAll},
	{"proc.alloc_bytes_per_op", "B", onAll},
	{"proc.gc_cycles", "count", onAll},
	{"proc.gc_pause_total_ms", "ms", onAll},
	{"proc.heap_live_mb_end", "MB", onAll},

	{"trace.overhead_share", "share", onAll},
	{"trace.spans", "count", onAll},
}

// layerSet collects per-layer metrics, taking each unit from the catalogue.
type layerSet map[string]metric

func (ls layerSet) put(name string, v float64) {
	for _, m := range perLayer {
		if m.name == name {
			ls[name] = metric{v, m.unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not in the per-layer catalogue")
}

// runLayers is the per-layer run of one workload. It checks that the
// workload emitted exactly the metrics specified for it, prints them, and
// completes the result line with a 0 for every other catalogue entry.
func runLayers(w workload, seed int64, sz sizes, outDir string) (result, error) {
	var res result
	// One discarded trial first, as in the timed run: a fresh process runs
	// its first second well below speed.
	if _, err := w.trial(seed, sz.warmup(), probe{}); err != nil {
		return res, fmt.Errorf("warm-up trial: %w", err)
	}
	ms, t, err := w.layers(seed, sz, outDir)
	res.Attempted, res.Failed = t.ops+t.failed, t.failed
	if err != nil {
		return res, err
	}
	if t.failed != 0 {
		return res, fmt.Errorf("%d of %d ops failed", t.failed, t.ops+t.failed)
	}
	printMetrics(ms)
	res.Metrics = make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		got, ok := ms[m.name]
		if want := m.on&w.on != 0; ok != want {
			return res, fmt.Errorf("per-layer metric %s: emitted=%v, specified for this workload=%v", m.name, ok, want)
		}
		if !ok {
			got = metric{0, m.unit}
		}
		res.Metrics[m.name] = got
	}
	res.Correct = true
	return res, nil
}

// procMetrics reports the allocation and GC deltas of a trial's measured
// phase.
func (ls layerSet) procMetrics(t trial) {
	d0, d1 := t.ph.mem0, t.ph.mem1
	ls.put("proc.allocs_per_op", float64(d1.mallocs-d0.mallocs)/float64(t.ops))
	ls.put("proc.alloc_bytes_per_op", float64(d1.bytes-d0.bytes)/float64(t.ops))
	ls.put("proc.gc_cycles", float64(d1.gcCycles-d0.gcCycles))
	ls.put("proc.gc_pause_total_ms", float64(d1.gcPause-d0.gcPause)/1e6)
	ls.put("proc.heap_live_mb_end", t.heapMB)
}

// ---------------------------------------------------------------------------
// Representation and wrapper: single-thread map cells.

// cellValue stands for the server's *object: maps hold pointers.
type cellValue struct{ n int64 }

// cellKeys draws n distinct-with-overwhelming-probability random string keys
// and a random visiting order for the gets, so neither phase walks memory
// in allocation order.
func cellKeys(seed int64, n int) (keys []string, order []int32) {
	rng := rand.New(rand.NewSource(seed))
	keys = make([]string, n)
	for i := range keys {
		keys[i] = "k" + strconv.FormatUint(rng.Uint64(), 16)
	}
	order = make([]int32, n)
	for i, j := range rng.Perm(n) {
		order[i] = int32(j)
	}
	return keys, order
}

// cell times one map: insert every key into the empty map preallocated for
// them, then get every key once in random order. Every get is checked.
type cell struct{ putNs, getNs, allocsPerPut float64 }

func runCell[K any](name string, keys []K, order []int32, put func(K, *cellValue), get func(K) (*cellValue, bool)) (cell, error) {
	vals := make([]cellValue, len(keys))
	runtime.GC()
	m0 := readMem()
	t := time.Now()
	for i := range keys {
		put(keys[i], &vals[i])
	}
	putNs := time.Since(t)
	m1 := readMem()
	misses := 0
	t = time.Now()
	for _, j := range order {
		if v, ok := get(keys[j]); !ok || v != &vals[j] {
			misses++
		}
	}
	getNs := time.Since(t)
	if misses != 0 {
		return cell{}, fmt.Errorf("%s: %d of %d gets missed the value that was put", name, misses, len(keys))
	}
	n := float64(len(keys))
	return cell{float64(putNs) / n, float64(getNs) / n, float64(m1.mallocs-m0.mallocs) / n}, nil
}

// shardMapOptions are exactly planShardMap's options for the adaptive store
// kind, the serving default, sized for capacity keys.
func shardMapOptions(reg *dego.Registry, capacity int, record bool) []dego.Option {
	opts := []dego.Option{
		dego.On(reg), dego.Capacity(capacity),
		dego.CommutingWriters(), dego.Adaptive(dego.Ranges(8)),
		dego.Stripes(256), dego.Buckets(capacity * 2),
	}
	if record {
		opts = append(opts, dego.WithUsageRecording())
	}
	return opts
}

// repMetrics measures the raw representations. The adaptive cells call the
// *adaptive.Map a shard-planned dego.Map holds, reached past the wrapper
// through Adaptive(), so wrapper.* ÷ rep.adaptive_* compares like with like.
func (ls layerSet) repMetrics(seed int64, sz sizes) error {
	keys, order := cellKeys(seed, sz.repKeys)
	n := len(keys)
	reg := dego.NewRegistry(4)
	h := reg.MustRegister()
	defer h.Release()

	striped := hashmap.NewStriped[string, *cellValue](256, n, stats.HashString, nil)
	c, err := runCell("striped", keys, order, striped.Put, striped.Get)
	if err != nil {
		return err
	}
	ls.put("rep.striped_put_ns", c.putNs)
	ls.put("rep.striped_get_ns", c.getNs)

	segmented := hashmap.NewSegmented[string, *cellValue](reg, n, 2*n, stats.HashString, false)
	c, err = runCell("segmented", keys, order,
		func(k string, v *cellValue) { segmented.Put(h, k, v) }, segmented.Get)
	if err != nil {
		return err
	}
	ls.put("rep.segmented_put_ns", c.putNs)
	ls.put("rep.segmented_get_ns", c.getNs)

	adaptiveCell := func(keys []string, order []int32) (cell, error) {
		m, err := dego.Map[string, *cellValue](shardMapOptions(reg, len(keys), false)...)
		if err != nil {
			return cell{}, err
		}
		raw := m.Adaptive()
		return runCell("adaptive", keys, order,
			func(k string, v *cellValue) { raw.Put(h, k, v) }, raw.Get)
	}
	if c, err = adaptiveCell(keys, order); err != nil {
		return err
	}
	ls.put("rep.adaptive_put_ns", c.putNs)
	ls.put("rep.adaptive_get_ns", c.getNs)
	ls.put("rep.adaptive_allocs_per_put", c.allocsPerPut)
	small := min(sz.repSmallKeys, n)
	smallOrder := make([]int32, 0, small)
	for _, j := range order {
		if int(j) < small {
			smallOrder = append(smallOrder, j)
		}
	}
	if c, err = adaptiveCell(keys[:small], smallOrder); err != nil {
		return err
	}
	ls.put("rep.adaptive_get_small_ns", c.getNs)

	// The flat family is keyed by uint64: it gets the strings' hashes.
	hashes := make([]uint64, n)
	for i, k := range keys {
		hashes[i] = stats.HashString(k)
	}
	flat := flatmap.NewMap[*cellValue](n, false)
	c, err = runCell("flat", hashes, order,
		func(k uint64, v *cellValue) { flat.Put(h, k, v) }, flat.Get)
	if err != nil {
		return err
	}
	ls.put("rep.flat_put_ns", c.putNs)
	ls.put("rep.flat_get_ns", c.getNs)
	ls.put("rep.flat_allocs_per_put", c.allocsPerPut)
	return nil
}

// wrapperMetrics times the same cell through the AdjustedMap a shard holds,
// with and without usage recording. repMetrics must have run first: the
// overhead ratios divide by its rep.adaptive_* numbers.
func (ls layerSet) wrapperMetrics(seed int64, sz sizes) error {
	keys, order := cellKeys(seed, sz.repKeys)
	reg := dego.NewRegistry(4)
	h := reg.MustRegister()
	defer h.Release()
	for _, record := range []bool{false, true} {
		m, err := dego.Map[string, *cellValue](shardMapOptions(reg, len(keys), record)...)
		if err != nil {
			return err
		}
		c, err := runCell("wrapper", keys, order,
			func(k string, v *cellValue) { m.Put(h, k, v) }, m.Get)
		if err != nil {
			return err
		}
		if record {
			ls.put("wrapper.map_put_rec_ns", c.putNs)
			ls.put("wrapper.map_get_rec_ns", c.getNs)
			continue
		}
		ls.put("wrapper.map_put_ns", c.putNs)
		ls.put("wrapper.map_get_ns", c.getNs)
		ls.put("wrapper.put_overhead_ratio", c.putNs/ls["rep.adaptive_put_ns"].Value)
		ls.put("wrapper.get_overhead_ratio", c.getNs/ls["rep.adaptive_get_ns"].Value)
	}
	return nil
}

// ---------------------------------------------------------------------------
// lib_table2: spans around the Backend calls, and the other backend kinds.

func libLayers(seed int64, sz sizes, outDir string) (layerSet, trial, error) {
	ls := layerSet{}
	runtime.GC()
	plain, err := libTrial(retwis.KindDEGO, seed, sz.libUsers, sz.tracedLibOps, probe{heap: true})
	if err != nil {
		return nil, plain, err
	}
	ls.procMetrics(plain)

	perLane := sz.tracedLibOps + sz.tracedLibOps/libBlock + 1
	tr := newTracer(workers, perLane)
	runtime.GC()
	traced, err := libTrial(retwis.KindDEGO, seed, sz.libUsers, sz.tracedLibOps, probe{tr: tr})
	if err != nil {
		return nil, plain, err
	}
	if _, err := tr.write(outDir, "lib_table2", seed); err != nil {
		return nil, plain, err
	}
	ls.put("trace.spans", float64(tr.count()))
	ls.put("trace.overhead_share", traced.ph.elapsed.Seconds()/plain.ph.elapsed.Seconds()-1)

	aggs := tr.aggregate()
	var backendNs int64
	for name := spanAddUser; name <= spanProfile; name++ {
		backendNs += aggs[name].TotalNs
	}
	for name := spanAddUser; name <= spanProfile; name++ {
		a := aggs[name]
		if a.Count == 0 {
			return nil, plain, fmt.Errorf("traced lib run recorded no %s span", a.Name)
		}
		ls.put(a.Name+"_ns", float64(a.TotalNs)/float64(a.Count))
		ls.put(a.Name+"_share", float64(a.TotalNs)/float64(backendNs))
	}

	rate := map[retwis.Kind]float64{}
	for _, kind := range []retwis.Kind{retwis.KindJUC, retwis.KindDEGO, retwis.KindFLAT, retwis.KindADAPTIVE, retwis.KindDAP} {
		ops := sz.kindOps
		if kind == retwis.KindADAPTIVE {
			// Its pull-model post log makes it some 40× slower than the
			// others here; at their op count it alone would take the run.
			ops = max(ops/32, libBlock)
		}
		runtime.GC()
		t, err := libTrial(kind, seed, sz.libUsers, ops, probe{})
		if err != nil {
			return nil, plain, err
		}
		rate[kind] = float64(t.ops) / t.ph.elapsed.Seconds()
	}
	ls.put("retwis.juc_ops_per_s", rate[retwis.KindJUC])
	ls.put("retwis.flat_ops_per_s", rate[retwis.KindFLAT])
	ls.put("retwis.adaptive_ops_per_s", rate[retwis.KindADAPTIVE])
	ls.put("retwis.dap_ops_per_s", rate[retwis.KindDAP])
	ls.put("retwis.dego_vs_juc", rate[retwis.KindDEGO]/rate[retwis.KindJUC])

	runtime.GC()
	if err := ls.repMetrics(seed, sz); err != nil {
		return nil, plain, err
	}
	return ls, plain, nil
}

// ---------------------------------------------------------------------------
// Net workloads: the layer replay.

// captureKV is the KV the replay's clients flush into: it keeps the expanded
// commands instead of executing them. The captured slice is the client's own
// buffer, valid until its next AppendOp.
type captureKV struct{ cmds [][][]byte }

func (k *captureKV) ExecPipe(cmds [][][]byte) ([]wire.Reply, error) {
	k.cmds = cmds
	return nil, nil
}

func (k *captureKV) Close() error { return nil }

// replayer re-enacts the server's request path in one goroutine with no
// socket: the workload's own op stream is expanded, encoded, decoded,
// executed on a store seeded and warmed like the served one, and the replies
// are encoded and decoded again.
type replayer struct {
	st    *stream
	store *server.Store
	cap   captureKV
	cls   []*retwis.NetClient

	cmdBuf, repBuf bytes.Buffer
	cmdW, repW     *wire.Writer
	cmdR, repR     *wire.Reader

	ops, cmds, cmdBytes, repBytes int64
}

func newReplayer(st *stream) (*replayer, error) {
	store, err := server.NewStore(storeConfig)
	if err != nil {
		return nil, err
	}
	r := &replayer{st: st, store: store}
	local := &retwis.LocalKV{St: store}
	if err := retwis.SeedKV(local, st.p, st.graph); err != nil {
		store.Close()
		return nil, fmt.Errorf("replay seed: %w", err)
	}
	for w := range st.gens {
		if _, err := st.warm(w, retwis.NewNetClient(local, st.graph)); err != nil {
			store.Close()
			return nil, fmt.Errorf("replay warm-up: %w", err)
		}
		r.cls = append(r.cls, retwis.NewNetClient(&r.cap, st.graph))
	}
	r.cmdW, r.cmdR = wire.NewWriter(&r.cmdBuf), wire.NewReader(&r.cmdBuf)
	r.repW, r.repR = wire.NewWriter(&r.repBuf), wire.NewReader(&r.repBuf)
	return r, nil
}

// The six stages of one flush. Each works on what the previous one left.

func (r *replayer) expand(w int) [][][]byte {
	r.st.fill(w, r.cls[w], false)
	r.cls[w].Flush() // into captureKV: cannot fail
	r.ops += int64(r.st.shape.depth)
	r.cmds += int64(len(r.cap.cmds))
	return r.cap.cmds
}

func (r *replayer) encodeCmds(cmds [][][]byte) error {
	for _, cm := range cmds {
		if err := r.cmdW.WriteCommand(cm...); err != nil {
			return err
		}
	}
	if err := r.cmdW.Flush(); err != nil {
		return err
	}
	r.cmdBytes += int64(r.cmdBuf.Len())
	return nil
}

func (r *replayer) decodeCmds(n int, into [][][]byte) ([][][]byte, error) {
	for i := 0; i < n; i++ {
		cm, err := r.cmdR.ReadCommand()
		if err != nil {
			return nil, err
		}
		into = append(into, cm)
	}
	return into, nil
}

func (r *replayer) encodeReplies(reps []wire.Reply) error {
	for _, rep := range reps {
		if err := r.repW.WriteReply(rep); err != nil {
			return err
		}
	}
	if err := r.repW.Flush(); err != nil {
		return err
	}
	r.repBytes += int64(r.repBuf.Len())
	return nil
}

func (r *replayer) decodeReplies(n int) error {
	for i := 0; i < n; i++ {
		rep, err := r.repR.ReadReply()
		if err != nil {
			return err
		}
		if rep.IsError() {
			return fmt.Errorf("replayed command answered %s", rep)
		}
	}
	return nil
}

// run replays flushes flushes, alternating between the connections' streams,
// and returns the loop's wall time. With tr set every stage is a span, child
// of its flush's request span.
func (r *replayer) run(flushes int, tr *tracer) (time.Duration, error) {
	var (
		err     error
		cmds    [][][]byte
		decoded = make([][][]byte, 0, 64)
		reps    []wire.Reply
		flush   int // the request id of every span
		req     int // the open request span
	)
	stage := func(name spanName, f func()) {
		if err != nil {
			return
		}
		if tr == nil {
			f()
			return
		}
		s := tr.begin(0, name, req, flush)
		f()
		tr.end(0, s)
	}
	t0 := time.Now()
	for flush = 0; flush < flushes && err == nil; flush++ {
		w := flush % len(r.cls)
		if tr != nil {
			req = tr.begin(0, spanRequest, -1, flush)
		}
		stage(spanExpand, func() { cmds = r.expand(w) })
		stage(spanEncodeCmd, func() { err = r.encodeCmds(cmds) })
		stage(spanDecodeCmd, func() { decoded, err = r.decodeCmds(len(cmds), decoded[:0]) })
		stage(spanExecBatch, func() { reps = r.store.ExecBatch(decoded) })
		stage(spanEncodeReply, func() { err = r.encodeReplies(reps) })
		stage(spanDecodeReply, func() { err = r.decodeReplies(len(reps)) })
		if tr != nil {
			tr.end(0, req)
		}
	}
	return time.Since(t0), err
}

// allocDelta is what one stage-only loop allocated.
type allocDelta struct{ mallocs, bytes uint64 }

// stageAllocs is the allocations of the three stages they are reported for,
// each stage run alone, and the commands they processed.
type stageAllocs struct {
	cmds                           int64
	decodeCmd, execBatch, decodeRe allocDelta
}

// stageAllocs expands flushes flushes, then runs each stage over all of them
// before the next stage starts, with ReadMemStats around the stage.
func (r *replayer) stageAllocs(flushes int) (stageAllocs, error) {
	var sa stageAllocs
	all := make([][][][]byte, flushes)
	for f := range all {
		all[f] = append([][][]byte(nil), r.expand(f%len(r.cls))...)
		sa.cmds += int64(len(all[f]))
	}
	delta := func(f func() error) (allocDelta, error) {
		m0 := readMem()
		err := f()
		m1 := readMem()
		return allocDelta{m1.mallocs - m0.mallocs, m1.bytes - m0.bytes}, err
	}
	for _, cmds := range all {
		if err := r.encodeCmds(cmds); err != nil {
			return sa, err
		}
	}
	decoded := make([][][][]byte, flushes)
	for f, cmds := range all {
		decoded[f] = make([][][]byte, 0, len(cmds)) // the handler reuses its slice too
	}
	var err error
	sa.decodeCmd, err = delta(func() error {
		for f, cmds := range all {
			if decoded[f], err = r.decodeCmds(len(cmds), decoded[f]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return sa, err
	}
	replies := make([][]wire.Reply, flushes)
	sa.execBatch, _ = delta(func() error {
		for f, cmds := range decoded {
			replies[f] = r.store.ExecBatch(cmds)
		}
		return nil
	})
	for _, reps := range replies {
		if err := r.encodeReplies(reps); err != nil {
			return sa, err
		}
	}
	sa.decodeRe, err = delta(func() error {
		for _, reps := range replies {
			if err := r.decodeReplies(len(reps)); err != nil {
				return err
			}
		}
		return nil
	})
	return sa, err
}

// exec1 times Store.Exec of one GET: one plan, one mailbox round trip.
func (r *replayer) exec1(n int) float64 {
	keys := make([][]byte, 256)
	for i := range keys {
		keys[i] = []byte("profile:" + strconv.Itoa(i%r.st.p.Users))
	}
	get := []byte("GET")
	t := time.Now()
	for i := 0; i < n; i++ {
		r.store.Exec([][]byte{get, keys[i%len(keys)]})
	}
	return float64(time.Since(t)) / float64(n)
}

// replayMetrics runs the three replay passes over fresh, identically
// prepared stores — spans off, spans on, stages alone — writes the trace and
// reports the store, wire and client-expansion metrics against rttNs, the
// untraced run's mean client cycle per flush. opsPerFlush is the untraced
// run's mean, which the open loop's coalescing makes differ from the
// replay's fixed depth.
func (ls layerSet) replayMetrics(name string, seed int64, sz sizes, mk func() *stream,
	rttNs, opsPerFlush float64, outDir string) error {
	pass := func(f func(r *replayer) error) error {
		r, err := newReplayer(mk())
		if err != nil {
			return err
		}
		defer r.store.Close()
		runtime.GC()
		return f(r)
	}

	var off time.Duration
	if err := pass(func(r *replayer) (err error) {
		off, err = r.run(sz.replayFlushes, nil)
		ls.put("store.exec1_ns", r.exec1(sz.exec1Ops))
		return err
	}); err != nil {
		return fmt.Errorf("replay: %w", err)
	}

	tr := newTracer(1, 7*sz.replayFlushes)
	var rp *replayer
	if err := pass(func(r *replayer) error {
		rp = r
		on, err := r.run(sz.replayFlushes, tr)
		ls.put("trace.overhead_share", on.Seconds()/off.Seconds()-1)
		return err
	}); err != nil {
		return fmt.Errorf("traced replay: %w", err)
	}
	if _, err := tr.write(outDir, name, seed); err != nil {
		return err
	}
	ls.put("trace.spans", float64(tr.count()))

	aggs := tr.aggregate()
	cmds, ops := float64(rp.cmds), float64(rp.ops)
	perCmd := func(s spanName) float64 { return float64(aggs[s].TotalNs) / cmds }
	// One flush of the untraced run carried opsPerFlush ops: scale the
	// replay's per-op stage time to it.
	perFlush := func(s spanName) float64 { return float64(aggs[s].TotalNs) / ops * opsPerFlush }
	ls.put("client.expand_ns_per_op", float64(aggs[spanExpand].TotalNs)/ops)
	ls.put("wire.encode_cmd_ns_per_cmd", perCmd(spanEncodeCmd))
	ls.put("wire.decode_cmd_ns_per_cmd", perCmd(spanDecodeCmd))
	ls.put("store.execbatch_ns_per_cmd", perCmd(spanExecBatch))
	ls.put("wire.encode_reply_ns_per_cmd", perCmd(spanEncodeReply))
	ls.put("wire.decode_reply_ns_per_cmd", perCmd(spanDecodeReply))
	ls.put("wire.cmd_bytes_per_cmd", float64(rp.cmdBytes)/cmds)
	ls.put("wire.reply_bytes_per_cmd", float64(rp.repBytes)/cmds)

	expand := perFlush(spanExpand)
	client := perFlush(spanEncodeCmd) + perFlush(spanDecodeReply)
	srv := perFlush(spanDecodeCmd) + perFlush(spanEncodeReply)
	store := perFlush(spanExecBatch)
	residual := rttNs - expand - client - srv - store
	ls.put("client.expand_share", expand/rttNs)
	ls.put("wire.client_share", client/rttNs)
	ls.put("wire.server_share", srv/rttNs)
	ls.put("store.share", store/rttNs)
	ls.put("conn.rtt_ns_per_flush", rttNs)
	ls.put("conn.residual_ns_per_flush", residual)
	ls.put("conn.residual_share", residual/rttNs)
	fmt.Printf("replay: %d flushes, %d commands; request self time %.4f of request total\n",
		aggs[spanRequest].Count, rp.cmds, float64(aggs[spanRequest].SelfNs)/float64(aggs[spanRequest].TotalNs))

	return pass(func(r *replayer) error {
		sa, err := r.stageAllocs(max(sz.replayFlushes/10, 1))
		if err != nil {
			return fmt.Errorf("stage-only replay: %w", err)
		}
		n := float64(sa.cmds)
		ls.put("wire.decode_cmd_allocs_per_cmd", float64(sa.decodeCmd.mallocs)/n)
		ls.put("store.execbatch_allocs_per_cmd", float64(sa.execBatch.mallocs)/n)
		ls.put("store.execbatch_bytes_per_cmd", float64(sa.execBatch.bytes)/n)
		ls.put("wire.decode_reply_allocs_per_cmd", float64(sa.decodeRe.mallocs)/n)
		return nil
	})
}

// netMetrics reports what every net workload reads off its untraced trial.
// The client.rtt_* tails are of the trial's request samples: flush round
// trips in a closed loop, intended start to completion in the open loop.
func (ls layerSet) netMetrics(t trial) {
	ls.procMetrics(t)
	sorted := sortSamples(t.samples)
	ls.put("client.rtt_p99_us", float64(percentile(sorted, 0.99))/1e3)
	ls.put("client.rtt_p999_us", float64(percentile(sorted, 0.999))/1e3)
	ls.put("client.cmds_per_op", float64(t.cmds)/float64(t.ops))
	ls.put("client.retries", float64(t.net.retries))
	ls.put("client.reconnects", float64(t.net.reconnects))
	ls.put("conn.accepted", float64(t.net.accepted))
	ls.put("conn.panics", float64(t.net.panics))
}

// readReplyFloor is the fewest reply bytes per command net_read_p1's replay
// must see: half its commands are LRANGEs of up to 50 entries, so a small
// mean says the timelines were never filled.
const readReplyFloor = 100

func netLayers(name string, seed int64, sz sizes, shape netShape, outDir string) (layerSet, trial, error) {
	ls := layerSet{}
	runtime.GC()
	t, err := closedTrial(seed, shape, probe{heap: true})
	if err != nil {
		return nil, t, err
	}
	ls.netMetrics(t)

	rtt := float64(t.net.cycleNs) / float64(t.flushes)
	mk := func() *stream { return newStream(seed, shape) }
	if err := ls.replayMetrics(name, seed, sz, mk, rtt, float64(shape.depth), outDir); err != nil {
		return nil, t, err
	}
	if shape.readOnly && ls["wire.reply_bytes_per_cmd"].Value < readReplyFloor {
		return nil, t, fmt.Errorf("replies average %.1f B per command, below the %d B floor: the timelines were not populated",
			ls["wire.reply_bytes_per_cmd"].Value, readReplyFloor)
	}
	return ls, t, ls.mapMetrics(seed, sz)
}

func openLayers(seed int64, sz sizes, outDir string) (layerSet, trial, error) {
	ls := layerSet{}
	runtime.GC()
	t, err := openTrial(seed, sz.netUsers, sz.openArrivals, sz.openRate, probe{heap: true})
	if err != nil {
		return nil, t, err
	}
	ls.netMetrics(t)
	ls.put("loadgen.lat_p99_us", ls["client.rtt_p99_us"].Value)
	ls.put("loadgen.lat_p999_us", ls["client.rtt_p999_us"].Value)
	ls.put("loadgen.lag_p50_us", float64(t.net.lagP50us))
	ls.put("loadgen.lag_p99_us", float64(t.net.lagP99us))
	ls.put("loadgen.dropped", float64(t.net.dropped))
	ls.put("loadgen.achieved_share", t.net.achieved)
	batch := float64(t.ops) / float64(t.flushes)
	ls.put("loadgen.batch_mean", batch)

	// The replay takes the arrivals one per flush, in schedule order; how
	// many a real flush coalesced depends on timing and is scaled in.
	shape := netShape{users: sz.netUsers, depth: 1}
	mk := func() *stream {
		st := newStream(seed, shape)
		st.drawn = retwis.DrawOps(st.p, sz.replayFlushes+max(sz.replayFlushes/10, 1))
		return st
	}
	rtt := float64(t.net.cycleNs) / float64(t.flushes)
	if err := ls.replayMetrics("net_table2_open", seed, sz, mk, rtt, batch, outDir); err != nil {
		return nil, t, err
	}
	return ls, t, ls.mapMetrics(seed, sz)
}

// mapMetrics is the representation and wrapper cells, in the order the
// overhead ratios need.
func (ls layerSet) mapMetrics(seed int64, sz sizes) error {
	runtime.GC()
	if err := ls.repMetrics(seed, sz); err != nil {
		return err
	}
	runtime.GC()
	return ls.wrapperMetrics(seed, sz)
}

// Package server is dego's serving layer: a sharded in-memory store behind
// the RESP subset of internal/wire, exposed over TCP by Server and
// in-process by Store. docs/PROTOCOL.md documents the protocol surface;
// ARCHITECTURE.md places this layer above the profile API.
//
// # Sharding and the shard-confinement invariant
//
// The keyspace is split across a fixed set of shards by key hash. Each
// shard has one lock, and the lock holder is the shard's writer: every
// write to a key is executed by whoever holds the owning shard's lock,
// presenting the shard's one registered handle. Connections parse
// pipelines, plan each command into per-key units and group them per
// shard; for each touched shard the connection goroutine takes the lock and
// runs the units itself if the lock is free, or hands them to the shard's
// event loop through its mailbox if not. Replies are assembled in order.
//
// This is the serving-layer mirror of the engine's range-confinement
// invariant, and it is what certifies the store's representation choice:
// every write to a shard's map comes from one identity, one holder at a
// time — exactly the single-writer (SWMR) declaration the planner needs to
// hand each shard the paper's (M2, SWMR) hash map. The shard's handle is
// the writer identity, and only the lock holder uses it.
//
// Every Get, Put, Remove and Contains on a shard map runs under the shard's
// lock; the only call made outside it is Store.Len (INFO, DBSIZE), which the
// SWMR map answers from an atomic counter. A write to a present key touches
// no map at all: it updates the key's object in place under the lock. Only
// key creation, emptying and SET call the map's writers.
//
// Values inside a shard's map (the string/set/list/zset bodies) are plain
// Go structures touched only under the shard's lock, the same deliberate
// non-adjustment as retwis' inner follower sets: the top-level map is the
// shared, planner-built object; interiors never cross a shard boundary.
package server

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/adjusted-objects/dego"
	"github.com/adjusted-objects/dego/internal/stats"
	"github.com/adjusted-objects/dego/internal/wire"
)

// StoreAdaptive is the one store kind: each shard plans the single-writer
// (M2, SWMR) map shard confinement certifies. StoreConfig.Kind still names
// it so INFO and the benchmark labels can say which store is served.
const StoreAdaptive = "adaptive"

// UnknownStoreKindError reports a StoreConfig.Kind other than StoreAdaptive
// (or ""), so a caller can tell a stale configuration from an operational
// failure.
type UnknownStoreKindError struct {
	// Kind is the rejected value.
	Kind string
}

// Error implements the error interface.
func (e *UnknownStoreKindError) Error() string {
	return fmt.Sprintf("server: unknown store kind %q (want %s)", e.Kind, StoreAdaptive)
}

// StoreConfig sizes a Store.
type StoreConfig struct {
	// Shards is the number of keyspace slices and event loops; 0 means 1.
	Shards int
	// Kind names the planned representation per shard: "" or StoreAdaptive.
	Kind string
	// Capacity is the expected key count per shard; 0 means 1<<14.
	Capacity int
	// Record attaches a usage recorder to every shard map
	// (dego.WithUsageRecording), so DEBUG ADVISE can run the tuning advisor
	// over the traffic each shard actually absorbed. A replay/profiling
	// mode: per-op recording costs a few atomic adds plus a key hash.
	Record bool
}

func (c *StoreConfig) fill() error {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	switch c.Kind {
	case "":
		c.Kind = StoreAdaptive
	case StoreAdaptive:
	default:
		return &UnknownStoreKindError{Kind: c.Kind}
	}
	if c.Capacity <= 0 {
		c.Capacity = 1 << 14
	}
	return nil
}

// Store is the sharded keyspace. It is safe for concurrent use: Exec and
// ExecBatch may be called from any goroutine (connection handlers, the
// in-process retwis client, tests); execution is serialized per shard by
// the shard locks.
type Store struct {
	cfg    StoreConfig
	reg    *dego.Registry
	shards []*shard

	closeOnce sync.Once
	wg        sync.WaitGroup

	// pool lends ExecBatch its scratch; connection handlers own theirs.
	pool sync.Pool

	// panics counts shard executions recovered by execSafe; lastPanic
	// holds the most recent one as a *wire.ProtocolError. A shard panic
	// poisons one unit's reply, never the lock holder.
	panics    atomic.Uint64
	lastPanic atomic.Pointer[wire.ProtocolError]

	// statsFn, when set, contributes the serving layer's connection
	// counters to INFO. The TCP server installs its Stats method here; a
	// bare in-process Store reports store-level sections only.
	statsFn atomic.Pointer[func() Stats]
}

// NewStore builds the shards and starts their event loops.
func NewStore(cfg StoreConfig) (*Store, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	s := &Store{
		cfg: cfg,
		reg: dego.NewRegistry(cfg.Shards + 8),
	}
	s.pool.New = func() any { return new(scratch) }
	s.shards = make([]*shard, cfg.Shards)
	for i := range s.shards {
		sh, err := newShard(i, s)
		if err != nil {
			// Unwind the shards already running.
			for _, prev := range s.shards[:i] {
				close(prev.quit)
			}
			s.wg.Wait()
			return nil, err
		}
		s.shards[i] = sh
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			sh.loop()
		}()
	}
	return s, nil
}

// Kind returns the planned representation kind.
func (s *Store) Kind() string { return s.cfg.Kind }

// Shards returns the shard count.
func (s *Store) Shards() int { return len(s.shards) }

// ShardOf returns the index of the shard owning key.
func (s *Store) ShardOf(key []byte) int {
	if len(s.shards) == 1 {
		return 0
	}
	return int(stats.HashString(string(key)) % uint64(len(s.shards)))
}

// Len returns the total number of live keys. It is the one shard-map call
// made outside the shard locks: the SWMR map keeps its length in an atomic
// counter any goroutine may read.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.obj.Len()
	}
	return n
}

// Plan describes shard 0's planned representation (all shards share it).
func (s *Store) Plan() dego.Plan { return s.shards[0].obj.Plan() }

// PanicCount returns how many unit executions have panicked and been
// recovered.
func (s *Store) PanicCount() uint64 { return s.panics.Load() }

// Recording reports whether the shard maps carry usage recorders.
func (s *Store) Recording() bool { return s.cfg.Record }

// SetStatsSource installs the serving layer's counter snapshot for INFO.
// The TCP server calls this once at construction; safe to race with Exec.
func (s *Store) SetStatsSource(fn func() Stats) { s.statsFn.Store(&fn) }

// Advise runs the tuning advisor over every shard map's recorded usage.
// ok is false when the store was built without StoreConfig.Record. The
// expected shape is one SingleWriter recommendation per shard that matches
// the declaration the store already plans: the advisor rediscovers, from
// observed traffic, the (M2, SWMR) map shard confinement certifies.
func (s *Store) Advise() ([]dego.Advice, bool) {
	out := make([]dego.Advice, len(s.shards))
	for i, sh := range s.shards {
		a, ok := sh.obj.Advise()
		if !ok {
			return nil, false
		}
		out[i] = a
	}
	return out, true
}

// Info renders the INFO reply: redis-style "# Section" headers over
// key:value lines, CRLF-terminated. Store sections always; the serving
// layer's Clients/Stats sections when a stats source is installed.
func (s *Store) Info() string {
	var b strings.Builder
	recording := 0
	if s.cfg.Record {
		recording = 1
	}
	plan := s.Plan()
	fmt.Fprintf(&b, "# Server\r\nstore_kind:%s\r\nshard_map:%s %s\r\nshards:%d\r\nusage_recording:%d\r\n",
		s.cfg.Kind, plan.Rep, plan.Declared(), len(s.shards), recording)
	if fn := s.statsFn.Load(); fn != nil {
		st := (*fn)()
		fmt.Fprintf(&b, "# Clients\r\nconnected_clients:%d\r\n", st.Active)
		fmt.Fprintf(&b, "# Stats\r\ntotal_connections_received:%d\r\nrejected_connections:%d\r\n"+
			"idle_timeouts:%d\r\nslow_reader_drops:%d\r\nprotocol_errors:%d\r\npanics_recovered:%d\r\n",
			st.Accepted, st.Rejected, st.IdleTimeouts, st.SlowReaderDrops, st.ProtocolErrors, st.Panics)
	} else {
		fmt.Fprintf(&b, "# Stats\r\npanics_recovered:%d\r\n", s.PanicCount())
	}
	fmt.Fprintf(&b, "# Keyspace\r\nkeys:%d\r\n", s.Len())
	fmt.Fprintf(&b, "# Shards\r\n")
	for i, sh := range s.shards {
		fmt.Fprintf(&b, "shard%d:ops=%d,keys=%d\r\n", i, sh.ops.Load(), sh.obj.Len())
	}
	return b.String()
}

// LastPanic returns the most recently recovered shard panic as a typed
// protocol error, or nil if none has occurred.
func (s *Store) LastPanic() *wire.ProtocolError { return s.lastPanic.Load() }

// notePanic records one recovered shard execution.
func (s *Store) notePanic(pe *wire.ProtocolError) {
	s.panics.Add(1)
	s.lastPanic.Store(pe)
}

// Close stops the shard event loops. In-flight batches complete; batches
// submitted after Close receive error replies.
func (s *Store) Close() {
	s.closeOnce.Do(func() {
		for _, sh := range s.shards {
			close(sh.quit)
		}
	})
	s.wg.Wait()
}

// Exec plans and executes one command, for in-process clients. The reply is
// never a ProtocolError — unknown verbs and arity violations are error
// replies, exactly as over the wire.
func (s *Store) Exec(args [][]byte) wire.Reply {
	return s.ExecBatch([][][]byte{args})[0]
}

// ExecBatch executes one pipeline batch: every command is planned, the
// per-key units are grouped per owning shard and each group runs once under
// that shard's lock — on the calling goroutine, or on the shard's loop when
// the lock is taken — and the replies come back in command order. Commands
// for different shards may execute concurrently; commands touching the same
// shard execute in batch order (see docs/PROTOCOL.md, "Pipelining"). The
// replies are the caller's to keep: the working memory is borrowed from a
// pool and array elements are copied out of it before it goes back. The
// store keeps no reference to cmds.
func (s *Store) ExecBatch(cmds [][][]byte) []wire.Reply {
	sc := s.pool.Get().(*scratch)
	s.run(sc, cmds)
	replies := make([]wire.Reply, len(cmds))
	for i := range replies {
		rep := sc.plans[i].reply(sc.units)
		if rep.Kind == wire.KindArray {
			rep.Elems = append([]wire.Reply(nil), rep.Elems...)
		}
		replies[i] = rep
	}
	sc.release()
	s.pool.Put(sc)
	return replies
}

// scratch is the working memory of one pipeline batch: the command plans,
// the units they expand to, and per shard the unit indexes and reply-element
// arena the shard's lock holder works on. A connection handler owns one for
// its lifetime and ExecBatch borrows one per call, so steady-state batches
// plan and dispatch without allocating. Plan replies and unit replies may point
// into the arenas and into the commands' argument buffers; all of it is
// valid from run until release.
type scratch struct {
	plans  []cmdPlan
	units  []unit
	shards []batch // indexed by shard id
	wg     sync.WaitGroup
}

// release ends a batch: every reference the scratch holds into caller or
// shard memory is cleared — over the used prefix only, which is all that
// can be dirty — and a slice that grew past wire.RetainTotal bytes is
// dropped, so an oversized batch or array reply gives its memory back rather
// than pinning it on an idle connection.
func (sc *scratch) release() {
	sc.plans = recycle(sc.plans)
	sc.units = recycle(sc.units)
	for i := range sc.shards {
		b := &sc.shards[i]
		b.units, b.idxs, b.arena = nil, recycle(b.idxs), recycle(b.arena)
	}
}

func recycle[T any](s []T) []T {
	var elem T
	if cap(s)*int(unsafe.Sizeof(elem)) > wire.RetainTotal {
		return nil
	}
	clear(s)
	return s[:0]
}

// run plans cmds into sc and executes them; afterwards command i's reply is
// sc.plans[i].reply(sc.units). It is the one execution path: connection
// handlers call it with their own scratch, ExecBatch with a pooled one. sc
// must be fresh or released.
func (s *Store) run(sc *scratch, cmds [][][]byte) {
	if cap(sc.plans) < len(cmds) {
		sc.plans = make([]cmdPlan, 0, len(cmds))
	}
	if cap(sc.units) < len(cmds) {
		// Most commands are one unit: size for the batch up front.
		sc.units = make([]unit, 0, len(cmds))
	}
	for _, args := range cmds {
		sc.plans = append(sc.plans, planCommand(args, s, &sc.units))
	}
	if len(sc.units) > 0 {
		s.dispatch(sc)
	}
}

// dispatch groups sc's units by owning shard, preserving order within each
// shard, and hands each touched shard its batch once, in shard order: run
// right here when the shard's lock is free, else sent to the shard's
// mailbox, whose loop runs it under the lock. It then waits for every batch.
// The caller holds at most one shard lock at a time, so dispatchers cannot
// deadlock one another.
func (s *Store) dispatch(sc *scratch) {
	if len(sc.shards) != len(s.shards) {
		sc.shards = make([]batch, len(s.shards))
	}
	touched := 0
	for i := range sc.units {
		b := &sc.shards[sc.units[i].shard]
		if len(b.idxs) == 0 {
			touched++
		}
		b.idxs = append(b.idxs, i)
	}
	sc.wg.Add(touched)
	for shID := range sc.shards {
		b := &sc.shards[shID]
		if len(b.idxs) == 0 {
			continue
		}
		b.units, b.wg = sc.units, &sc.wg
		sh := s.shards[shID]
		if sh.mu.TryLock() {
			sh.runLocked(b)
			continue
		}
		select {
		case sh.mail <- b:
		case <-sh.quit:
			// No loop to hand it to: runLocked answers the shut-down error.
			sh.mu.Lock()
			sh.runLocked(b)
		}
	}
	sc.wg.Wait()
}

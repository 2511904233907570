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
// shard; for each touched shard, in shard order, the connection goroutine
// takes the lock, waiting for it if it is held, and runs the units itself.
// Replies are assembled in order. Nothing runs per shard: a server's
// goroutines are its accept loop and one per connection.
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
// Go structures mutated only under the shard's lock, the same deliberate
// non-adjustment as retwis' inner follower sets: the top-level map is the
// shared, planner-built object; interiors never cross a shard boundary.
// One read happens outside the lock: a list stores its entries as the bulk
// frames LRANGE answers with, an LRANGE reply is a window of that buffer,
// and the connection writes it after the lock is dropped. That is safe
// because a frame's bytes are never rewritten (see list).
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
	// Shards is the number of keyspace slices, each behind its own lock;
	// 0 means 1.
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

	// pool lends ExecBatch its scratch; connection handlers own theirs.
	pool sync.Pool

	// count holds the resilience counters Stats snapshots; lastPanic holds
	// the most recently recovered shard execution as a *wire.ProtocolError.
	// A shard panic poisons one unit's reply, never the lock holder.
	count     counters
	lastPanic atomic.Pointer[wire.ProtocolError]
}

// counters are the serving layer's resilience counters. The shard executor
// counts the panics it recovers; a Server counts its connections and the
// rest, so a bare in-process Store reports zero connections.
type counters struct {
	accepted, rejected, idleTimeouts, slowDrops, protoErrs, panics atomic.Uint64
	active                                                         atomic.Int64
}

// Stats is a snapshot of the resilience counters; see ARCHITECTURE.md's
// "Resilience" section for the invariants they witness.
type Stats struct {
	Accepted        uint64 // connections accepted and served
	Rejected        uint64 // connections refused at the MaxConns cap
	Active          int64  // connections being served right now
	IdleTimeouts    uint64 // connections closed by the read deadline
	SlowReaderDrops uint64 // connections dropped writing to a slow reader
	ProtocolErrors  uint64 // framing violations answered and closed
	Panics          uint64 // panics recovered (connection handlers + shard executions)
}

// NewStore builds the shards. It starts no goroutine.
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
			return nil, err
		}
		s.shards[i] = sh
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

// Recording reports whether the shard maps carry usage recorders.
func (s *Store) Recording() bool { return s.cfg.Record }

// Stats snapshots the resilience counters.
func (s *Store) Stats() Stats {
	c := &s.count
	return Stats{
		Accepted:        c.accepted.Load(),
		Rejected:        c.rejected.Load(),
		Active:          c.active.Load(),
		IdleTimeouts:    c.idleTimeouts.Load(),
		SlowReaderDrops: c.slowDrops.Load(),
		ProtocolErrors:  c.protoErrs.Load(),
		Panics:          c.panics.Load(),
	}
}

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
// key:value lines, CRLF-terminated. The Clients and Stats sections print
// Stats.
func (s *Store) Info() string {
	var b strings.Builder
	recording := 0
	if s.cfg.Record {
		recording = 1
	}
	plan := s.Plan()
	fmt.Fprintf(&b, "# Server\r\nstore_kind:%s\r\nshard_map:%s %s\r\nshards:%d\r\nusage_recording:%d\r\n",
		s.cfg.Kind, plan.Rep, plan.Declared(), len(s.shards), recording)
	st := s.Stats()
	fmt.Fprintf(&b, "# Clients\r\nconnected_clients:%d\r\n", st.Active)
	fmt.Fprintf(&b, "# Stats\r\ntotal_connections_received:%d\r\nrejected_connections:%d\r\n"+
		"idle_timeouts:%d\r\nslow_reader_drops:%d\r\nprotocol_errors:%d\r\npanics_recovered:%d\r\n",
		st.Accepted, st.Rejected, st.IdleTimeouts, st.SlowReaderDrops, st.ProtocolErrors, st.Panics)
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
	s.count.panics.Add(1)
	s.lastPanic.Store(pe)
}

// Close shuts every shard down: it waits for the shard's lock, so a batch
// running there completes, then releases the shard's handle. Every unit
// that takes the lock afterwards answers the shut-down error. Idempotent.
func (s *Store) Close() {
	for _, sh := range s.shards {
		sh.mu.Lock()
		if !sh.closed {
			sh.closed = true
			sh.h.Release()
		}
		sh.mu.Unlock()
	}
}

// Exec plans and executes one command, for in-process clients. The reply is
// never a ProtocolError — unknown verbs and arity violations are error
// replies, exactly as over the wire.
func (s *Store) Exec(args [][]byte) wire.Reply {
	return s.ExecBatch([][][]byte{args})[0]
}

// ExecBatch executes one pipeline batch: every command is planned, the
// per-key units are grouped per owning shard and each group runs once, on
// the calling goroutine, under that shard's lock, and the replies come back
// in command order. Batches from different callers may execute concurrently
// on different shards; commands touching the same shard execute in batch
// order (see docs/PROTOCOL.md, "Pipelining"). The replies are the caller's
// to keep: the working memory is borrowed from a pool and array elements are
// copied out of it before it goes back; LRANGE's elements alias the list's
// frames, which are never rewritten. The store keeps no reference to cmds.
// A QUIT ends the batch as it ends a connection's: the replies stop at its
// +OK, and the commands after it are not run.
func (s *Store) ExecBatch(cmds [][][]byte) []wire.Reply {
	sc := s.pool.Get().(*scratch)
	s.run(sc, cmds)
	replies := make([]wire.Reply, len(sc.plans))
	for i := range replies {
		rep := sc.plans[i].reply(sc.units)
		switch rep.Kind {
		case wire.KindArray:
			rep.Elems = append([]wire.Reply(nil), rep.Elems...)
		case wire.KindFrames:
			// The frames are a list's, never rewritten: elements may alias them.
			rep = rep.Expand()
		}
		replies[i] = rep
	}
	sc.release()
	s.pool.Put(sc)
	return replies
}

// scratch is the working memory of one pipeline batch: the command plans,
// the units they expand to, per shard the indexes of its units, and the
// arena SMEMBERS and ZRANGEBYSCORE replies' elements are cut from. A
// connection handler owns one for its lifetime and ExecBatch borrows one per
// call, so steady-state batches plan and dispatch without allocating. Plan replies and unit replies
// may point into the arena and into the commands' argument buffers; all of
// it is valid from run until release. An LRANGE reply points into its list's
// buffer instead, which stays valid for good.
type scratch struct {
	plans  []cmdPlan
	units  []unit
	shards [][]int // indexed by shard id: unit indexes, in command order
	arena  []wire.Reply
}

// array returns the array reply whose elements the caller appended to the
// arena from index from on. Capping the slice keeps a consumer's append off
// its neighbours.
func (sc *scratch) array(from int) wire.Reply {
	return wire.Reply{Kind: wire.KindArray, Elems: sc.arena[from:len(sc.arena):len(sc.arena)]}
}

// release ends a batch: every reference the scratch holds into caller or
// shard memory is cleared — over the used prefix only, which is all that
// can be dirty — and a slice that grew past wire.RetainTotal bytes is
// dropped, so an oversized batch or array reply gives its memory back rather
// than pinning it on an idle connection.
func (sc *scratch) release() {
	sc.plans = recycle(sc.plans)
	sc.units = recycle(sc.units)
	sc.arena = recycle(sc.arena)
	for i := range sc.shards {
		sc.shards[i] = recycle(sc.shards[i])
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
// sc.plans[i].reply(sc.units). Planning stops after a command whose row
// closes the connection (QUIT): the commands after it are dropped, so
// sc.plans is shorter than cmds, and run reports true. The units run in one
// dispatch after planning, unless a settling row (INFO, DEBUG ADVISE) asks
// for the units planned before it to run first: then the batch runs in one
// dispatch per such row, plus one for the rest. It is the one execution
// path: connection handlers call it with their own scratch, ExecBatch with a
// pooled one. sc must be fresh or released.
func (s *Store) run(sc *scratch, cmds [][][]byte) (closes bool) {
	if cap(sc.plans) < len(cmds) {
		sc.plans = make([]cmdPlan, 0, len(cmds))
	}
	if cap(sc.units) < len(cmds) {
		// Most commands are one unit: size for the batch up front.
		sc.units = make([]unit, 0, len(cmds))
	}
	ran := 0 // units dispatched so far
	settle := func() {
		if len(sc.units) > ran {
			s.dispatch(sc, ran)
			ran = len(sc.units)
		}
	}
	for _, args := range cmds {
		p := planCommand(args, s, &sc.units, settle)
		sc.plans = append(sc.plans, p)
		if closes = p.closes; closes {
			break
		}
	}
	settle()
	return closes
}

// dispatch groups sc's units from index from on by owning shard, preserving
// order within each shard, then runs each touched shard's units under its
// lock, in shard order, waiting for the lock when another caller holds it.
// The caller holds at most one shard lock at a time, so dispatchers cannot
// deadlock one another.
func (s *Store) dispatch(sc *scratch, from int) {
	if len(sc.shards) != len(s.shards) {
		sc.shards = make([][]int, len(s.shards))
	}
	for i := from; i < len(sc.units); i++ {
		id := sc.units[i].shard
		sc.shards[id] = append(sc.shards[id], i)
	}
	for id, idxs := range sc.shards {
		if len(idxs) > 0 {
			s.shards[id].run(sc, idxs)
			sc.shards[id] = idxs[:0]
		}
	}
}

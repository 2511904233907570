package server

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/adjusted-objects/dego"
	"github.com/adjusted-objects/dego/internal/wire"
)

// objKind discriminates the value types a key can hold; the PROTOCOL.md
// type-mapping table is the documented form of this enum.
type objKind uint8

const (
	objString objKind = iota + 1
	objSet
	objList
	objZSet
)

// object is one key's value, confined with its body to the holder of the
// owning shard's lock: only the top-level map is a shared planner-built
// object, and a write to a present key updates the object in place.
// Mutations never edit reply-visible memory in place — str is replaced
// wholesale, list elements are immutable once pushed, set/zset replies are
// materialized at execution time — so a reply assembled for an earlier
// command in a batch stays valid while later commands mutate the object.
// Everything retained is the shard's own copy: connections recycle the
// buffers commands are decoded into, so SET and LPUSH clone their operands,
// a key-creating write clones its key (shard.create), and set and zset
// members are string conversions already.
type object struct {
	kind objKind
	str  []byte
	set  map[string]struct{}
	list list
	zs   *zset
}

// zset is a score-ordered member set: the map is the membership index, the
// slice is kept sorted by (score, member) for the range verbs.
type zset struct {
	score  map[string]float64
	sorted []zentry
}

type zentry struct {
	member string
	score  float64
}

// search returns the insertion index of (score, member).
func (z *zset) search(score float64, member string) int {
	return sort.Search(len(z.sorted), func(i int) bool {
		e := z.sorted[i]
		if e.score != score {
			return e.score > score
		}
		return e.member >= member
	})
}

func (z *zset) insert(member string, score float64) (added bool) {
	if old, ok := z.score[member]; ok {
		if old == score {
			return false
		}
		i := z.search(old, member)
		z.sorted = append(z.sorted[:i], z.sorted[i+1:]...)
	} else {
		added = true
	}
	z.score[member] = score
	i := z.search(score, member)
	z.sorted = append(z.sorted, zentry{})
	copy(z.sorted[i+1:], z.sorted[i:])
	z.sorted[i] = zentry{member: member, score: score}
	return added
}

// batch is one shard's slice of a pipeline dispatch: indices into the
// batch-wide unit slice, in command order, plus the arena the shard cuts
// array replies' elements from. Batches live in a scratch and are reused.
type batch struct {
	units []unit
	idxs  []int
	arena []wire.Reply
	wg    *sync.WaitGroup
}

// array returns the array reply whose elements the caller appended to the
// arena from index from on. The elements are valid until the scratch's next
// dispatch; capping the slice keeps a consumer's append off its neighbours.
func (b *batch) array(from int) wire.Reply {
	return wire.Reply{Kind: wire.KindArray, Elems: b.arena[from:len(b.arena):len(b.arena)]}
}

// shard owns one slice of the keyspace: a planner-built map, the lock whose
// holder is the shard's writer, and the mailbox for batches that found the
// lock taken. Whoever holds mu — a connection handler running its own batch,
// or the shard's loop draining the mailbox — executes with the shard's one
// handle h, so all writes to obj come from one identity, one holder at a
// time: the shard-confinement invariant.
type shard struct {
	id    int
	obj   *dego.AdjustedMap[string, *object]
	mu    sync.Mutex
	h     *dego.Handle // the writer identity; used only under mu
	mail  chan *batch
	quit  chan struct{}
	store *Store // panic counter

	// ops counts units executed on this shard; written under mu, read by
	// Store.Info from any goroutine.
	ops atomic.Uint64
}

// shardMapOptions is the shard map's declaration, planned as the (M2, SWMR)
// map. Shard confinement certifies SingleWriter: every write comes from the
// lock holder, presenting the shard's one handle.
func shardMapOptions(cfg StoreConfig, reg *dego.Registry) []dego.Option {
	opts := []dego.Option{dego.On(reg), dego.Capacity(cfg.Capacity), dego.SingleWriter()}
	if cfg.Record {
		opts = append(opts, dego.WithUsageRecording())
	}
	return opts
}

func newShard(id int, st *Store) (*shard, error) {
	m, err := dego.Map[string, *object](shardMapOptions(st.cfg, st.reg)...)
	if err != nil {
		return nil, err
	}
	return &shard{
		id:    id,
		obj:   m,
		h:     st.reg.MustRegister(),
		mail:  make(chan *batch),
		quit:  make(chan struct{}),
		store: st,
	}, nil
}

// loop drains the mailbox: each batch a dispatcher could not run itself
// waits here for the lock and runs under it. On quit the loop takes the lock
// before releasing the handle, so every batch that runs afterwards finds quit
// closed and answers with an error instead of writing through a released
// handle. Dispatch sends on an unbuffered mailbox and selects on quit, so no
// sender can block on a stopped loop.
func (sh *shard) loop() {
	for {
		select {
		case <-sh.quit:
			sh.mu.Lock()
			sh.h.Release()
			sh.mu.Unlock()
			return
		case b := <-sh.mail:
			sh.mu.Lock()
			sh.runLocked(b)
		}
	}
}

// runLocked executes b's units in order with sh.mu held, then releases the
// lock and marks b done — on every path, a panic escaping execSafe included.
func (sh *shard) runLocked(b *batch) {
	defer b.wg.Done()
	defer sh.mu.Unlock()
	select {
	case <-sh.quit:
		for _, i := range b.idxs {
			b.units[i].out = errShutDown
		}
		return
	default:
	}
	for _, i := range b.idxs {
		b.units[i].out = sh.execSafe(&b.units[i], b)
	}
	sh.ops.Add(uint64(len(b.idxs)))
}

func (sh *shard) get(key string) *object {
	o, _ := sh.obj.Get(key)
	return o
}

// create binds an absent key to o. The unit's key is a view of a recycled
// argument buffer and the map keeps the key of a fresh entry, so it stores a
// clone.
func (sh *shard) create(h *dego.Handle, key string, o *object) {
	sh.obj.Put(h, strings.Clone(key), o)
}

var wrongType = wire.Err("WRONGTYPE Operation against a key holding the wrong kind of value")
var errNotInt = wire.Err("ERR value is not an integer or out of range")
var errNotFloat = wire.Err("ERR value is not a valid float")
var errMinMax = wire.Err("ERR min or max is not a float")
var errShutDown = wire.Err("ERR store is shut down")

// execSafe runs one unit with panic isolation: a panic while executing a
// command poisons that unit's reply (a typed protocol-error-derived error
// reply, recorded on the store) instead of unwinding the lock holder — one
// bad command cannot take the whole keyspace slice down. Keys the
// panicking execution already mutated may be partially updated, the same
// contract redis gives a script that dies mid-write.
func (sh *shard) execSafe(u *unit, b *batch) (rep wire.Reply) {
	defer func() {
		if p := recover(); p != nil {
			pe := &wire.ProtocolError{
				Detail: fmt.Sprintf("internal panic in shard %d: %v", sh.id, p),
			}
			sh.store.notePanic(pe)
			rep = wire.Errf("ERR Protocol error: %s", pe.Detail)
		}
	}()
	return sh.exec(sh.h, u, b)
}

// exec runs one unit against the shard state. Only key creation (create),
// emptying (Remove) and SET call the map's writers; a write to a present key
// updates its object in place. Array replies are built in b's arena.
func (sh *shard) exec(h *dego.Handle, u *unit, b *batch) wire.Reply {
	switch u.op {
	case opGet:
		o := sh.get(u.key)
		switch {
		case o == nil:
			return wire.Null()
		case o.kind != objString:
			return wrongType
		}
		return wire.Bulk(o.str)

	case opSet:
		// A fresh object Put over a present key too: the recorder sees it.
		o := &object{kind: objString, str: bytes.Clone(u.args[0])}
		if sh.obj.Contains(u.key) {
			sh.obj.Put(h, u.key, o)
		} else {
			sh.create(h, u.key, o)
		}
		return wire.OK()

	case opDel:
		if sh.obj.Remove(h, u.key) {
			return wire.Int64(1)
		}
		return wire.Int64(0)

	case opExists:
		if sh.obj.Contains(u.key) {
			return wire.Int64(1)
		}
		return wire.Int64(0)

	case opIncr:
		o := sh.get(u.key)
		if o == nil {
			sh.create(h, u.key, &object{kind: objString, str: []byte("1")})
			return wire.Int64(1)
		}
		if o.kind != objString {
			return wrongType
		}
		n, err := strconv.ParseInt(string(o.str), 10, 64)
		if err != nil || n == int64(1<<63-1) {
			return errNotInt
		}
		n++
		o.str = strconv.AppendInt(nil, n, 10)
		return wire.Int64(n)

	case opSAdd:
		o := sh.get(u.key)
		if o == nil {
			o = &object{kind: objSet, set: make(map[string]struct{}, len(u.args))}
			sh.create(h, u.key, o)
		} else if o.kind != objSet {
			return wrongType
		}
		added := int64(0)
		for _, m := range u.args {
			// Looked up without a copy; only a new member is stored as one.
			if _, ok := o.set[string(m)]; !ok {
				o.set[string(m)] = struct{}{}
				added++
			}
		}
		return wire.Int64(added)

	case opSRem:
		o := sh.get(u.key)
		if o == nil {
			return wire.Int64(0)
		}
		if o.kind != objSet {
			return wrongType
		}
		removed := int64(0)
		for _, m := range u.args {
			k := string(m)
			if _, ok := o.set[k]; ok {
				delete(o.set, k)
				removed++
			}
		}
		if len(o.set) == 0 {
			sh.obj.Remove(h, u.key)
		}
		return wire.Int64(removed)

	case opSMembers:
		o := sh.get(u.key)
		if o == nil {
			return wire.Array()
		}
		if o.kind != objSet {
			return wrongType
		}
		members := make([]string, 0, len(o.set))
		for m := range o.set {
			members = append(members, m)
		}
		// Sorted for determinism; redis leaves set order unspecified.
		sort.Strings(members)
		from := len(b.arena)
		for _, m := range members {
			b.arena = append(b.arena, wire.BulkString(m))
		}
		return b.array(from)

	case opLPush:
		o := sh.get(u.key)
		if o == nil {
			o = &object{kind: objList}
			sh.create(h, u.key, o)
		} else if o.kind != objList {
			return wrongType
		}
		// LPUSH a b c leaves c at the head.
		for _, v := range u.args {
			o.list.push(bytes.Clone(v))
		}
		return wire.Int64(int64(o.list.len()))

	case opLRange:
		o := sh.get(u.key)
		if o == nil {
			return wire.Array()
		}
		if o.kind != objList {
			return wrongType
		}
		start, stop, ok := parseRangeIndexes(u.args, o.list.len())
		if !ok {
			return errNotInt
		}
		from := len(b.arena)
		for i := start; i <= stop; i++ {
			b.arena = append(b.arena, wire.Bulk(o.list.at(i)))
		}
		return b.array(from)

	case opLTrim:
		o := sh.get(u.key)
		if o == nil {
			return wire.OK()
		}
		if o.kind != objList {
			return wrongType
		}
		start, stop, ok := parseRangeIndexes(u.args, o.list.len())
		if !ok {
			return errNotInt
		}
		if start > stop {
			sh.obj.Remove(h, u.key)
			return wire.OK()
		}
		o.list.keep(start, stop)
		return wire.OK()

	case opZAdd:
		// Every score is parsed before the first insert, so a bad one
		// changes nothing, as in redis.
		scores := make([]float64, 0, 8)
		for i := 0; i < len(u.args); i += 2 {
			score, err := strconv.ParseFloat(string(u.args[i]), 64)
			if err != nil || math.IsNaN(score) {
				return errNotFloat
			}
			scores = append(scores, score)
		}
		o := sh.get(u.key)
		if o == nil {
			o = &object{kind: objZSet, zs: &zset{score: make(map[string]float64)}}
			sh.create(h, u.key, o)
		} else if o.kind != objZSet {
			return wrongType
		}
		added := int64(0)
		for i, score := range scores {
			if o.zs.insert(string(u.args[2*i+1]), score) {
				added++
			}
		}
		return wire.Int64(added)

	case opZRangeByScore:
		o := sh.get(u.key)
		if o == nil {
			return wire.Array()
		}
		if o.kind != objZSet {
			return wrongType
		}
		lo, hi, ok := parseScoreBounds(u.args)
		if !ok {
			return errMinMax
		}
		from, to := o.zs.boundIndexes(lo, hi)
		first := len(b.arena)
		for _, e := range o.zs.sorted[from:to] {
			b.arena = append(b.arena, wire.BulkString(e.member))
		}
		return b.array(first)

	case opZRemRangeByScore:
		o := sh.get(u.key)
		if o == nil {
			return wire.Int64(0)
		}
		if o.kind != objZSet {
			return wrongType
		}
		lo, hi, ok := parseScoreBounds(u.args)
		if !ok {
			return errMinMax
		}
		from, to := o.zs.boundIndexes(lo, hi)
		for _, e := range o.zs.sorted[from:to] {
			delete(o.zs.score, e.member)
		}
		removed := int64(to - from)
		o.zs.sorted = append(o.zs.sorted[:from], o.zs.sorted[to:]...)
		if len(o.zs.sorted) == 0 {
			sh.obj.Remove(h, u.key)
		}
		return wire.Int64(removed)

	case opPanic:
		// DEBUG PANIC: deliberate crash under the shard's lock, exercised by
		// the resilience tests to prove execSafe's isolation.
		panic("DEBUG PANIC requested")

	case opSleep:
		// DEBUG SLEEP <seconds>: hold the shard's lock, so tests can have a
		// batch provably in flight while Shutdown drains.
		secs, err := strconv.ParseFloat(string(u.args[0]), 64)
		if err != nil || secs < 0 {
			return errNotFloat
		}
		time.Sleep(time.Duration(secs * float64(time.Second)))
		return wire.OK()

	case opFlush:
		var keys []string
		sh.obj.Range(func(k string, _ *object) bool {
			keys = append(keys, k)
			return true
		})
		for _, k := range keys {
			sh.obj.Remove(h, k)
		}
		return wire.OK()

	default:
		return wire.Errf("ERR internal: unknown opcode %d", u.op)
	}
}

// parseRangeIndexes resolves redis start/stop list indexes (negatives count
// from the tail) against a list of length n, clamped to valid bounds.
func parseRangeIndexes(args [][]byte, n int) (start, stop int, ok bool) {
	s64, err1 := strconv.ParseInt(string(args[0]), 10, 64)
	e64, err2 := strconv.ParseInt(string(args[1]), 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, false
	}
	start, stop = normIndex(s64, n), normIndex(e64, n)
	if start < 0 {
		start = 0
	}
	if stop >= n {
		stop = n - 1
	}
	return start, stop, true
}

func normIndex(i int64, n int) int {
	if i < 0 {
		i += int64(n)
	}
	if i > int64(n) {
		i = int64(n)
	}
	if i < -int64(n) {
		i = -1
	}
	return int(i)
}

// scoreBound is one end of a ZRANGEBYSCORE interval.
type scoreBound struct {
	val       float64
	exclusive bool
	inf       int // -1: -inf, +1: +inf, 0: finite
}

func parseScoreBound(b []byte) (scoreBound, bool) {
	s := string(b)
	var sb scoreBound
	if len(s) > 0 && s[0] == '(' {
		sb.exclusive = true
		s = s[1:]
	}
	switch s {
	case "-inf", "-INF", "-Inf":
		sb.inf = -1
		return sb, true
	case "+inf", "inf", "+INF", "INF", "+Inf", "Inf":
		sb.inf = +1
		return sb, true
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return sb, false
	}
	sb.val = v
	return sb, true
}

func parseScoreBounds(args [][]byte) (lo, hi scoreBound, ok bool) {
	if lo, ok = parseScoreBound(args[0]); !ok {
		return
	}
	hi, ok = parseScoreBound(args[1])
	return
}

// boundIndexes returns the half-open [from, to) window of sorted entries
// inside the score interval.
func (z *zset) boundIndexes(lo, hi scoreBound) (from, to int) {
	switch {
	case lo.inf < 0:
		from = 0
	case lo.inf > 0:
		from = len(z.sorted)
	default:
		from = sort.Search(len(z.sorted), func(i int) bool {
			if lo.exclusive {
				return z.sorted[i].score > lo.val
			}
			return z.sorted[i].score >= lo.val
		})
	}
	switch {
	case hi.inf > 0:
		to = len(z.sorted)
	case hi.inf < 0:
		to = 0
	default:
		to = sort.Search(len(z.sorted), func(i int) bool {
			if hi.exclusive {
				return z.sorted[i].score >= hi.val
			}
			return z.sorted[i].score > hi.val
		})
	}
	if to < from {
		to = from
	}
	return from, to
}

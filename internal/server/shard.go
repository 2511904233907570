package server

import (
	"bytes"
	"fmt"
	"math"
	"slices"
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
// wholesale, a list's frames are never rewritten once pushed (list), set and
// zset replies are materialized at execution time — so a reply assembled for
// an earlier command in a batch, or still being written to a connection,
// stays valid while later commands mutate the object.
// Everything retained is the shard's own copy: connections recycle the
// buffers commands are decoded into, so SET clones its value, LPUSH encodes
// its elements into the list's buffer, a key-creating write clones its key
// (shard.create), and set and zset members are string conversions already.
// The list body sits behind a pointer, so the keys of other kinds do not
// carry its width.
type object struct {
	str  []byte
	set  map[string]struct{}
	list *list
	zs   *zset
}

// kind reads the type off the body: a set, list or sorted set has its body
// and no other, a string has none of them. The tag costs no field.
func (o *object) kind() objKind {
	switch {
	case o.list != nil:
		return objList
	case o.set != nil:
		return objSet
	case o.zs != nil:
		return objZSet
	}
	return objString
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

// shard owns one slice of the keyspace: a planner-built map and the lock
// whose holder is the shard's writer. Whoever holds mu — the goroutine
// dispatching a batch — executes with the shard's one handle h, so all
// writes to obj come from one identity, one holder at a time: the
// shard-confinement invariant.
type shard struct {
	id     int
	obj    *dego.AdjustedMap[string, *object]
	mu     sync.Mutex
	h      *dego.Handle // the writer identity; used only under mu
	closed bool         // h is released (Store.Close); read and written under mu
	store  *Store       // panic counter

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
		store: st,
	}, nil
}

// run takes the shard's lock, waiting for it if another batch holds it,
// and executes the units sc.units[i], i in idxs, in order. Once the store is
// closed every unit answers the shut-down error instead of writing through
// the released handle.
func (sh *shard) run(sc *scratch, idxs []int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed {
		for _, i := range idxs {
			sc.units[i].out = errShutDown
		}
		return
	}
	for _, i := range idxs {
		sc.units[i].out = sh.execSafe(&sc.units[i], sc)
	}
	sh.ops.Add(uint64(len(idxs)))
}

func (sh *shard) get(key string) *object {
	o, _ := sh.obj.Get(key)
	return o
}

// create binds an absent key to o. The unit's key is a view of a recycled
// argument buffer and the map keeps the key of a fresh entry, so it stores a
// clone.
func (sh *shard) create(key string, o *object) {
	sh.obj.Put(sh.h, strings.Clone(key), o)
}

var wrongType = wire.Err("WRONGTYPE Operation against a key holding the wrong kind of value")
var errNotInt = wire.Err("ERR value is not an integer or out of range")
var errNotFloat = wire.Err("ERR value is not a valid float")
var errMinMax = wire.Err("ERR min or max is not a float")
var errShutDown = wire.Err("ERR store is shut down")
var errListTooLong = wire.Err("ERR list too long")

// execSafe runs one unit against the shard state: the key checks its row
// asks for (command.kind), then the row's handler. Only key creation
// (create), emptying (Remove) and SET call the map's writers; a write to a
// present key updates its object in place. LRANGE answers with a window of
// the list's frames; the other array replies are built in sc's arena.
//
// A panic while executing a command poisons that unit's reply (a typed
// protocol-error-derived error reply, recorded on the store) instead of
// unwinding the lock holder — one bad command cannot take the whole keyspace
// slice down. Keys the panicking execution already mutated may be partially
// updated, the same contract redis gives a script that dies mid-write.
func (sh *shard) execSafe(u *unit, sc *scratch) (rep wire.Reply) {
	defer func() {
		if p := recover(); p != nil {
			pe := &wire.ProtocolError{
				Detail: fmt.Sprintf("internal panic in shard %d: %v", sh.id, p),
			}
			sh.store.notePanic(pe)
			rep = wire.Errf("ERR Protocol error: %s", pe.Detail)
		}
	}()
	c := u.cmd
	var o *object
	if c.kind != 0 {
		o = sh.get(u.key)
		switch {
		case o == nil && c.absent.Kind != 0:
			return c.absent
		case o != nil && o.kind() != c.kind:
			return wrongType
		}
	}
	return c.exec(sh, u, o, sc)
}

// The handlers below are the command rows' exec functions, one per verb. o
// is the key's object when the row names a kind (nil for a missing key the
// handler creates), nil otherwise.

func (*shard) getStr(_ *unit, o *object, _ *scratch) wire.Reply { return wire.Bulk(o.str) }

func (sh *shard) set(u *unit, _ *object, _ *scratch) wire.Reply {
	// A fresh object Put over a present key too: the recorder sees it.
	o := &object{str: bytes.Clone(u.args[0])}
	if sh.obj.Contains(u.key) {
		sh.obj.Put(sh.h, u.key, o)
	} else {
		sh.create(u.key, o)
	}
	return wire.OK()
}

func (sh *shard) del(u *unit, _ *object, _ *scratch) wire.Reply {
	return oneIf(sh.obj.Remove(sh.h, u.key))
}

func (sh *shard) exists(u *unit, _ *object, _ *scratch) wire.Reply {
	return oneIf(sh.obj.Contains(u.key))
}

func oneIf(b bool) wire.Reply {
	if b {
		return wire.Int64(1)
	}
	return wire.Int64(0)
}

func (sh *shard) incr(u *unit, o *object, _ *scratch) wire.Reply {
	if o == nil {
		sh.create(u.key, &object{str: []byte("1")})
		return wire.Int64(1)
	}
	// Only the canonical spelling counts, as in redis' string2ll: the
	// value must format back to exactly its bytes, so "+5", "007" and
	// "-0" are not integers. The digits are formatted on the stack.
	n, err := strconv.ParseInt(string(o.str), 10, 64)
	var digits [20]byte
	if err != nil || n == int64(1<<63-1) || !bytes.Equal(strconv.AppendInt(digits[:0], n, 10), o.str) {
		return errNotInt
	}
	n++
	o.str = strconv.AppendInt(nil, n, 10)
	return wire.Int64(n)
}

func (sh *shard) sadd(u *unit, o *object, _ *scratch) wire.Reply {
	if o == nil {
		o = &object{set: make(map[string]struct{}, len(u.args))}
		sh.create(u.key, o)
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
}

func (sh *shard) srem(u *unit, o *object, _ *scratch) wire.Reply {
	removed := int64(0)
	for _, m := range u.args {
		k := string(m)
		if _, ok := o.set[k]; ok {
			delete(o.set, k)
			removed++
		}
	}
	if len(o.set) == 0 {
		sh.obj.Remove(sh.h, u.key)
	}
	return wire.Int64(removed)
}

func (*shard) smembers(_ *unit, o *object, sc *scratch) wire.Reply {
	members := make([]string, 0, len(o.set))
	for m := range o.set {
		members = append(members, m)
	}
	// Sorted for determinism; redis leaves set order unspecified.
	sort.Strings(members)
	from := len(sc.arena)
	for _, m := range members {
		sc.arena = append(sc.arena, wire.BulkString(m))
	}
	return sc.array(from)
}

func (sh *shard) lpush(u *unit, o *object, _ *scratch) wire.Reply {
	fresh := o == nil
	if fresh {
		o = &object{list: new(list)}
	}
	// LPUSH a b c leaves c at the head.
	if !o.list.push(u.args) {
		return errListTooLong
	}
	if fresh {
		sh.create(u.key, o)
	}
	return wire.Int64(int64(o.list.len()))
}

func (*shard) lrange(u *unit, o *object, _ *scratch) wire.Reply {
	start, stop, ok := parseRangeIndexes(u.args, o.list.len())
	if !ok {
		return errNotInt
	}
	if start > stop {
		return wire.Array()
	}
	// The window as the list stores it: already the reply's encoding.
	return wire.Frames(stop-start+1, o.list.frames(start, stop))
}

func (sh *shard) ltrim(u *unit, o *object, _ *scratch) wire.Reply {
	start, stop, ok := parseRangeIndexes(u.args, o.list.len())
	if !ok {
		return errNotInt
	}
	if start > stop {
		sh.obj.Remove(sh.h, u.key)
		return wire.OK()
	}
	o.list.keep(start, stop)
	return wire.OK()
}

func (sh *shard) zadd(u *unit, _ *object, _ *scratch) wire.Reply {
	// Every score is parsed before the key is looked at, so a bad one
	// changes nothing and wins over WRONGTYPE, as in redis.
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
		o = &object{zs: &zset{score: make(map[string]float64)}}
		sh.create(u.key, o)
	} else if o.kind() != objZSet {
		return wrongType
	}
	added := int64(0)
	for i, score := range scores {
		if o.zs.insert(string(u.args[2*i+1]), score) {
			added++
		}
	}
	return wire.Int64(added)
}

func (*shard) zrangebyscore(u *unit, o *object, sc *scratch) wire.Reply {
	lo, hi, ok := parseScoreBounds(u.args)
	if !ok {
		return errMinMax
	}
	from, to := o.zs.boundIndexes(lo, hi)
	first := len(sc.arena)
	for _, e := range o.zs.sorted[from:to] {
		sc.arena = append(sc.arena, wire.BulkString(e.member))
	}
	return sc.array(first)
}

func (sh *shard) zremrangebyscore(u *unit, o *object, _ *scratch) wire.Reply {
	lo, hi, ok := parseScoreBounds(u.args)
	if !ok {
		return errMinMax
	}
	from, to := o.zs.boundIndexes(lo, hi)
	for _, e := range o.zs.sorted[from:to] {
		delete(o.zs.score, e.member)
	}
	removed := int64(to - from)
	o.zs.sorted = slices.Delete(o.zs.sorted, from, to) // clears the vacated tail
	if len(o.zs.sorted) == 0 {
		sh.obj.Remove(sh.h, u.key)
	}
	return wire.Int64(removed)
}

// dbsize is DBSIZE's unit: the shard's key count at this point of the batch.
func (sh *shard) dbsize(*unit, *object, *scratch) wire.Reply {
	return wire.Int64(int64(sh.obj.Len()))
}

func (sh *shard) flush(*unit, *object, *scratch) wire.Reply {
	var keys []string
	sh.obj.Range(func(k string, _ *object) bool {
		keys = append(keys, k)
		return true
	})
	for _, k := range keys {
		sh.obj.Remove(sh.h, k)
	}
	return wire.OK()
}

// debug runs DEBUG PANIC, a deliberate crash under the shard's lock, or
// DEBUG SLEEP <seconds>, which holds the lock so tests can have a batch
// provably in flight while Shutdown drains.
func (*shard) debug(u *unit, _ *object, _ *scratch) wire.Reply {
	if strings.EqualFold(string(u.args[0]), "PANIC") {
		panic("DEBUG PANIC requested")
	}
	secs, err := strconv.ParseFloat(string(u.args[1]), 64)
	if err != nil || secs < 0 {
		return errNotFloat
	}
	time.Sleep(time.Duration(secs * float64(time.Second)))
	return wire.OK()
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

// scoreBound is one end of a ZRANGEBYSCORE interval. val may be infinite:
// ParseFloat reads "inf", "+Inf", "-infinity" and the like, as redis' strtod
// does, and the searches treat an infinite bound like any other value.
type scoreBound struct {
	val       float64
	exclusive bool
}

func parseScoreBound(b []byte) (scoreBound, bool) {
	var sb scoreBound
	if len(b) > 0 && b[0] == '(' {
		sb.exclusive = true
		b = b[1:]
	}
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil || math.IsNaN(v) {
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
	from = sort.Search(len(z.sorted), func(i int) bool {
		if lo.exclusive {
			return z.sorted[i].score > lo.val
		}
		return z.sorted[i].score >= lo.val
	})
	to = sort.Search(len(z.sorted), func(i int) bool {
		if hi.exclusive {
			return z.sorted[i].score >= hi.val
		}
		return z.sorted[i].score > hi.val
	})
	if to < from {
		to = from
	}
	return from, to
}

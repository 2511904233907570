package server

import (
	"encoding/json"
	"strings"
	"unsafe"

	"github.com/adjusted-objects/dego/internal/wire"
)

// adviseReply renders DEBUG ADVISE: the per-shard advisor output as a JSON
// bulk string, or a typed error reply when recording is off.
func adviseReply(s *Store) wire.Reply {
	advs, ok := s.Advise()
	if !ok {
		return wire.Err("ERR usage recording is off (start the store with recording enabled)")
	}
	b, err := json.Marshal(advs)
	if err != nil {
		return wire.Errf("ERR internal: marshal advice: %v", err)
	}
	return wire.Bulk(b)
}

// command is one served verb: the store's only record of its name, arity,
// fan-out and whether it writes. planCommand finds the row by name, checks
// the arity and answers a control verb at once (inline) or fans the command
// out into units, which shard.execSafe runs under their shard's lock (exec).
type command struct {
	name     string // upper-case letters
	arity    arity
	fan      fan
	readOnly bool // a data verb that writes nothing, so a batch of them may be replayed (ReadOnly)
	closes   bool // the batch ends at this command and the connection closes after its reply (QUIT)
	// kind, when set, is what the key must hold for exec to run: execSafe
	// looks the key up first, answers absent if the key is missing and absent
	// is set, and WRONGTYPE if it holds another kind. exec gets the object,
	// nil for a missing key it is to create.
	kind   objKind
	absent wire.Reply
	// inline answers a fanInline row at planning time; where it answers the
	// zero Reply (DEBUG PANIC and SLEEP), the command runs on shard 0 instead.
	inline func(s *Store, args [][]byte) wire.Reply
	// settles marks an inline row that reads what earlier commands wrote
	// (INFO, DEBUG ADVISE): the units planned before it run before it
	// answers, so it answers in program order.
	settles bool
	// exec runs one of the row's units under its shard's lock.
	exec func(sh *shard, u *unit, o *object, sc *scratch) wire.Reply
}

// arity bounds a command's argument count, the verb included.
type arity struct {
	min, max int  // max 0: no upper bound
	even     bool // score-member pairs (ZADD)
	options  bool // arguments past max are options outside the subset (SET … EX): ERR syntax error
}

// fits reports whether n arguments, the verb included, satisfy a.
func (a arity) fits(n int) bool {
	return n >= a.min && (a.max == 0 || n <= a.max) && (!a.even || n%2 == 0)
}

// arityErr is the reply to c with n arguments that do not fit its arity.
func arityErr(c *command, n int) wire.Reply {
	if c.arity.options && n > c.arity.max {
		return wire.Err("ERR syntax error")
	}
	return wire.Errf("ERR wrong number of arguments for '%s' command", strings.ToLower(c.name))
}

// fan says which units a command becomes; cmdPlan.reply combines their
// replies.
type fan uint8

const (
	fanInline fan = iota // none: inline answers at planning time
	fanKey               // one, on the shard owning args[1], with args[2:] as operands
	fanPerKey            // one per key in args[1:] (DEL, EXISTS)
	fanAll               // one per shard (DBSIZE, FLUSHALL)
)

// pong is PING's reply, shared as wire.OK's text is: the Writer only reads it.
var pong = wire.Simple("PONG")

// commands is the served verb set; docs/PROTOCOL.md's verb tables list the
// same rows, and its "Client retry safety" list the read-only ones.
var commands = [...]command{
	// Control verbs.
	{name: "PING", arity: arity{min: 1, max: 2}, inline: func(_ *Store, args [][]byte) wire.Reply {
		if len(args) == 2 {
			return wire.Bulk(args[1])
		}
		return pong
	}},
	{name: "ECHO", arity: arity{min: 2, max: 2}, inline: func(_ *Store, args [][]byte) wire.Reply { return wire.Bulk(args[1]) }},
	// Single logical database; any index is accepted.
	{name: "SELECT", arity: arity{min: 2, max: 2}, inline: func(*Store, [][]byte) wire.Reply { return wire.OK() }},
	// The batch ends here: Store.run plans nothing after it, and the
	// connection layer closes after writing this reply.
	{name: "QUIT", closes: true, inline: func(*Store, [][]byte) wire.Reply { return wire.OK() }},
	// redis-cli introspects at startup; an empty array keeps it happy.
	{name: "COMMAND", inline: func(*Store, [][]byte) wire.Reply { return wire.Array() }},
	// redis-benchmark asks CONFIG GET save/appendonly; an empty reply means
	// "nothing configured" and is accepted.
	{name: "CONFIG", inline: func(_ *Store, args [][]byte) wire.Reply {
		if len(args) >= 2 && strings.EqualFold(string(args[1]), "GET") {
			return wire.Array()
		}
		return wire.OK()
	}},
	// Each shard counts its keys in batch order, so the sum answers in
	// program order.
	{name: "DBSIZE", fan: fanAll, exec: (*shard).dbsize},
	// Full output regardless of a requested section, like a server that
	// implements no sections would; the reply is small.
	{name: "INFO", arity: arity{min: 1, max: 2}, settles: true, inline: func(s *Store, _ [][]byte) wire.Reply { return wire.Bulk([]byte(s.Info())) }},
	{name: "DEBUG", settles: true, inline: debugReply, exec: (*shard).debug},
	{name: "FLUSHALL", fan: fanAll, exec: (*shard).flush},
	{name: "FLUSHDB", fan: fanAll, exec: (*shard).flush},

	// Strings. SET takes the plain two-operand form only (docs/PROTOCOL.md).
	{name: "GET", arity: arity{min: 2, max: 2}, fan: fanKey, readOnly: true, kind: objString, absent: wire.Null(), exec: (*shard).getStr},
	{name: "SET", arity: arity{min: 3, max: 3, options: true}, fan: fanKey, exec: (*shard).set},
	{name: "INCR", arity: arity{min: 2, max: 2}, fan: fanKey, kind: objString, exec: (*shard).incr},
	{name: "DEL", arity: arity{min: 2}, fan: fanPerKey, exec: (*shard).del},
	{name: "EXISTS", arity: arity{min: 2}, fan: fanPerKey, readOnly: true, exec: (*shard).exists},

	// Sets.
	{name: "SADD", arity: arity{min: 3}, fan: fanKey, kind: objSet, exec: (*shard).sadd},
	{name: "SREM", arity: arity{min: 3}, fan: fanKey, kind: objSet, absent: wire.Int64(0), exec: (*shard).srem},
	{name: "SMEMBERS", arity: arity{min: 2, max: 2}, fan: fanKey, readOnly: true, kind: objSet, absent: wire.Array(), exec: (*shard).smembers},

	// Lists.
	{name: "LPUSH", arity: arity{min: 3}, fan: fanKey, kind: objList, exec: (*shard).lpush},
	{name: "LRANGE", arity: arity{min: 4, max: 4}, fan: fanKey, readOnly: true, kind: objList, absent: wire.Array(), exec: (*shard).lrange},
	{name: "LTRIM", arity: arity{min: 4, max: 4}, fan: fanKey, kind: objList, absent: wire.OK(), exec: (*shard).ltrim},

	// Sorted sets. ZADD checks its scores before the key, so it has no kind.
	{name: "ZADD", arity: arity{min: 4, even: true}, fan: fanKey, exec: (*shard).zadd},
	{name: "ZRANGEBYSCORE", arity: arity{min: 4, max: 4}, fan: fanKey, readOnly: true, kind: objZSet, absent: wire.Array(), exec: (*shard).zrangebyscore},
	{name: "ZREMRANGEBYSCORE", arity: arity{min: 4, max: 4}, fan: fanKey, kind: objZSet, absent: wire.Int64(0), exec: (*shard).zremrangebyscore},
}

// commandIndex finds a row by name: open addressing over twice as many
// slots as there are rows, hashed on the length and the first and last
// letters. On names this short that is several times cheaper than a map.
var commandIndex = func() (idx [indexSlots]*command) {
	for i := range commands {
		c := &commands[i]
		h := nameHash([]byte(c.name))
		for idx[h] != nil {
			h = (h + 1) % indexSlots
		}
		idx[h] = c
	}
	return idx
}()

const indexSlots = 64

// nameHash hashes a non-empty verb, in any case.
func nameHash(verb []byte) uint {
	return (uint(len(verb))*7 + uint(verb[0]|0x20)*3 + uint(verb[len(verb)-1]|0x20)) % indexSlots
}

// lookup returns verb's row, matching it in any case, or nil. It compares
// the verb's bytes in place, so it costs no allocation.
func lookup(verb []byte) *command {
	if len(verb) == 0 {
		return nil
	}
	for h := nameHash(verb); commandIndex[h] != nil; h = (h + 1) % indexSlots {
		if c := commandIndex[h]; foldEqual(c.name, verb) {
			return c
		}
	}
	return nil
}

// foldEqual reports whether verb spells name, which is upper-case letters
// only, in any case.
func foldEqual(name string, verb []byte) bool {
	if len(verb) != len(name) {
		return false
	}
	for i, b := range verb {
		if b != name[i] && b != name[i]+('a'-'A') {
			return false
		}
	}
	return true
}

// ReadOnly reports whether verb, in any case, is a data verb that writes
// nothing. A client that lost its connection mid-batch may replay a batch of
// such verbs; one with any other verb may have been partly applied.
func ReadOnly(verb []byte) bool {
	c := lookup(verb)
	return c != nil && c.readOnly
}

// debugReply answers DEBUG ADVISE and a malformed DEBUG at planning time. The
// two subcommands the resilience tests need answer nothing here: PANIC
// crashes inside a shard execution (proving execSafe's isolation), SLEEP
// holds the shard's lock (proving Shutdown drains in-flight batches), so both
// run on shard 0 (shard.debug).
func debugReply(s *Store, args [][]byte) wire.Reply {
	switch {
	case len(args) == 2 && strings.EqualFold(string(args[1]), "PANIC"),
		len(args) == 3 && strings.EqualFold(string(args[1]), "SLEEP"):
		return wire.Reply{}
	case len(args) == 2 && strings.EqualFold(string(args[1]), "ADVISE"):
		// Recorder snapshots are safe from any goroutine.
		return adviseReply(s)
	}
	return wire.Err("ERR DEBUG subcommand not supported (want PANIC, SLEEP <seconds> or ADVISE)")
}

// unit is one keyed operation bound to its owning shard. key views the
// decoded argument without a copy, valid for the unit's life: its batch runs
// before the connection decodes again or ExecBatch returns. Only a key-creating
// write keeps it, as a clone (shard.create). args holds the operands after it.
type unit struct {
	shard int
	cmd   *command
	key   string
	args  [][]byte
	out   wire.Reply
}

// cmdPlan is one planned command: a reply computed at planning time (control
// verbs, errors), or, when n > 0, a window into the batch's units. closes is
// its row's: the batch ends at it.
type cmdPlan struct {
	rep      wire.Reply
	first, n int
	closes   bool
}

// reply assembles the command reply after its units executed. One unit's
// reply passes through. Of several, the first error wins; otherwise integer
// replies are summed (DEL, EXISTS, DBSIZE) and any other reply is the first
// unit's (FLUSHALL's +OK).
func (p cmdPlan) reply(units []unit) wire.Reply {
	if p.n == 0 {
		return p.rep
	}
	us := units[p.first : p.first+p.n]
	if len(us) == 1 {
		return us[0].out
	}
	total := int64(0)
	for _, u := range us {
		if u.out.IsError() {
			return u.out
		}
		total += u.out.Int
	}
	if us[0].out.Kind != wire.KindInt {
		return us[0].out
	}
	return wire.Int64(total)
}

// planCommand turns one parsed command into a cmdPlan, appending any
// sharded units to *units. Unknown verbs and arity violations become error
// replies — the connection stays usable, unlike protocol (framing) errors.
// settle runs the units planned so far; planCommand calls it before a
// settling row answers.
func planCommand(args [][]byte, s *Store, units *[]unit, settle func()) cmdPlan {
	if len(args) == 0 {
		return cmdPlan{rep: wire.Err("ERR empty command")}
	}
	c := lookup(args[0])
	if c == nil {
		return cmdPlan{rep: wire.Errf("ERR unknown command '%s'", strings.ToUpper(string(args[0])))}
	}
	if !c.arity.fits(len(args)) {
		return cmdPlan{rep: arityErr(c, len(args))}
	}
	p := cmdPlan{first: len(*units), closes: c.closes}
	add := func(shard int, key []byte, operands [][]byte) {
		*units = append(*units, unit{shard: shard, cmd: c, key: unsafe.String(unsafe.SliceData(key), len(key)), args: operands})
	}
	switch c.fan {
	case fanInline:
		if c.settles {
			settle()
		}
		if p.rep = c.inline(s, args); p.rep.Kind != 0 {
			return p
		}
		add(0, nil, args[1:]) // DEBUG PANIC or SLEEP
	case fanKey:
		add(s.ShardOf(args[1]), args[1], args[2:])
	case fanPerKey:
		for _, k := range args[1:] {
			add(s.ShardOf(k), k, nil)
		}
	case fanAll:
		for i := range s.shards {
			add(i, nil, nil)
		}
	}
	p.n = len(*units) - p.first
	return p
}

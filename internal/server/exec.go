package server

import (
	"encoding/json"
	"strings"

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

// opcode is one shard-executable operation. Multi-key commands (DEL,
// EXISTS) are split into one unit per key at planning time so each key
// routes to its owning shard; FLUSHALL fans a unit to every shard.
type opcode uint8

const (
	opGet opcode = iota + 1
	opSet
	opDel
	opExists
	opIncr
	opSAdd
	opSRem
	opSMembers
	opLPush
	opLRange
	opLTrim
	opZAdd
	opZRangeByScore
	opZRemRangeByScore
	opFlush
	// Debug opcodes (DEBUG PANIC / DEBUG SLEEP): deliberate shard
	// crashes and stalls for the resilience tests.
	opPanic
	opSleep
)

// unit is one keyed operation bound to its owning shard. args holds the
// operands after the key (values, members, range bounds).
type unit struct {
	shard int
	op    opcode
	key   string
	args  [][]byte
	out   wire.Reply
}

// agg says how a command's units combine into its reply.
type agg uint8

const (
	aggFirst agg = iota // single unit: its reply is the command reply
	aggSum              // sum integer unit replies (DEL, EXISTS)
	aggOK               // all units succeeded: +OK (FLUSHALL)
)

// cmdPlan is one planned command: either an inline reply computed at
// planning time (control verbs, errors) or a window into the batch's units.
type cmdPlan struct {
	done  bool
	rep   wire.Reply
	first int
	n     int
	agg   agg
}

func inlinePlan(rep wire.Reply) cmdPlan { return cmdPlan{done: true, rep: rep} }

// reply assembles the command reply after its units executed.
func (p cmdPlan) reply(units []unit) wire.Reply {
	if p.done {
		return p.rep
	}
	switch p.agg {
	case aggSum:
		total := int64(0)
		for _, u := range units[p.first : p.first+p.n] {
			if u.out.IsError() {
				return u.out
			}
			total += u.out.Int
		}
		return wire.Int64(total)
	case aggOK:
		for _, u := range units[p.first : p.first+p.n] {
			if u.out.IsError() {
				return u.out
			}
		}
		return wire.OK()
	default:
		return units[p.first].out
	}
}

func arityErr(verb []byte) cmdPlan {
	return inlinePlan(wire.Errf("ERR wrong number of arguments for '%s' command", strings.ToLower(string(verb))))
}

// upperASCII appends verb to buf in upper case. Every verb of the subset is
// ASCII, so this is strings.ToUpper for anything the switch can match.
func upperASCII(buf, verb []byte) []byte {
	buf = append(buf, verb...)
	for i, c := range buf {
		if 'a' <= c && c <= 'z' {
			buf[i] = c - ('a' - 'A')
		}
	}
	return buf
}

// planCommand turns one parsed command into a cmdPlan, appending any
// sharded units to *units. Control verbs answer inline; data verbs route by
// key hash. Unknown verbs and arity violations become error replies — the
// connection stays usable, unlike protocol (framing) errors.
func planCommand(args [][]byte, s *Store, units *[]unit) cmdPlan {
	if len(args) == 0 {
		return inlinePlan(wire.Err("ERR empty command"))
	}
	// Upper-cased on the stack (the longest verb, ZREMRANGEBYSCORE, is 16
	// bytes) and matched without a string conversion that outlives the
	// switch: the verb costs no allocation.
	var vb [16]byte
	verb := upperASCII(vb[:0], args[0])

	addUnit := func(op opcode, key []byte, rest [][]byte) {
		*units = append(*units, unit{
			shard: s.ShardOf(key),
			op:    op,
			key:   string(key),
			args:  rest,
		})
	}
	// single: one unit, reply passthrough.
	single := func(op opcode, key []byte, rest [][]byte) cmdPlan {
		p := cmdPlan{first: len(*units), n: 1, agg: aggFirst}
		addUnit(op, key, rest)
		return p
	}
	// perKey: one unit per key, integer replies summed.
	perKey := func(op opcode, keys [][]byte) cmdPlan {
		p := cmdPlan{first: len(*units), n: len(keys), agg: aggSum}
		for _, k := range keys {
			addUnit(op, k, nil)
		}
		return p
	}

	switch string(verb) {
	// --- control verbs, answered at planning time -----------------------
	case "PING":
		switch len(args) {
		case 1:
			return inlinePlan(wire.Simple("PONG"))
		case 2:
			return inlinePlan(wire.Bulk(args[1]))
		}
		return arityErr(verb)
	case "ECHO":
		if len(args) != 2 {
			return arityErr(verb)
		}
		return inlinePlan(wire.Bulk(args[1]))
	case "SELECT":
		// Single logical database; any index is accepted.
		if len(args) != 2 {
			return arityErr(verb)
		}
		return inlinePlan(wire.OK())
	case "QUIT":
		// The connection layer closes after writing this reply; for an
		// in-process caller it is a no-op acknowledgement.
		return inlinePlan(wire.OK())
	case "COMMAND":
		// redis-cli introspects at startup; an empty array keeps it happy.
		return inlinePlan(wire.Array())
	case "CONFIG":
		// redis-benchmark asks CONFIG GET save/appendonly; an empty reply
		// means "nothing configured" and is accepted.
		if len(args) >= 2 && strings.EqualFold(string(args[1]), "GET") {
			return inlinePlan(wire.Array())
		}
		return inlinePlan(wire.OK())
	case "DBSIZE":
		return inlinePlan(wire.Int64(int64(s.Len())))
	case "INFO":
		// Full output regardless of a requested section, like a server that
		// implements no sections would; the reply is small.
		if len(args) > 2 {
			return arityErr(verb)
		}
		return inlinePlan(wire.Bulk([]byte(s.Info())))
	case "DEBUG":
		// The two redis DEBUG subcommands the resilience tests need: PANIC
		// crashes inside a shard execution (proving execSafe's isolation),
		// SLEEP holds the shard's lock (proving Shutdown drains in-flight
		// batches). Both route to shard 0; neither touches keys.
		if len(args) == 2 && strings.EqualFold(string(args[1]), "PANIC") {
			p := cmdPlan{first: len(*units), n: 1, agg: aggFirst}
			*units = append(*units, unit{shard: 0, op: opPanic})
			return p
		}
		if len(args) == 3 && strings.EqualFold(string(args[1]), "SLEEP") {
			p := cmdPlan{first: len(*units), n: 1, agg: aggFirst}
			*units = append(*units, unit{shard: 0, op: opSleep, args: args[2:]})
			return p
		}
		if len(args) == 2 && strings.EqualFold(string(args[1]), "ADVISE") {
			// Tuning advisor over the per-shard usage recorders: a JSON
			// array, one advisor.Advice per shard. Answered at planning
			// time — recorder snapshots are safe from any goroutine.
			return inlinePlan(adviseReply(s))
		}
		return inlinePlan(wire.Err("ERR DEBUG subcommand not supported (want PANIC, SLEEP <seconds> or ADVISE)"))
	case "FLUSHALL", "FLUSHDB":
		p := cmdPlan{first: len(*units), n: len(s.shards), agg: aggOK}
		for i := range s.shards {
			*units = append(*units, unit{shard: i, op: opFlush})
		}
		return p

	// --- string verbs ---------------------------------------------------
	case "GET":
		if len(args) != 2 {
			return arityErr(verb)
		}
		return single(opGet, args[1], nil)
	case "SET":
		// The plain two-operand form only: expiry/conditional options are
		// outside the subset (docs/PROTOCOL.md).
		if len(args) != 3 {
			if len(args) > 3 {
				return inlinePlan(wire.Err("ERR syntax error"))
			}
			return arityErr(verb)
		}
		return single(opSet, args[1], args[2:3])
	case "INCR":
		if len(args) != 2 {
			return arityErr(verb)
		}
		return single(opIncr, args[1], nil)
	case "DEL":
		if len(args) < 2 {
			return arityErr(verb)
		}
		return perKey(opDel, args[1:])
	case "EXISTS":
		if len(args) < 2 {
			return arityErr(verb)
		}
		return perKey(opExists, args[1:])

	// --- set verbs ------------------------------------------------------
	case "SADD":
		if len(args) < 3 {
			return arityErr(verb)
		}
		return single(opSAdd, args[1], args[2:])
	case "SREM":
		if len(args) < 3 {
			return arityErr(verb)
		}
		return single(opSRem, args[1], args[2:])
	case "SMEMBERS":
		if len(args) != 2 {
			return arityErr(verb)
		}
		return single(opSMembers, args[1], nil)

	// --- list verbs -----------------------------------------------------
	case "LPUSH":
		if len(args) < 3 {
			return arityErr(verb)
		}
		return single(opLPush, args[1], args[2:])
	case "LRANGE":
		if len(args) != 4 {
			return arityErr(verb)
		}
		return single(opLRange, args[1], args[2:])
	case "LTRIM":
		if len(args) != 4 {
			return arityErr(verb)
		}
		return single(opLTrim, args[1], args[2:])

	// --- sorted-set verbs -----------------------------------------------
	case "ZADD":
		if len(args) < 4 || len(args)%2 != 0 {
			return arityErr(verb)
		}
		return single(opZAdd, args[1], args[2:])
	case "ZRANGEBYSCORE":
		if len(args) != 4 {
			return arityErr(verb)
		}
		return single(opZRangeByScore, args[1], args[2:])
	case "ZREMRANGEBYSCORE":
		if len(args) != 4 {
			return arityErr(verb)
		}
		return single(opZRemRangeByScore, args[1], args[2:])

	default:
		return inlinePlan(wire.Errf("ERR unknown command '%s'", strings.ToUpper(string(args[0]))))
	}
}

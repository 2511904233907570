package server

import (
	"strings"
	"testing"
)

// TestArityAndErrorPrecedence pins the exact reply of every served verb at
// the edges of its arity, and which error wins when more than one applies.
// The cases are written out by hand, not derived from the command table, so
// a change to the table cannot change what this test expects. Each command
// runs alone against keys of every kind: str (a string), s (a set), l (a
// list), z (a sorted set); absent is never created.
func TestArityAndErrorPrecedence(t *testing.T) {
	const (
		wrongType = "(error) WRONGTYPE Operation against a key holding the wrong kind of value"
		notInt    = "(error) ERR value is not an integer or out of range"
		notFloat  = "(error) ERR value is not a valid float"
		minMax    = "(error) ERR min or max is not a float"
		debugSub  = "(error) ERR DEBUG subcommand not supported (want PANIC, SLEEP <seconds> or ADVISE)"
	)
	arity := func(verb string) string {
		return "(error) ERR wrong number of arguments for '" + verb + "' command"
	}
	for _, c := range []struct {
		cmd  string // space-separated arguments
		want string // wire.Reply.String of the reply
	}{
		// One argument too few. The key named is of the wrong kind where
		// there is one, so the arity error must win over WRONGTYPE.
		{"GET", arity("get")},
		{"SET s", arity("set")},
		{"INCR", arity("incr")},
		{"DEL", arity("del")},
		{"EXISTS", arity("exists")},
		{"SADD str", arity("sadd")},
		{"SREM str", arity("srem")},
		{"SMEMBERS", arity("smembers")},
		{"LPUSH str", arity("lpush")},
		{"LRANGE str 0", arity("lrange")},
		{"LTRIM str 0", arity("ltrim")},
		{"ZADD str 1", arity("zadd")},
		{"ZRANGEBYSCORE str 0", arity("zrangebyscore")},
		{"ZREMRANGEBYSCORE str 0", arity("zremrangebyscore")},
		{"ECHO", arity("echo")},
		{"SELECT", arity("select")},
		{"DEBUG", debugSub},

		// One argument too many, where the verb has a maximum; for ZADD, an
		// odd count (a score without its member).
		{"GET s x", arity("get")},
		{"SET str v EX", "(error) ERR syntax error"},
		{"INCR s x", arity("incr")},
		{"SMEMBERS str x", arity("smembers")},
		{"LRANGE str 0 1 x", arity("lrange")},
		{"LTRIM str 0 1 x", arity("ltrim")},
		{"ZADD str 1 m 2", arity("zadd")},
		{"ZRANGEBYSCORE str 0 1 x", arity("zrangebyscore")},
		{"ZREMRANGEBYSCORE str 0 1 x", arity("zremrangebyscore")},
		{"PING a b", arity("ping")},
		{"ECHO a b", arity("echo")},
		{"SELECT 0 1", arity("select")},
		{"INFO a b", arity("info")},
		{"DEBUG PANIC x", debugSub},
		{"DEBUG SLEEP", debugSub},
		{"DEBUG SLEEP 0 1", debugSub},
		{"DEBUG ADVISE x", debugSub},
		{"DEBUG NOPE", debugSub},

		// The verb is matched in any case; an unknown one is named upper-cased.
		{"get str", `"v"`},
		{"ZrangeByScore z -inf +inf", `["a" "b"]`},
		{"nope x", "(error) ERR unknown command 'NOPE'"},
		{"ZREMRANGEBYSCOREX z", "(error) ERR unknown command 'ZREMRANGEBYSCOREX'"},

		// ZADD checks every score before it looks at the key.
		{"ZADD str x m", notFloat},
		{"ZADD str 1 m nan n", notFloat},
		{"ZADD str 1 m", wrongType},
		{"ZADD absent 1 m x n", notFloat},

		// The other keyed verbs look at the key first: an absent key answers
		// before the bounds are parsed, a key of the wrong kind replies
		// WRONGTYPE, and only then are the bounds read.
		{"LRANGE absent x y", "[]"},
		{"LTRIM absent x y", "OK"},
		{"ZRANGEBYSCORE absent x y", "[]"},
		{"ZREMRANGEBYSCORE absent x y", "(integer) 0"},
		{"LRANGE str x y", wrongType},
		{"LTRIM z x y", wrongType},
		{"ZRANGEBYSCORE l x y", wrongType},
		{"ZREMRANGEBYSCORE s x y", wrongType},
		{"LRANGE l x 0", notInt},
		{"LTRIM l 0 y", notInt},
		{"ZRANGEBYSCORE z x 0", minMax},
		{"ZREMRANGEBYSCORE z 0 (y", minMax},

		// Absent keys and wrong kinds for the rest of the keyed verbs.
		{"GET absent", "(nil)"},
		{"GET s", wrongType},
		{"INCR str", notInt},
		{"INCR l", wrongType},
		{"SADD str m", wrongType},
		{"SREM absent m", "(integer) 0"},
		{"SREM l m", wrongType},
		{"SMEMBERS absent", "[]"},
		{"SMEMBERS z", wrongType},
		{"LPUSH s v", wrongType},
		{"EXISTS absent str s", "(integer) 2"},
		{"DEL absent", "(integer) 0"},
		{"DEBUG SLEEP x", notFloat},
		{"DEBUG SLEEP -1", notFloat},
	} {
		st := newTestStore(t, 1)
		for _, seed := range []string{"SET str v", "SADD s a", "LPUSH l a", "ZADD z 1 a 2 b"} {
			st.Exec(cmd(strings.Fields(seed)...))
		}
		if got := st.Exec(cmd(strings.Fields(c.cmd)...)).String(); got != c.want {
			t.Errorf("%s: replied %s, want %s", c.cmd, got, c.want)
		}
	}
	if got := newTestStore(t, 1).Exec(nil).String(); got != "(error) ERR empty command" {
		t.Errorf("empty command: replied %s", got)
	}
}

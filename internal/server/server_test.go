package server

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/adjusted-objects/dego"
	"github.com/adjusted-objects/dego/internal/wire"
)

func cmd(args ...string) [][]byte {
	out := make([][]byte, len(args))
	for i, a := range args {
		out[i] = []byte(a)
	}
	return out
}

func newTestStore(t testing.TB, shards int) *Store {
	t.Helper()
	st, err := NewStore(StoreConfig{Shards: shards, Capacity: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	return st
}

func wantInt(t *testing.T, rep wire.Reply, n int64) {
	t.Helper()
	if rep.Kind != wire.KindInt || rep.Int != n {
		t.Fatalf("reply = %v, want (integer) %d", rep, n)
	}
}

func wantBulk(t *testing.T, rep wire.Reply, s string) {
	t.Helper()
	if rep.Kind != wire.KindBulk || rep.Text() != s {
		t.Fatalf("reply = %v, want bulk %q", rep, s)
	}
}

func wantOK(t *testing.T, rep wire.Reply) {
	t.Helper()
	if rep.Kind != wire.KindSimple || rep.Text() != "OK" {
		t.Fatalf("reply = %v, want +OK", rep)
	}
}

func wantMembers(t *testing.T, rep wire.Reply, members ...string) {
	t.Helper()
	if rep.Kind != wire.KindArray || len(rep.Elems) != len(members) {
		t.Fatalf("reply = %v, want %d-element array %v", rep, len(members), members)
	}
	for i, m := range members {
		if rep.Elems[i].Text() != m {
			t.Fatalf("elem %d = %v, want %q (full: %v)", i, rep.Elems[i], m, rep)
		}
	}
}

func TestStoreStringOps(t *testing.T) {
	st := newTestStore(t, 2)
	if rep := st.Exec(cmd("GET", "k")); rep.Kind != wire.KindNull {
		t.Fatalf("GET missing = %v, want (nil)", rep)
	}
	wantOK(t, st.Exec(cmd("SET", "k", "v1")))
	wantBulk(t, st.Exec(cmd("GET", "k")), "v1")
	wantOK(t, st.Exec(cmd("SET", "k", "v2")))
	wantBulk(t, st.Exec(cmd("GET", "k")), "v2")

	wantInt(t, st.Exec(cmd("INCR", "n")), 1)
	wantInt(t, st.Exec(cmd("INCR", "n")), 2)
	wantBulk(t, st.Exec(cmd("GET", "n")), "2")
	if rep := st.Exec(cmd("INCR", "k")); !rep.IsError() || !strings.Contains(rep.Text(), "not an integer") {
		t.Fatalf("INCR non-int = %v", rep)
	}
	// Only a canonical integer counts, as in redis: no sign on a positive
	// value, no leading zero, no negative zero, no blanks, within int64. A
	// rejected value stays as stored.
	for _, bad := range []string{"+5", "007", "-0", "00", " 5", "5 ", "", "1e3",
		"9223372036854775807", "9223372036854775808"} {
		wantOK(t, st.Exec(cmd("SET", "c", bad)))
		if rep := st.Exec(cmd("INCR", "c")); !rep.IsError() || rep.Text() != errNotInt.Text() {
			t.Fatalf("SET c %q; INCR c = %v, want %v", bad, rep, errNotInt)
		}
		wantBulk(t, st.Exec(cmd("GET", "c")), bad)
	}
	for _, good := range []int64{0, -1, -5, 41, -9223372036854775808} {
		wantOK(t, st.Exec(cmd("SET", "c", strconv.FormatInt(good, 10))))
		wantInt(t, st.Exec(cmd("INCR", "c")), good+1)
		wantBulk(t, st.Exec(cmd("GET", "c")), strconv.FormatInt(good+1, 10))
	}

	wantInt(t, st.Exec(cmd("EXISTS", "k", "n", "ghost")), 2)
	wantInt(t, st.Exec(cmd("DEL", "k", "ghost")), 1)
	wantInt(t, st.Exec(cmd("EXISTS", "k")), 0)

	// Type guard: a string verb against a collection key.
	wantInt(t, st.Exec(cmd("SADD", "s", "a")), 1)
	if rep := st.Exec(cmd("GET", "s")); !rep.IsError() || !strings.HasPrefix(rep.Text(), "WRONGTYPE") {
		t.Fatalf("GET on set = %v, want WRONGTYPE", rep)
	}
	if rep := st.Exec(cmd("INCR", "s")); !rep.IsError() || !strings.HasPrefix(rep.Text(), "WRONGTYPE") {
		t.Fatalf("INCR on set = %v, want WRONGTYPE", rep)
	}
	// SET replaces regardless of the old type, as in redis.
	wantOK(t, st.Exec(cmd("SET", "s", "now-a-string")))
	wantBulk(t, st.Exec(cmd("GET", "s")), "now-a-string")
}

func TestStoreSetOps(t *testing.T) {
	st := newTestStore(t, 2)
	wantInt(t, st.Exec(cmd("SADD", "s", "b", "a", "b")), 2)
	wantInt(t, st.Exec(cmd("SADD", "s", "c", "a")), 1)
	wantMembers(t, st.Exec(cmd("SMEMBERS", "s")), "a", "b", "c")
	wantInt(t, st.Exec(cmd("SREM", "s", "a", "ghost")), 1)
	wantMembers(t, st.Exec(cmd("SMEMBERS", "s")), "b", "c")
	// Removing the last member deletes the key.
	wantInt(t, st.Exec(cmd("SREM", "s", "b", "c")), 2)
	wantInt(t, st.Exec(cmd("EXISTS", "s")), 0)
	wantMembers(t, st.Exec(cmd("SMEMBERS", "s")))
}

func TestStoreListOps(t *testing.T) {
	st := newTestStore(t, 1)
	wantInt(t, st.Exec(cmd("LPUSH", "l", "a", "b")), 2)
	wantInt(t, st.Exec(cmd("LPUSH", "l", "c")), 3)
	// LPUSH a b, then c: head order is c, b, a.
	wantMembers(t, st.Exec(cmd("LRANGE", "l", "0", "-1")), "c", "b", "a")
	wantMembers(t, st.Exec(cmd("LRANGE", "l", "0", "0")), "c")
	wantMembers(t, st.Exec(cmd("LRANGE", "l", "-2", "-1")), "b", "a")
	wantMembers(t, st.Exec(cmd("LRANGE", "l", "1", "0")))
	wantMembers(t, st.Exec(cmd("LRANGE", "l", "0", "99")), "c", "b", "a")

	wantOK(t, st.Exec(cmd("LTRIM", "l", "0", "1")))
	wantMembers(t, st.Exec(cmd("LRANGE", "l", "0", "-1")), "c", "b")
	// Trimming to an empty window deletes the key.
	wantOK(t, st.Exec(cmd("LTRIM", "l", "5", "3")))
	wantInt(t, st.Exec(cmd("EXISTS", "l")), 0)

	if rep := st.Exec(cmd("LRANGE", "l2", "x", "1")); rep.Kind != wire.KindArray {
		t.Fatalf("LRANGE on missing key with bad index = %v, want empty array", rep)
	}
	wantInt(t, st.Exec(cmd("LPUSH", "l2", "v")), 1)
	if rep := st.Exec(cmd("LRANGE", "l2", "x", "1")); !rep.IsError() {
		t.Fatalf("LRANGE bad index = %v, want error", rep)
	}
}

func TestStoreZSetOps(t *testing.T) {
	st := newTestStore(t, 1)
	wantInt(t, st.Exec(cmd("ZADD", "z", "2", "b", "1", "a", "3", "c")), 3)
	wantInt(t, st.Exec(cmd("ZADD", "z", "2.5", "bb", "1", "a")), 1) // a rescored-not-added
	wantMembers(t, st.Exec(cmd("ZRANGEBYSCORE", "z", "-inf", "+inf")), "a", "b", "bb", "c")
	wantMembers(t, st.Exec(cmd("ZRANGEBYSCORE", "z", "2", "3")), "b", "bb", "c")
	wantMembers(t, st.Exec(cmd("ZRANGEBYSCORE", "z", "(2", "3")), "bb", "c")
	wantMembers(t, st.Exec(cmd("ZRANGEBYSCORE", "z", "2", "(3")), "b", "bb")

	// Rescoring moves a member in the order.
	wantInt(t, st.Exec(cmd("ZADD", "z", "9", "a")), 0)
	wantMembers(t, st.Exec(cmd("ZRANGEBYSCORE", "z", "4", "+inf")), "a")

	// a was rescored to 9 above, so only b(2) and bb(2.5) fall in the window.
	wantInt(t, st.Exec(cmd("ZREMRANGEBYSCORE", "z", "-inf", "2.5")), 2)
	wantMembers(t, st.Exec(cmd("ZRANGEBYSCORE", "z", "-inf", "+inf")), "c", "a")
	wantInt(t, st.Exec(cmd("ZREMRANGEBYSCORE", "z", "-inf", "+inf")), 2)
	wantInt(t, st.Exec(cmd("EXISTS", "z")), 0)

	if rep := st.Exec(cmd("ZADD", "z", "notafloat", "m")); !rep.IsError() {
		t.Fatalf("ZADD bad score = %v, want error", rep)
	}
	wantInt(t, st.Exec(cmd("EXISTS", "z")), 0) // the failed ZADD created nothing
	wantInt(t, st.Exec(cmd("ZADD", "z", "1", "m")), 1)
	if rep := st.Exec(cmd("ZRANGEBYSCORE", "z", "x", "1")); !rep.IsError() {
		t.Fatalf("ZRANGEBYSCORE bad bound = %v, want error", rep)
	}

	// A bad score anywhere in the command changes nothing, on a present key
	// or a fresh one: every score is checked before the first insert.
	wantInt(t, st.Exec(cmd("ZADD", "p", "1", "a")), 1)
	for _, bad := range [][][]byte{cmd("ZADD", "p", "2", "b", "x", "c"), cmd("ZADD", "p", "2", "b", "nan", "c"),
		cmd("ZADD", "fresh", "2", "b", "x", "c")} {
		if rep := st.Exec(bad); !rep.IsError() || rep.Text() != errNotFloat.Text() {
			t.Fatalf("%q = %v, want %v", bad, rep, errNotFloat)
		}
	}
	wantMembers(t, st.Exec(cmd("ZRANGEBYSCORE", "p", "-inf", "+inf")), "a")
	wantInt(t, st.Exec(cmd("EXISTS", "fresh")), 0)
	wantInt(t, st.Exec(cmd("DBSIZE")), 2)

	// Infinite scores are scores like any other: a bound at ±inf, inclusive
	// or exclusive, in any spelling strtod reads, selects what redis selects.
	// A NaN bound is not a float.
	wantInt(t, st.Exec(cmd("ZADD", "inf", "+inf", "top", "-inf", "bot", "1", "one")), 3)
	for _, row := range []struct {
		min, max string
		want     []string
	}{
		{"-inf", "+inf", []string{"bot", "one", "top"}},
		{"+inf", "+inf", []string{"top"}},
		{"-inf", "-inf", []string{"bot"}},
		{"(-inf", "(+inf", []string{"one"}},
		{"(-inf", "+inf", []string{"one", "top"}},
		{"-inf", "(+inf", []string{"bot", "one"}},
		{"inf", "Infinity", []string{"top"}},
		{"-Infinity", "-INF", []string{"bot"}},
		{"+inf", "-inf", nil},
		{"(1", "+Inf", []string{"top"}},
	} {
		wantMembers(t, st.Exec(cmd("ZRANGEBYSCORE", "inf", row.min, row.max)), row.want...)
	}
	for _, bad := range [][][]byte{cmd("ZRANGEBYSCORE", "inf", "0", "nan"), cmd("ZRANGEBYSCORE", "inf", "(NaN", "1"),
		cmd("ZREMRANGEBYSCORE", "inf", "nan", "+inf")} {
		if rep := st.Exec(bad); !rep.IsError() || rep.Text() != errMinMax.Text() {
			t.Fatalf("%q = %v, want %v", bad, rep, errMinMax)
		}
	}
	wantInt(t, st.Exec(cmd("ZREMRANGEBYSCORE", "inf", "+inf", "+inf")), 1)
	wantInt(t, st.Exec(cmd("ZREMRANGEBYSCORE", "inf", "(-inf", "(+inf")), 1)
	wantMembers(t, st.Exec(cmd("ZRANGEBYSCORE", "inf", "-inf", "+inf")), "bot")
}

// TestZRemRangeByScoreReleasesRemovedMembers: removing a score range leaves
// no removed entry past the sorted slice's length, where it would pin the
// member's string for as long as the key lives.
func TestZRemRangeByScoreReleasesRemovedMembers(t *testing.T) {
	st := newTestStore(t, 1)
	wantInt(t, st.Exec(cmd("ZADD", "z", "1", "a", "2", "b", "3", "c")), 3)
	wantInt(t, st.Exec(cmd("ZREMRANGEBYSCORE", "z", "(1", "+inf")), 2)
	o, ok := st.shards[0].obj.Get("z")
	if !ok {
		t.Fatal("z is gone, want it to keep a")
	}
	sorted := o.zs.sorted
	if len(sorted) != 1 || sorted[0].member != "a" {
		t.Fatalf("z holds %v, want [{a 1}]", sorted)
	}
	for i, e := range sorted[len(sorted):cap(sorted)] {
		if e != (zentry{}) {
			t.Fatalf("slot %d past the length still holds %v", len(sorted)+i, e)
		}
	}
}

func TestStoreMultiKeyAndFlush(t *testing.T) {
	st := newTestStore(t, 4)
	const n = 64
	for i := 0; i < n; i++ {
		wantOK(t, st.Exec(cmd("SET", "k"+strconv.Itoa(i), "v")))
	}
	if got := st.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	wantInt(t, st.Exec(cmd("DBSIZE")), n)
	// Spot-check keys really spread over shards.
	seen := map[int]bool{}
	for i := 0; i < n; i++ {
		seen[st.ShardOf([]byte("k"+strconv.Itoa(i)))] = true
	}
	if len(seen) < 2 {
		t.Fatalf("all keys landed on %d shard(s)", len(seen))
	}
	wantInt(t, st.Exec(cmd("DEL", "k0", "k1", "k2", "ghost")), 3)
	wantInt(t, st.Exec(cmd("EXISTS", "k0", "k3", "k4")), 2)
	wantOK(t, st.Exec(cmd("FLUSHALL")))
	if got := st.Len(); got != 0 {
		t.Fatalf("Len after FLUSHALL = %d, want 0", got)
	}
}

func TestStoreControlAndErrors(t *testing.T) {
	st := newTestStore(t, 1)
	if rep := st.Exec(cmd("PING")); rep.Text() != "PONG" {
		t.Fatalf("PING = %v", rep)
	}
	wantBulk(t, st.Exec(cmd("PING", "hi")), "hi")
	wantBulk(t, st.Exec(cmd("ECHO", "yo")), "yo")
	wantOK(t, st.Exec(cmd("SELECT", "0")))
	wantOK(t, st.Exec(cmd("QUIT")))
	if rep := st.Exec(cmd("COMMAND", "DOCS")); rep.Kind != wire.KindArray {
		t.Fatalf("COMMAND = %v, want array", rep)
	}
	if rep := st.Exec(cmd("CONFIG", "GET", "save")); rep.Kind != wire.KindArray {
		t.Fatalf("CONFIG GET = %v, want array", rep)
	}
	if rep := st.Exec(cmd("NOPE", "x")); !rep.IsError() || !strings.Contains(rep.Text(), "unknown command") {
		t.Fatalf("unknown = %v", rep)
	}
	for _, bad := range [][][]byte{
		cmd("GET"), cmd("SET", "k"), cmd("INCR"), cmd("DEL"), cmd("SADD", "s"),
		cmd("SMEMBERS"), cmd("LPUSH", "l"), cmd("LRANGE", "l", "0"),
		cmd("ZADD", "z", "1"), cmd("ZADD", "z", "1", "m", "2"), cmd("ZRANGEBYSCORE", "z", "0"),
	} {
		if rep := st.Exec(bad); !rep.IsError() {
			t.Fatalf("Exec(%q) = %v, want arity error", bad, rep)
		}
	}
	if rep := st.Exec(cmd("SET", "k", "v", "EX", "10")); !rep.IsError() {
		t.Fatalf("SET with options = %v, want syntax error (outside the subset)", rep)
	}
}

// TestParseStoreKind: StoreConfig accepts an empty Kind or StoreAdaptive,
// and both come out as StoreAdaptive; any other kind, including the retired
// striped, segmented and flat ones, is refused with the typed error before
// a store is built.
func TestParseStoreKind(t *testing.T) {
	for _, kind := range []string{"", StoreAdaptive} {
		cfg := StoreConfig{Kind: kind}
		if err := cfg.fill(); err != nil || cfg.Kind != StoreAdaptive {
			t.Fatalf("Kind %q: fill = %v, kind %q, want nil and %q", kind, err, cfg.Kind, StoreAdaptive)
		}
	}
	for _, kind := range []string{"striped", "segmented", "flat", "bogus", "Adaptive"} {
		cfg := StoreConfig{Kind: kind}
		var uk *UnknownStoreKindError
		if err := cfg.fill(); !errors.As(err, &uk) || uk.Kind != kind {
			t.Fatalf("Kind %q: fill = %v, want *UnknownStoreKindError", kind, err)
		}
		if _, err := NewStore(StoreConfig{Kind: kind}); !errors.As(err, &uk) || uk.Kind != kind {
			t.Fatalf("Kind %q: NewStore = %v, want *UnknownStoreKindError", kind, err)
		}
	}
}

// TestStoreKindsPlanAsDeclared pins the one shard map the store plans, with
// and without usage recording, whether Kind is left empty or named.
func TestStoreKindsPlanAsDeclared(t *testing.T) {
	for _, cfg := range []StoreConfig{
		{Shards: 2, Capacity: 256},
		{Shards: 2, Kind: StoreAdaptive, Capacity: 256, Record: true},
	} {
		st, err := NewStore(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		wantOK(t, st.Exec(cmd("SET", "k", "v")))
		wantBulk(t, st.Exec(cmd("GET", "k")), "v")
		if st.Kind() != StoreAdaptive {
			t.Fatalf("%+v: Kind = %q, want %q", cfg, st.Kind(), StoreAdaptive)
		}
		if plan := st.Plan(); plan.Rep != "SWMRMap" || plan.Declared() != "(M2, SWMR)" {
			t.Fatalf("%+v: plan %s declared %s", cfg, plan.Rep, plan.Declared())
		}
	}
	var uk *UnknownStoreKindError
	if _, err := NewStore(StoreConfig{Kind: "striped"}); !errors.As(err, &uk) {
		t.Fatalf(`Kind "striped": NewStore = %v, want *UnknownStoreKindError`, err)
	}
}

// TestStoreBatchOrderPerShard: commands in one pipeline batch that touch
// the same key execute in batch order.
func TestStoreBatchOrderPerShard(t *testing.T) {
	st := newTestStore(t, 4)
	reps := st.ExecBatch([][][]byte{
		cmd("SET", "k", "a"),
		cmd("GET", "k"),
		cmd("SET", "k", "b"),
		cmd("GET", "k"),
		cmd("INCR", "ctr"),
		cmd("INCR", "ctr"),
		cmd("DEL", "k"),
		cmd("GET", "k"),
	})
	wantOK(t, reps[0])
	wantBulk(t, reps[1], "a")
	wantOK(t, reps[2])
	wantBulk(t, reps[3], "b")
	wantInt(t, reps[4], 1)
	wantInt(t, reps[5], 2)
	wantInt(t, reps[6], 1)
	if reps[7].Kind != wire.KindNull {
		t.Fatalf("GET after DEL = %v, want (nil)", reps[7])
	}
}

// TestDBSizeAnswersInProgramOrder: DBSIZE counts what the commands before
// it in the batch left, on one shard and on four, whether the batch runs as
// one ExecBatch, as one Exec per command or as one TCP write, which the
// connection handler reads as one batch.
func TestDBSizeAnswersInProgramOrder(t *testing.T) {
	batch := [][]string{{"SET", "a", "v"}, {"DBSIZE"}, {"DEL", "a"}, {"DBSIZE"}}
	want := "[OK (integer) 1 (integer) 1 (integer) 0]"
	for _, shards := range []int{1, 4} {
		cmds := make([][][]byte, len(batch))
		for i, c := range batch {
			cmds[i] = cmd(c...)
		}
		if got := wire.Array(newTestStore(t, shards).ExecBatch(cmds)...).String(); got != want {
			t.Errorf("%d shards, ExecBatch: %s, want %s", shards, got, want)
		}
		st := newTestStore(t, shards)
		var reps []wire.Reply
		for _, c := range cmds {
			reps = append(reps, st.Exec(c))
		}
		if got := wire.Array(reps...).String(); got != want {
			t.Errorf("%d shards, Exec: %s, want %s", shards, got, want)
		}
		srv := startTestServer(t, Config{Store: StoreConfig{Shards: shards, Capacity: 64}})
		r, w, _ := dialTestServer(t, srv)
		if got := wire.Array(pipeline(t, r, w, batch...)...).String(); got != want {
			t.Errorf("%d shards, one TCP write: %s, want %s", shards, got, want)
		}
	}
}

// TestInfoAnswersInProgramOrder pins INFO's keys line to the commands
// before it in the same batch, as TestDBSizeAnswersInProgramOrder pins
// DBSIZE: INFO answers after the batch's earlier units ran, pipelined or
// sent apart, on one shard or four.
func TestInfoAnswersInProgramOrder(t *testing.T) {
	batch := [][]string{{"SET", "a", "v"}, {"INFO"}, {"DEL", "a"}, {"SET", "b", "v"}, {"SET", "c", "v"}, {"INFO", "keyspace"}}
	want := []string{"keys:1", "keys:2"}
	keysLines := func(reps []wire.Reply) []string {
		var got []string
		for _, i := range []int{1, 5} {
			for _, line := range strings.Split(reps[i].Text(), "\r\n") {
				if strings.HasPrefix(line, "keys:") {
					got = append(got, line)
				}
			}
		}
		return got
	}
	for _, shards := range []int{1, 4} {
		cmds := make([][][]byte, len(batch))
		for i, c := range batch {
			cmds[i] = cmd(c...)
		}
		if got := keysLines(newTestStore(t, shards).ExecBatch(cmds)); !slices.Equal(got, want) {
			t.Errorf("%d shards, ExecBatch: %q, want %q", shards, got, want)
		}
		st := newTestStore(t, shards)
		var reps []wire.Reply
		for _, c := range cmds {
			reps = append(reps, st.Exec(c))
		}
		if got := keysLines(reps); !slices.Equal(got, want) {
			t.Errorf("%d shards, Exec: %q, want %q", shards, got, want)
		}
		srv := startTestServer(t, Config{Store: StoreConfig{Shards: shards, Capacity: 64}})
		r, w, _ := dialTestServer(t, srv)
		if got := keysLines(pipeline(t, r, w, batch...)); !slices.Equal(got, want) {
			t.Errorf("%d shards, one TCP write: %q, want %q", shards, got, want)
		}
	}
}

// TestStoreAfterCloseAnswersShutDown: once Close has returned, the caller
// finds every shard's lock free and runs the units itself, and every unit,
// in single- and multi-shard batches, must answer the shut-down error
// rather than write through the released handle. Control verbs still
// answer.
func TestStoreAfterCloseAnswersShutDown(t *testing.T) {
	const shutDown = "ERR store is shut down"
	for _, shards := range []int{1, 4} {
		st := newTestStore(t, shards)
		wantOK(t, st.Exec(cmd("SET", "k", "v")))
		st.Close()

		if rep := st.Exec(cmd("SET", "k", "w")); !rep.IsError() || rep.Text() != shutDown {
			t.Fatalf("%d shards: SET after Close = %v, want -%s", shards, rep, shutDown)
		}
		batch := [][][]byte{cmd("PING")}
		touched := map[int]bool{}
		for i := 0; i < 8; i++ {
			key := "k" + strconv.Itoa(i)
			touched[st.ShardOf([]byte(key))] = true
			batch = append(batch, cmd("SET", key, "v"), cmd("GET", key), cmd("LPUSH", "l"+key, "x"))
		}
		batch = append(batch, cmd("DEL", "k0", "k1", "k2", "k3"), cmd("FLUSHALL"), cmd("GET", "k"))
		if len(touched) != shards {
			t.Fatalf("%d shards: batch touches %d of them", shards, len(touched))
		}
		reps := st.ExecBatch(batch)
		if reps[0].Text() != "PONG" {
			t.Fatalf("%d shards: PING after Close = %v", shards, reps[0])
		}
		for i, rep := range reps[1:] {
			if !rep.IsError() || rep.Text() != shutDown {
				t.Fatalf("%d shards: %q after Close = %v, want -%s", shards, batch[i+1], rep, shutDown)
			}
		}
		if n := st.Len(); n != 1 {
			t.Fatalf("%d shards: %d keys after Close, want the 1 stored before", shards, n)
		}
	}
}

// TestStoreStartsNoGoroutine: a shard is its lock, not a goroutine, so
// building a store and closing it leave the goroutine count where it was.
func TestStoreStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	st, err := NewStore(StoreConfig{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("NewStore with 8 shards: %d goroutines, %d before", n, before)
	}
	wantOK(t, st.Exec(cmd("SET", "k", "v")))
	st.Close()
	st.Close()
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("after Close: %d goroutines, %d before", n, before)
	}
}

// TestStoreCloseRacesBlockedDispatchers: Close races dispatchers, half of
// them queued for shard 0's lock behind a DEBUG SLEEP, half running on shard
// 1. Close waits its turn for each lock, so every batch runs either before it
// and answers as usual, or after it and answers the shut-down error — all of
// its units alike, since a one-shard batch runs under one hold of the lock.
// None writes through the released handle: the shard maps are built checked,
// so a write through any handle but the shard's own would panic and count.
func TestStoreCloseRacesBlockedDispatchers(t *testing.T) {
	const dispatchers = 6
	st, err := NewStore(StoreConfig{Shards: 2, Capacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, sh := range st.shards {
		if sh.obj, err = dego.Map[string, *object](append(shardMapOptions(st.cfg, st.reg), dego.Checked())...); err != nil {
			t.Fatal(err)
		}
	}
	// keyOn extends prefix until the key lands on shard id.
	keyOn := func(id int, prefix string) string {
		for i := 0; ; i++ {
			if k := prefix + "." + strconv.Itoa(i); st.ShardOf([]byte(k)) == id {
				return k
			}
		}
	}
	sleeper := make(chan wire.Reply, 1)
	go func() { sleeper <- st.Exec(cmd("DEBUG", "SLEEP", "0.1")) }()
	// Wait until the sleeper holds shard 0's lock.
	for st.shards[0].mu.TryLock() {
		st.shards[0].mu.Unlock()
		runtime.Gosched()
	}

	shutDown := errShutDown.Text()
	var (
		wg               sync.WaitGroup
		answered, denied atomic.Int64
	)
	errs := make(chan error, dispatchers)
	deadline := time.Now().Add(5 * time.Second)
	for g := range dispatchers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := g % 2
			ctr := keyOn(id, "ctr:"+strconv.Itoa(g))
			for round := int64(1); ; round++ {
				if time.Now().After(deadline) {
					errs <- fmt.Errorf("dispatcher %d: no shut-down error after %d rounds", g, round)
					return
				}
				key := keyOn(id, "k:"+strconv.Itoa(g)+":"+strconv.FormatInt(round, 10))
				batch := [][][]byte{cmd("INCR", ctr), cmd("SET", key, "v"), cmd("GET", key),
					cmd("DEL", key), cmd("GET", ctr)}
				want := []wire.Reply{wire.Int64(round), wire.OK(), wire.BulkString("v"), wire.Int64(1),
					wire.BulkString(strconv.FormatInt(round, 10))}
				reps := st.ExecBatch(batch)
				if reps[0].IsError() && reps[0].Text() == shutDown {
					for i, rep := range reps {
						if !rep.IsError() || rep.Text() != shutDown {
							errs <- fmt.Errorf("dispatcher %d round %d: %q = %v after the batch was shut out", g, round, batch[i], rep)
							return
						}
					}
					denied.Add(1)
					return
				}
				for i, rep := range reps {
					if rep.Kind != want[i].Kind || rep.Text() != want[i].Text() || rep.Int != want[i].Int {
						errs <- fmt.Errorf("dispatcher %d round %d: %q = %v, want %v", g, round, batch[i], rep, want[i])
						return
					}
				}
				answered.Add(1)
			}
		}()
	}
	// Close once shard 1 has served a batch while the sleeper holds shard 0.
	for answered.Load() == 0 && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	st.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if answered.Load() == 0 || denied.Load() != dispatchers {
		t.Fatalf("%d batches answered, %d of %d dispatchers shut out", answered.Load(), denied.Load(), dispatchers)
	}
	if rep := <-sleeper; rep.Kind != wire.KindSimple || rep.Text() != "OK" {
		t.Fatalf("DEBUG SLEEP = %v, want +OK: it held the lock before Close", rep)
	}
	if n := st.Stats().Panics; n != 0 {
		t.Fatalf("%d unit executions panicked; last: %v", n, st.LastPanic())
	}
}

func dialTestServer(t *testing.T, srv *Server) (*wire.Reader, *wire.Writer, net.Conn) {
	t.Helper()
	c, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return wire.NewReader(c), wire.NewWriter(c), c
}

func startTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve()
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return srv
}

func TestServerEndToEnd(t *testing.T) {
	srv := startTestServer(t, Config{Store: StoreConfig{Shards: 2, Capacity: 128}})
	r, w, _ := dialTestServer(t, srv)

	// A mixed pipeline: write it all, flush once, read replies in order.
	for _, c := range [][]string{
		{"PING"},
		{"SET", "greeting", "hello"},
		{"GET", "greeting"},
		{"INCR", "visits"},
		{"SADD", "tags", "go", "resp"},
		{"SMEMBERS", "tags"},
		{"LPUSH", "log", "one", "two"},
		{"LRANGE", "log", "0", "-1"},
		{"ZADD", "scores", "1.5", "alice", "2.5", "bob"},
		{"ZRANGEBYSCORE", "scores", "2", "+inf"},
		{"DEL", "greeting", "nope"},
	} {
		if err := w.WriteCommandString(c...); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	reps := make([]wire.Reply, 11)
	for i := range reps {
		rep, err := r.ReadReply()
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		reps[i] = rep
	}
	if reps[0].Text() != "PONG" {
		t.Fatalf("PING = %v", reps[0])
	}
	wantOK(t, reps[1])
	wantBulk(t, reps[2], "hello")
	wantInt(t, reps[3], 1)
	wantInt(t, reps[4], 2)
	wantMembers(t, reps[5], "go", "resp")
	wantInt(t, reps[6], 2)
	wantMembers(t, reps[7], "two", "one")
	wantInt(t, reps[8], 2)
	wantMembers(t, reps[9], "bob")
	wantInt(t, reps[10], 1)
}

func TestServerQuitClosesConnection(t *testing.T) {
	srv := startTestServer(t, Config{Store: StoreConfig{Shards: 1, Capacity: 64}})
	r, w, _ := dialTestServer(t, srv)
	w.WriteCommandString("SET", "k", "v")
	w.WriteCommandString("QUIT")
	w.WriteCommandString("GET", "k") // after QUIT: never answered
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rep, err := r.ReadReply()
	if err != nil {
		t.Fatal(err)
	}
	wantOK(t, rep)
	if rep, err = r.ReadReply(); err != nil {
		t.Fatal(err)
	}
	wantOK(t, rep) // +OK for QUIT
	if _, err := r.ReadReply(); err == nil {
		t.Fatal("connection still open after QUIT")
	}

	// The verb in any case, with a write pipelined behind it: the write is
	// dropped with the connection.
	r, w, _ = dialTestServer(t, srv)
	w.WriteCommandString("quit")
	w.WriteCommandString("SET", "after", "v")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if rep, err = r.ReadReply(); err != nil {
		t.Fatal(err)
	}
	wantOK(t, rep)
	if rep, err := r.ReadReply(); err == nil {
		t.Fatalf("connection still open after quit, answered %v", rep)
	}
	if rep := srv.store.Exec(cmd("GET", "after")); rep.Kind != wire.KindNull {
		t.Fatalf("GET after = %v, want null: the SET behind quit ran", rep)
	}
}

// TestExecBatchEndsAtQuit: in process too, a batch ends at QUIT — its +OK is
// the last reply and nothing after it runs.
func TestExecBatchEndsAtQuit(t *testing.T) {
	st := newTestStore(t, 2)
	reps := st.ExecBatch([][][]byte{cmd("SET", "before", "v"), cmd("Quit"), cmd("SET", "after", "v")})
	if len(reps) != 2 {
		t.Fatalf("%d replies, want 2: %v", len(reps), reps)
	}
	wantOK(t, reps[0])
	wantOK(t, reps[1])
	wantBulk(t, st.Exec(cmd("GET", "before")), "v")
	if rep := st.Exec(cmd("GET", "after")); rep.Kind != wire.KindNull {
		t.Fatalf("GET after = %v, want null", rep)
	}
}

func TestServerProtocolErrorCloses(t *testing.T) {
	srv := startTestServer(t, Config{Store: StoreConfig{Shards: 1, Capacity: 64}})
	r, _, c := dialTestServer(t, srv)
	if _, err := c.Write([]byte("*1\r\n$-5\r\nxx\r\n")); err != nil {
		t.Fatal(err)
	}
	rep, err := r.ReadReply()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.IsError() || !strings.Contains(rep.Text(), "Protocol error") {
		t.Fatalf("reply = %v, want -ERR Protocol error", rep)
	}
	if _, err := r.ReadReply(); err == nil {
		t.Fatal("connection still open after protocol error")
	}
}

func TestServerInlineCommands(t *testing.T) {
	srv := startTestServer(t, Config{Store: StoreConfig{Shards: 1, Capacity: 64}})
	r, _, c := dialTestServer(t, srv)
	if _, err := c.Write([]byte("SET inline yes\r\nGET inline\r\n")); err != nil {
		t.Fatal(err)
	}
	rep, err := r.ReadReply()
	if err != nil {
		t.Fatal(err)
	}
	wantOK(t, rep)
	if rep, err = r.ReadReply(); err != nil {
		t.Fatal(err)
	}
	wantBulk(t, rep, "yes")
}

// TestPipelineCostsOneWrite pins the syscalls a connection spends on one
// pipeline: the 16 commands of a table-2 pipeline, sent in one write, are
// read in one Read and answered with exactly one Write; the only other Read
// is the one that meets the client's close.
func TestPipelineCostsOneWrite(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &countingListener{Listener: inner, conns: make(chan *countingConn, 1)}
	srv := startTestServer(t, Config{Listener: ln, Store: StoreConfig{Shards: 2, Capacity: 256}})
	c, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 16
	var pipeline bytes.Buffer
	w := wire.NewWriter(&pipeline)
	for _, args := range table2Commands(n) {
		w.WriteCommand(args...)
	}
	w.Flush()
	if _, err := c.Write(pipeline.Bytes()); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	var replies wire.ReplyBatch
	reps, err := replies.Read(wire.NewReader(c), n)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reps {
		if rep.IsError() {
			t.Fatalf("reply %d = %v", i, rep)
		}
	}
	c.Close()

	sc := <-ln.conns
	select {
	case <-sc.closed:
	case <-time.After(5 * time.Second):
		t.Fatal("server did not close the connection after the client's")
	}
	if reads, writes := sc.reads.Load(), sc.writes.Load(); reads != 2 || writes != 1 {
		t.Fatalf("%d-command pipeline cost %d Reads and %d Writes, want 2 and 1", n, reads, writes)
	}
}

// countingListener hands out connections that count their Reads and Writes.
type countingListener struct {
	net.Listener
	conns chan *countingConn
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: c, closed: make(chan struct{})}
	l.conns <- cc
	return cc, nil
}

type countingConn struct {
	net.Conn
	reads, writes atomic.Int64
	closed        chan struct{}
	closeOnce     sync.Once
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

func (c *countingConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

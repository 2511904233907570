package retwis

import (
	"bytes"
	"net"
	"strconv"
	"testing"
	"time"

	"github.com/adjusted-objects/dego/internal/core"
	"github.com/adjusted-objects/dego/internal/wire"
)

// BenchmarkNetClient times the wire client alone: NetClient.AppendOp and
// Flush through a WireKV whose connection lives in memory and answers every
// pipeline with canned reply bytes, so no server, socket or scheduler runs.
// table2-16 is one flush of 16 table-2 ops (the first 16 DrawOps draws,
// every iteration); timeline is one timeline read, a GET and a full LRANGE,
// one op per flush as net_read_p1 sends them. The replies are what a warm
// server answers: every timeline holds TimelineSize entries.
func BenchmarkNetClient(b *testing.B) {
	p := testParams(256, 1)
	graph := BuildGraph(p)
	for _, bc := range []struct {
		name string
		ops  []Op
	}{
		{"table2-16", DrawOps(p, 16)},
		{"timeline", []Op{{Kind: OpTimeline, User: 1}}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			conn := newCannedConn(b, graph, bc.ops)
			kv, err := DialKVConfig("canned", WireConfig{
				IOTimeout: -1,
				Dialer:    func(string, time.Duration) (net.Conn, error) { return conn, nil },
			})
			if err != nil {
				b.Fatal(err)
			}
			cl := NewNetClient(kv, graph)
			flush := func() {
				for _, op := range bc.ops {
					cl.AppendOp(op)
				}
				if err := cl.Flush(); err != nil {
					b.Fatal(err)
				}
			}
			// A chunk that fills mid-flush is replaced by one twice its
			// size, so the client's storage takes a few flushes to settle.
			for range 4 {
				flush()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				flush()
			}
		})
	}
}

// cannedConn is a connection that answers each pipeline written to it with
// the same canned replies: once cmds bytes have been written, reps is queued
// for reading. Only Read, Write and Close are called on it.
type cannedConn struct {
	net.Conn
	cmds    int
	reps    []byte
	written int
	pending bytes.Buffer
}

// newCannedConn encodes the pipeline ops expand to, and a warm server's
// reply to each of its commands.
func newCannedConn(tb testing.TB, graph *Graph, ops []Op) *cannedConn {
	capture := keepKV{t: tb}
	cl := NewNetClient(&capture, graph)
	for _, op := range ops {
		cl.AppendOp(op)
	}
	if err := cl.Flush(); err != nil {
		tb.Fatal(err)
	}
	var reps bytes.Buffer
	rw := wire.NewWriter(&reps)
	for _, cmd := range capture.kept[0] {
		rw.WriteReply(cannedReply(cmd))
	}
	rw.Flush()
	return &cannedConn{cmds: len(capture.sent[0]), reps: reps.Bytes()}
}

func (c *cannedConn) Write(p []byte) (int, error) {
	for c.written += len(p); c.written >= c.cmds; c.written -= c.cmds {
		c.pending.Write(c.reps)
	}
	return len(p), nil
}

func (c *cannedConn) Read(p []byte) (int, error) { return c.pending.Read(p) }

func (c *cannedConn) Close() error { return nil }

// cannedReply is a warm server's answer to cmd, by verb.
func cannedReply(cmd [][]byte) wire.Reply {
	switch string(cmd[0]) {
	case "SET", "LTRIM":
		return wire.OK()
	case "GET":
		return wire.BulkString("4711")
	case "LRANGE":
		tweets := make([]wire.Reply, TimelineSize)
		for i := range tweets {
			tweets[i] = wire.BulkString(strconv.Itoa(100+i) + ":" + strconv.Itoa(4000+i))
		}
		return wire.Array(tweets...)
	case "INCR":
		return wire.Int64(4711)
	case "LPUSH":
		return wire.Int64(TimelineSize + 1)
	default: // SADD, SREM, ZADD, ZREMRANGEBYSCORE
		return wire.Int64(1)
	}
}

// BenchmarkGenerator times one op draw of a lib_table2 worker: the acting
// user from the worker's 50 000 (a Zipf draw), the mix draw, and for a
// follow the target from all 100 000 users (a second Zipf draw).
func BenchmarkGenerator(b *testing.B) {
	p := libShape()
	g := NewGenerator(0, p, partitions(p)[0], false)
	b.ReportAllocs()
	b.ResetTimer()
	var sum UserID
	for range b.N {
		sum += g.Next().User
	}
	opSink = sum
}

var opSink UserID

// BenchmarkTable2 times the Table-2 ops a lib_table2 worker issues, one op
// an iteration, on the DEGO backend at lib_table2's shape: 100 000 seeded
// users, MaxDegree 256 and the two workers' handles. Every op is worker 0's:
// AddUser adds fresh ids in the generator's stride, and Follow (with its
// converse), Post, Timeline and UpdateProfile cycle through the first
// table2Window ops of their kind in worker 0's stream. What an op kind
// leaves behind without the rest of the mix is reset off the clock: AddUser
// starts again on a backend of the seeded users every 2^17 fresh ids (a
// trial ends near 390 000 users), Post drains its authors' followers'
// timelines after every pass over its ops, and each window of Timeline reads
// follows the posts the mix delivers to it (1 post to 4 reads), whose
// timelines are drained after the window.
func BenchmarkTable2(b *testing.B) {
	p := libShape()
	reg := core.NewRegistry(8)
	be, hs := Build(KindDEGO, p, reg)
	graph := BuildGraph(p)
	tl := make([]Tweet, TimelineSize)
	byKind := map[OpKind][]Op{}
	gen := NewGenerator(0, p, partitions(p)[0], false)
	for len(byKind[OpFollow]) < table2Window {
		op := gen.Next()
		byKind[op.Kind] = append(byKind[op.Kind], op)
	}
	for k, ops := range byKind {
		byKind[k] = ops[:min(len(ops), table2Window)]
	}
	posts := byKind[OpPost]
	// post applies posts; drain empties the timelines they delivered to.
	post := func(posts []Op) {
		for _, op := range posts {
			apply(be, hs[0], op, tl)
		}
	}
	drain := func(posts []Op) {
		for _, op := range posts {
			for _, f := range graph.Followers[op.User] {
				be.Timeline(hs[owner(f, p.Threads)], f, tl)
			}
		}
	}
	// replay applies the ops of one kind, calling between off the clock
	// before each window of table2Window ops after the first.
	replay := func(b *testing.B, ops []Op, between func(window int)) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := range b.N {
			if i%table2Window == 0 && i > 0 {
				b.StopTimer()
				between(i / table2Window)
				b.StartTimer()
			}
			apply(be, hs[0], ops[i%len(ops)], tl)
		}
	}
	nothing := func(int) {}

	b.Run("AddUser", func(b *testing.B) {
		const fresh = 1 << 17
		seeded := func() Backend {
			nb := newBackend(KindDEGO, p, reg)
			for u := range p.Users {
				nb.AddUser(hs[owner(UserID(u), p.Threads)], UserID(u))
			}
			return nb
		}
		nb := seeded()
		b.ReportAllocs()
		b.ResetTimer()
		for i := range b.N {
			if i%fresh == 0 && i > 0 {
				b.StopTimer()
				nb = nil
				nb = seeded()
				b.StartTimer()
			}
			nb.AddUser(hs[0], UserID(p.Users+i%fresh*p.Threads))
		}
	})
	b.Run("Follow", func(b *testing.B) { replay(b, byKind[OpFollow], nothing) })
	b.Run("Post", func(b *testing.B) {
		replay(b, posts, func(int) { drain(posts) })
		drain(posts)
	})
	b.Run("Timeline", func(b *testing.B) {
		deliver := table2Window * p.Mix.Post / p.Mix.Timeline
		delivered := func(window int) []Op {
			start := window * deliver % len(posts)
			return posts[start:min(start+deliver, len(posts))]
		}
		post(delivered(0))
		replay(b, byKind[OpTimeline], func(window int) {
			drain(delivered(window - 1))
			post(delivered(window))
		})
		drain(posts)
	})
	b.Run("UpdateProfile", func(b *testing.B) { replay(b, byKind[OpUpdateProfile], nothing) })
}

// table2Window is how many ops of each kind BenchmarkTable2 cycles through,
// and how many it applies between two resets.
const table2Window = 4096

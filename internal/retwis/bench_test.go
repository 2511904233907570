package retwis

import (
	"bytes"
	"net"
	"strconv"
	"testing"
	"time"

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

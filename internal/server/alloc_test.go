//go:build !race

package server

import (
	"bytes"
	"io"
	"strconv"
	"strings"
	"testing"

	"github.com/adjusted-objects/dego/internal/alloctest"
	"github.com/adjusted-objects/dego/internal/wire"
)

// Allocation and byte ceilings of the serving path, steady state, per call
// of the row's function, averaged over a thousand calls
// (alloctest.PerCall). A change may lower a number here, never raise one. (The race detector
// allocates on its own, hence the build tag; `make cover` runs this file.)
//
// What the table-2 row still pays, 62.04 allocations and 3821 B for 38
// commands: 50 of the allocations are its ten follows, each a SADD that
// creates a set key the unfollow after it empties and deletes — the object,
// its set, the key's clone, the SWMR map's node, the member string: five a
// follow. The map stores the *object in its node's cell as it is, with no
// box. The rest is SET's value clone and object,
// INCR's digits, ZADD's member string, and the sorted set's index growing
// under new members. An LPUSH encodes its element into the list's buffer,
// which moves to a fresh one only once per dozens of pushes; such
// once-in-many-batches growth is the .04. A write to a present key makes no
// map call and boxes nothing. Every other row pays nothing, in bytes too.
// The timeline-read row: lookups borrow their key from the decoded
// argument, running a shard's units under its lock allocates nothing, and
// an LRANGE answers with a window of the list's buffer. Planning finds a
// verb's row by comparing its bytes in place, so no verb costs an
// allocation before its handler runs.
func TestAllocCeilings(t *testing.T) {
	cmdStream := func() func() {
		r := wire.NewReader(&loopReader{data: []byte("*4\r\n$4\r\nZADD\r\n$9\r\nposts:123\r\n$2\r\n17\r\n$6\r\n123:17\r\n*2\r\n$3\r\nGET\r\n$11\r\nprofile:123\r\n")})
		var batch wire.CommandBatch
		return func() {
			for range 2 {
				if err := batch.Read(r); err != nil {
					t.Fatal(err)
				}
			}
			batch.Reset()
		}
	}
	elems := make([]wire.Reply, 50)
	for i := range elems {
		elems[i] = wire.BulkString(strconv.Itoa(1000+i) + ":" + strconv.Itoa(i))
	}
	timeline := wire.Array(elems...)
	// An array with every other element an integer, which the reply batch
	// decodes element by element into its arena, never as frames.
	mixed := make([]wire.Reply, len(elems))
	for i := range mixed {
		if mixed[i] = elems[i]; i%2 == 1 {
			mixed[i] = wire.Int64(int64(i))
		}
	}
	// A list whose frames, 5400 B, are above wire.RetainBuf.
	long := make([]wire.Reply, 200)
	for i := range long {
		long[i] = wire.BulkString(strings.Repeat("0", 17) + strconv.Itoa(100+i))
	}
	replyStream := func(array wire.Reply) func() func() {
		return func() func() {
			var frame bytes.Buffer
			w := wire.NewWriter(&frame)
			w.WriteReply(array)
			w.WriteReply(wire.Int64(7))
			w.Flush()
			r := wire.NewReader(&loopReader{data: frame.Bytes()})
			var batch wire.ReplyBatch
			return func() {
				if _, err := batch.Read(r, 2); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// The replies to one 16-command pipeline of the table-2 mix, as a
	// net_table2_p16 client reads them: integers, +OK, a short bulk, the
	// timeline and a null.
	pipelineStream := func() func() {
		pipeline := []wire.Reply{
			wire.Int64(1), wire.Int64(1), wire.Int64(1), wire.Int64(1),
			wire.Int64(4711), wire.Int64(1), wire.Int64(12), wire.OK(), wire.Int64(31), wire.OK(),
			wire.BulkString("4711"), timeline, wire.Null(),
			wire.OK(), wire.Int64(1), wire.Int64(1),
		}
		var frame bytes.Buffer
		w := wire.NewWriter(&frame)
		for _, rep := range pipeline {
			w.WriteReply(rep)
		}
		w.Flush()
		r := wire.NewReader(&loopReader{data: frame.Bytes()})
		var batch wire.ReplyBatch
		return func() {
			if _, err := batch.Read(r, len(pipeline)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The replies to one timeline read, a GET and the LRANGE, from a reader
	// that returns one pipeline's bytes per Read, so every batch starts on
	// an empty buffer, as a net_read_p1 client's does.
	drainedStream := func() func() {
		var frame bytes.Buffer
		w := wire.NewWriter(&frame)
		w.WriteReply(wire.BulkString("4711"))
		w.WriteReply(timeline)
		w.Flush()
		r := wire.NewReader(pipeReader{data: frame.Bytes()})
		var batch wire.ReplyBatch
		return func() {
			if _, err := batch.Read(r, 2); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The encoders write into a buffer that bufio spills to io.Discard
	// whenever it fills, so some of the measured frames straddle a spill.
	replyEncode := func() func() {
		w := wire.NewWriter(io.Discard)
		return func() {
			if err := w.WriteReply(timeline); err != nil {
				t.Fatal(err)
			}
		}
	}
	var frames []byte
	for _, e := range elems {
		frames = wire.AppendBulk(frames, e.Bulk)
	}
	framesEncode := func() func() {
		w := wire.NewWriter(io.Discard)
		timeline := wire.Frames(len(elems), frames)
		return func() {
			if err := w.WriteReply(timeline); err != nil {
				t.Fatal(err)
			}
		}
	}
	cmdEncode := func() func() {
		w := wire.NewWriter(io.Discard)
		zadd := [][]byte{[]byte("ZADD"), []byte("posts:123"), []byte("17"), []byte("123:17")}
		return func() {
			if err := w.WriteCommand(zadd...); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Every verb but INFO, whose reply is a freshly rendered report, and
	// DEBUG ADVISE, whose reply is freshly marshalled JSON.
	planEveryVerb := func() func() {
		st := newTestStore(t, 2)
		var cmds [][][]byte
		for _, c := range []string{
			"PING", "PING x", "ECHO x", "SELECT 0", "QUIT", "COMMAND", "CONFIG GET save", "CONFIG SET x",
			"DBSIZE", "DEBUG SLEEP 0", "DEBUG PANIC", "FLUSHALL", "FLUSHDB",
			"GET k", "SET k v", "INCR k", "DEL k j", "EXISTS k j",
			"SADD s m", "SREM s m", "SMEMBERS s", "LPUSH l v", "LRANGE l 0 1", "LTRIM l 0 1",
			"ZADD z 1 m", "ZRANGEBYSCORE z 0 1", "ZREMRANGEBYSCORE z 0 1",
		} {
			cmds = append(cmds, cmd(strings.Fields(c)...))
		}
		units := make([]unit, 0, 64)
		return func() {
			for _, args := range cmds {
				planCommand(args, st, &units, func() {})
			}
			units = units[:0]
		}
	}
	table2Batch := func() func() { return storeRunner(t, nil, table2Commands(38)) }
	readBatch := func() func() { return storeRunner(t, timelineSeed(), timelineRead()) }

	for _, row := range []struct {
		name                  string
		ceilAllocs, ceilBytes float64
		setup                 func() func()
	}{
		{"wire.CommandBatch, ZADD + GET batch on recycled storage", 0, 0, cmdStream},
		{"wire.ReplyBatch, 50-frame list then an integer", 0, 0, replyStream(timeline)},
		{"wire.ReplyBatch, 50-element mixed array then an integer (element arena)", 0, 0, replyStream(wire.Array(mixed...))},
		{"wire.ReplyBatch, 200-frame list above RetainBuf then an integer", 0, 0, replyStream(wire.Array(long...))},
		{"wire.ReplyBatch, 16-reply table-2 pipeline", 0, 0, pipelineStream},
		{"wire.ReplyBatch, timeline read on a drained buffer", 0, 0, drainedStream},
		{"wire.Writer.WriteReply, 50-element array", 0, 0, replyEncode},
		{"wire.Writer.WriteReply, 50-frame pre-encoded array", 0, 0, framesEncode},
		{"wire.Writer.WriteCommand, 4-argument ZADD", 0, 0, cmdEncode},
		{"planCommand, one command of every verb", 0, 0, planEveryVerb},
		{"store.run, 38-command table-2 batch", 62.04, 3821.44, table2Batch},
		{"store.run, GET profile + LRANGE timeline 0 49 read batch", 0, 0, readBatch},
	} {
		alloctest.Check(t, row.name, row.ceilAllocs, row.ceilBytes, row.setup())
	}
}

// loopReader serves data over and over: an endless stream of valid frames.
type loopReader struct {
	data []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.data[l.off:])
	l.off = (l.off + n) % len(l.data)
	return n, nil
}

// pipeReader answers every Read with one copy of data, as a server answers
// a pipeline with one write.
type pipeReader struct {
	data []byte
}

func (p pipeReader) Read(b []byte) (int, error) { return copy(b, p.data), nil }

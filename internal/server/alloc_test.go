//go:build !race

package server

import (
	"bytes"
	"io"
	"strconv"
	"strings"
	"testing"

	"github.com/adjusted-objects/dego/internal/wire"
)

// Allocation ceilings of the serving path, steady state, per call of the
// row's function. Timing on a shared box cannot hold a line; these counts
// repeat exactly, so they can. A change may lower a number here, never
// raise one. (The race detector allocates on its own, hence the build tag;
// `make cover` runs this file.)
//
// What the table-2 row still pays, 73 for 38 commands: 60 of them are its
// ten follows, each a SADD that creates a set key the unfollow after it
// empties and deletes — the object, its set, the key's clone, the SWMR map's
// node and value box, the member string: six a follow. The rest is SET's
// value clone, object and value box, INCR's digits, ZADD's member string,
// and the sorted set's index growing under new members. An LPUSH encodes its
// element into the list's buffer, which moves to a fresh one only once per
// dozens of pushes. A write to a present key makes no map call and boxes
// nothing. The timeline-read row pays nothing: lookups borrow their key
// from the decoded argument, running a shard's units under its lock
// allocates nothing, and an LRANGE answers with a window of the list's
// buffer. Planning finds a verb's row by comparing its bytes in place, so no
// verb costs an allocation before its handler runs.
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
	replyStream := func() func() {
		var frame bytes.Buffer
		w := wire.NewWriter(&frame)
		w.WriteReply(timeline)
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
				planCommand(args, st, &units)
			}
			units = units[:0]
		}
	}
	table2Batch := func() func() { return storeRunner(t, nil, table2Commands(38)) }
	readBatch := func() func() { return storeRunner(t, timelineSeed(), timelineRead()) }

	for _, row := range []struct {
		name    string
		ceiling float64
		setup   func() func()
	}{
		{"wire.CommandBatch, ZADD + GET batch on recycled storage", 0, cmdStream},
		{"wire.ReplyBatch, 50-element array then an integer", 0, replyStream},
		{"wire.Writer.WriteReply, 50-element array", 0, replyEncode},
		{"wire.Writer.WriteReply, 50-frame pre-encoded array", 0, framesEncode},
		{"wire.Writer.WriteCommand, 4-argument ZADD", 0, cmdEncode},
		{"planCommand, one command of every verb", 0, planEveryVerb},
		{"store.run, 38-command table-2 batch", 73, table2Batch},
		{"store.run, GET profile + LRANGE timeline 0 49 read batch", 0, readBatch},
	} {
		f := row.setup()
		for i := 0; i < 64; i++ {
			f() // reach steady state: destinations sized, keys present, timelines full
		}
		if got := testing.AllocsPerRun(200, f); got > row.ceiling {
			t.Errorf("%s: %v allocations per run, ceiling %v", row.name, got, row.ceiling)
		} else if got < row.ceiling {
			t.Logf("%s: %v allocations per run, ceiling %v — lower the ceiling", row.name, got, row.ceiling)
		}
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

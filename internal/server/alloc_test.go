//go:build !race

package server

import (
	"bytes"
	"io"
	"math/rand"
	"strconv"
	"testing"

	"github.com/adjusted-objects/dego/internal/wire"
)

// Allocation ceilings of the serving path, steady state, per call of the
// row's function. Timing on a shared box cannot hold a line; these counts
// repeat exactly, so they can. A change may lower a number here, never
// raise one. (The race detector allocates on its own, hence the build tag;
// `make cover` runs this file.)
//
// What the table-2 row still pays, 2.7 per command: the key's string (every
// command; the shard's map keeps it on a write), the value clone (SET,
// LPUSH), the object header (SET), a member string (SADD, ZADD), INCR's
// digits, one allocation inside the adaptive map's Put (every write), and a
// fresh set body for every follow, because the unfollow that comes with it
// empties the set and deletes the key. The timeline-read row pays the two
// key strings and nothing else: running a shard's units under its lock,
// inline or through the mailbox, allocates nothing.
func TestAllocCeilings(t *testing.T) {
	cmdStream := func() func() {
		r := wire.NewReader(&loopReader{data: []byte("*4\r\n$4\r\nZADD\r\n$9\r\nposts:123\r\n$2\r\n17\r\n$6\r\n123:17\r\n*2\r\n$3\r\nGET\r\n$11\r\nprofile:123\r\n")})
		var dst [][]byte
		return func() {
			var err error
			if dst, err = r.ReadCommandInto(dst); err != nil {
				t.Fatal(err)
			}
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
		var dst wire.Reply
		return func() {
			if err := r.ReadReplyInto(&dst); err != nil {
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
	cmdEncode := func() func() {
		w := wire.NewWriter(io.Discard)
		zadd := [][]byte{[]byte("ZADD"), []byte("posts:123"), []byte("17"), []byte("123:17")}
		return func() {
			if err := w.WriteCommand(zadd...); err != nil {
				t.Fatal(err)
			}
		}
	}
	storeRun := func(seed, cmds [][][]byte) func() {
		st := newTestStore(t, 2)
		st.ExecBatch(seed)
		var sc scratch
		return func() {
			st.run(&sc, cmds)
			for i := range sc.plans {
				if rep := sc.plans[i].reply(sc.units); rep.IsError() {
					t.Fatalf("command %q answered %v", cmds[i], rep)
				}
			}
			sc.release()
		}
	}
	table2Batch := func() func() { return storeRun(nil, table2Commands(38)) }
	timelineRead := func() func() {
		seed := [][][]byte{cmd("SET", "profile:7", "bio")}
		for i := 0; i < 50; i++ {
			seed = append(seed, cmd("LPUSH", "timeline:7", "7:"+strconv.Itoa(i)))
		}
		return storeRun(seed, [][][]byte{cmd("GET", "profile:7"), cmd("LRANGE", "timeline:7", "0", "49")})
	}

	for _, row := range []struct {
		name    string
		ceiling float64
		setup   func() func()
	}{
		{"wire.ReadCommandInto, recycled destination", 0, cmdStream},
		{"wire.ReadReplyInto, 50-element array then an integer", 0, replyStream},
		{"wire.Writer.WriteReply, 50-element array", 0, replyEncode},
		{"wire.Writer.WriteCommand, 4-argument ZADD", 0, cmdEncode},
		{"store.run, 38-command table-2 batch", 104, table2Batch},
		{"store.run, GET profile + LRANGE timeline 0 49 read batch", 2, timelineRead},
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

// table2Commands expands a seeded draw of the Retwis table-2 mix the way
// retwis.NetClient does (this package cannot import it): timeline reads,
// posts fanned out to a few followers, follows, profile updates, group
// joins — cut to exactly n commands.
func table2Commands(n int) [][][]byte {
	rng := rand.New(rand.NewSource(38))
	user := func() string { return strconv.Itoa(rng.Intn(64)) }
	var cmds [][][]byte
	for seq := 60; len(cmds) < n; seq++ {
		u := user()
		switch p := rng.Intn(100); {
		case p < 50:
			cmds = append(cmds, cmd("GET", "profile:"+u), cmd("LRANGE", "timeline:"+u, "0", "49"))
		case p < 65:
			payload := u + ":" + strconv.Itoa(seq)
			cmds = append(cmds, cmd("INCR", "stat:posts"), cmd("ZADD", "posts:"+u, strconv.Itoa(seq), payload),
				cmd("ZREMRANGEBYSCORE", "posts:"+u, "-inf", strconv.Itoa(seq-50)))
			for f := 0; f < 2; f++ {
				tl := "timeline:" + user()
				cmds = append(cmds, cmd("LPUSH", tl, payload), cmd("LTRIM", tl, "0", "49"))
			}
		case p < 80:
			v := user()
			cmds = append(cmds, cmd("SADD", "following:"+u, v), cmd("SADD", "followers:"+v, u),
				cmd("SREM", "following:"+u, v), cmd("SREM", "followers:"+v, u))
		case p < 90:
			cmds = append(cmds, cmd("SET", "profile:"+u, strconv.Itoa(seq)))
		default:
			cmds = append(cmds, cmd("SADD", "community", u))
		}
	}
	return cmds[:n]
}

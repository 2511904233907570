package wire

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"testing"
)

// TestRecycledTallyIsExact: a batch's trim walks only the slots decoded into
// since the last one, yet after every batch it must leave the storage as
// trimSlots leaves a copy of the storage taken just before the trim — same
// slots, same byte count — and its running total must be what a whole walk
// of the kept storage finds, at most RetainTotal. One row per storage kind:
// a server connection's commands, and a client's replies with their element
// arena. The random batches mix shallow and deep pipelines, buffers above
// RetainBuf, slots over the bound on their own, and arrays that grow, shrink
// and cut the arena.
func TestRecycledTallyIsExact(t *testing.T) {
	for _, row := range []struct {
		name string
		run  func(t *testing.T, rng *rand.Rand)
	}{
		{"commands", commandTally},
		{"replies", replyTally},
	} {
		t.Run(row.name, func(t *testing.T) { row.run(t, rand.New(rand.NewSource(1))) })
	}
}

func commandTally(t *testing.T, rng *rand.Rand) {
	var frames bytes.Buffer
	w := NewWriter(&frames)
	var depths []int
	for batch := 0; batch < 400; batch++ {
		depth := 1 + rng.Intn(4)
		if rng.Intn(8) == 0 {
			depth = 1 + rng.Intn(300)
		}
		depths = append(depths, depth)
		for c := 0; c < depth; c++ {
			args := make([][]byte, 1+rng.Intn(5))
			switch rng.Intn(40) {
			case 0:
				args = make([][]byte, 1+rng.Intn(200))
			case 1:
				// Over the bound on its own, though no argument is over RetainBuf.
				args = make([][]byte, 2*RetainTotal/RetainBuf)
				for i := range args {
					args[i] = bytes.Repeat([]byte{'z'}, RetainBuf)
				}
				w.WriteCommand(args...)
				continue
			}
			for i := range args {
				size := rng.Intn(40)
				switch rng.Intn(50) {
				case 0:
					size = RetainBuf + 1 + rng.Intn(RetainBuf)
				case 1, 2, 3:
					size = 500 + rng.Intn(3000)
				}
				args[i] = bytes.Repeat([]byte{'a' + byte(c%26)}, size)
			}
			w.WriteCommand(args...)
		}
	}
	w.Flush()
	r, plain := NewReader(bytes.NewReader(frames.Bytes())), NewReader(bytes.NewReader(frames.Bytes()))

	var b CommandBatch
	for batch, depth := range depths {
		for c := 0; c < depth; c++ {
			if err := b.Read(r); err != nil {
				t.Fatal(err)
			}
			want, err := plain.ReadCommand()
			if err != nil {
				t.Fatal(err)
			}
			if got := b.Commands()[c]; !sameCommand(got, want) {
				t.Fatalf("batch %d, command %d: read %q, want %q", batch, c, got, want)
			}
		}
		check := expectTrim(t, &b.slots, commandSize, cloneCommands)
		b.Reset()
		check(fmt.Sprintf("batch %d (%d deep)", batch, depth))
	}
}

func replyTally(t *testing.T, rng *rand.Rand) {
	var frames bytes.Buffer
	w := NewWriter(&frames)
	bulk := func() Reply {
		size := rng.Intn(40)
		switch rng.Intn(30) {
		case 0:
			size = RetainBuf + 1 + rng.Intn(RetainBuf)
		case 1, 2, 3:
			size = 100 + rng.Intn(600)
		}
		return Bulk(bytes.Repeat([]byte{'a' + byte(size%26)}, size))
	}
	var widths []int
	for batch := 0; batch < 400; batch++ {
		width := 1 + rng.Intn(6)
		if rng.Intn(10) == 0 {
			width = 1 + rng.Intn(200)
		}
		widths = append(widths, width)
		for c := 0; c < width; c++ {
			switch rng.Intn(8) {
			case 0:
				w.WriteReply(Int64(int64(c)))
			case 1:
				w.WriteReply(bulk())
			default:
				elems := make([]Reply, rng.Intn(60))
				if rng.Intn(10) == 0 {
					elems = make([]Reply, rng.Intn(1500))
				}
				for i := range elems {
					switch rng.Intn(400) {
					case 0, 1, 2, 3, 4, 5, 6, 7, 8, 9:
						elems[i] = Array(bulk(), bulk())
					case 10:
						// Over the bound on its own, though no Bulk is over RetainBuf.
						nested := make([]Reply, 2*RetainTotal/RetainBuf)
						for j := range nested {
							nested[j] = Bulk(bytes.Repeat([]byte{'z'}, RetainBuf))
						}
						elems[i] = Array(nested...)
					default:
						elems[i] = bulk()
					}
				}
				w.WriteReply(Array(elems...))
			}
		}
	}
	w.Flush()
	r, plain := NewReader(bytes.NewReader(frames.Bytes())), NewReader(bytes.NewReader(frames.Bytes()))

	var b ReplyBatch
	kept := 0
	for batch, width := range widths {
		reps, err := b.Read(r, width)
		if err != nil {
			t.Fatal(err)
		}
		// A list's frames above RetainBuf stand for its elements, so they
		// are kept up to RetainTotal, as the arena keeps elements. (The
		// frames scan sees no more than the reader's buffer, MaxInlineLine
		// bytes, so no frames reach past RetainTotal.)
		frames := map[int]int{} // reply → capacity of its frames above RetainBuf
		for c := range reps {
			want, err := plain.ReadReply()
			if err != nil {
				t.Fatal(err)
			}
			if !batchMatches(want, reps[c]) {
				t.Fatalf("batch %d, reply %d: read %v, want %v", batch, c, reps[c], want)
			}
			if reps[c].Kind == KindFrames && cap(reps[c].Bulk) > RetainBuf {
				frames[c] = cap(reps[c].Bulk)
			}
		}
		checkReps := expectTrim(t, &b.reps, replySize, replyHeaders)
		checkElems := expectTrim(t, &b.elems, replySize, cloneReplies)
		b.end()
		where := fmt.Sprintf("batch %d (%d wide)", batch, width)
		checkReps(where + ", replies")
		checkElems(where + ", arena")
		for c, size := range frames {
			if c >= cap(b.reps.buf) {
				continue // the slot went with the total
			}
			if left := cap(b.reps.buf[:c+1][c].Bulk); left != size {
				t.Fatalf("%s: reply %d kept %d of its %d bytes of frames", where, c, left, size)
			}
			kept++
		}
	}
	if kept == 0 {
		t.Fatal("no frames reply above RetainBuf was kept in a slot")
	}
}

// expectTrim snapshots s and returns the check that its next trim leaves it
// as trimSlots leaves the snapshot, with a total a whole walk confirms.
func expectTrim[T any](t *testing.T, s *slots[T], size func(*T) int, clone func([]T) []T) func(where string) {
	want, wantBytes := trimSlots(clone(s.buf), size)
	return func(where string) {
		t.Helper()
		kept, walked := trimSlots(clone(s.buf), size)
		if cap(s.buf) != cap(want) || s.total != wantBytes || cap(kept) != cap(s.buf) || walked != s.total || s.total > RetainTotal {
			t.Fatalf("%s: %d slots, %d bytes counted; trimSlots before the trim keeps %d slots, %d bytes; a walk after it keeps %d slots, %d bytes (bound %d)",
				where, cap(s.buf), s.total, cap(want), wantBytes, cap(kept), walked, RetainTotal)
		}
	}
}

// cloneCommands copies the slots and their headers to capacity, so that
// trimming the copy leaves the original alone; the buffers are shared.
func cloneCommands(s [][][]byte) [][][]byte {
	out := make([][][]byte, len(s), cap(s))
	for i, cmd := range s[:cap(s)] {
		out[:cap(s)][i] = append(make([][]byte, 0, cap(cmd)), cmd[:cap(cmd)]...)[:len(cmd)]
	}
	return out
}

// cloneReplies copies the replies and their Elems to capacity at every
// depth; the Bulk buffers are shared.
func cloneReplies(s []Reply) []Reply {
	out := make([]Reply, len(s), cap(s))
	for i, rep := range s[:cap(s)] {
		rep.Elems = cloneReplies(rep.Elems)
		out[:cap(s)][i] = rep
	}
	return out
}

// replyHeaders copies per-command replies as the trim sees them: their
// Elems are windows into the arena, counted there.
func replyHeaders(s []Reply) []Reply {
	out := make([]Reply, len(s), cap(s))
	for i, rep := range s[:cap(s)] {
		rep.Elems = nil
		out[:cap(s)][i] = rep
	}
	return out
}

// TestConnectionRetentionIsBounded: a 1 MiB SET followed by small commands.
// A connection's recycled command storage must not keep the megabyte, nor
// more than RetainTotal altogether, however many slots a deep pipeline
// opened.
func TestConnectionRetentionIsBounded(t *testing.T) {
	var frames bytes.Buffer
	w := NewWriter(&frames)
	w.WriteCommand([]byte("SET"), []byte("big"), bytes.Repeat([]byte("x"), 1<<20))
	const small = 4000
	for i := 0; i < small; i++ {
		w.WriteCommand([]byte("SET"), []byte("key:"+strconv.Itoa(i)), []byte("value"))
	}
	w.Flush()
	r := NewReader(&frames)

	var b CommandBatch
	for i := 0; i < 1+small/2; i++ { // one deep batch, the megabyte in slot 0
		if err := b.Read(r); err != nil {
			t.Fatal(err)
		}
	}
	if cmd := b.Commands()[0]; string(cmd[1]) != "big" || len(cmd[2]) != 1<<20 {
		t.Fatalf("slot 0 = %q with a %d-byte value", cmd[1], len(cmd[2]))
	}
	b.Reset()
	if b.slots.total > RetainTotal || b.slots.total != commandBytes(t, b.slots.buf) {
		t.Fatalf("after the deep batch: %d bytes reported, %d found, bound %d",
			b.slots.total, commandBytes(t, b.slots.buf), RetainTotal)
	}
	if n := cap(b.slots.buf); n >= small/2 || n == 0 {
		t.Fatalf("%d of %d slots kept: want some, not all", n, 1+small/2)
	}
	for i := 0; i < small/2; i += 2 { // then two-command batches, like any small client
		for j := 0; j < 2; j++ {
			if err := b.Read(r); err != nil {
				t.Fatal(err)
			}
		}
		b.Reset()
		if b.slots.total > RetainTotal {
			t.Fatalf("batch %d: %d bytes retained, bound %d", i/2, b.slots.total, RetainTotal)
		}
	}
	if got := commandBytes(t, b.slots.buf); got != b.slots.total {
		t.Fatalf("%d bytes reported, %d found", b.slots.total, got)
	}
}

// BenchmarkCommandBatch times one batch through a CommandBatch — each
// command read into its slot, then Reset — in steady state. The cost must
// follow the batch, not the storage: a 2-command batch on storage a
// 256-deep pipeline grew walks the same 2 slots as on fresh storage.
func BenchmarkCommandBatch(b *testing.B) {
	var frame bytes.Buffer
	w := NewWriter(&frame)
	w.WriteCommand([]byte("ZADD"), []byte("posts:123"), []byte("17"), []byte("123:17"))
	w.WriteCommand([]byte("GET"), []byte("profile:123"))
	w.Flush()
	for _, bc := range []struct {
		name        string
		grown, size int
	}{
		{"2-cmd/grown-256", 256, 2},
		{"2-cmd/fresh", 0, 2},
		{"40-cmd/fresh", 0, 40},
	} {
		b.Run(bc.name, func(b *testing.B) {
			r := NewReader(&loopReader{data: frame.Bytes()})
			var batch CommandBatch
			run := func(n int) {
				for range n {
					if err := batch.Read(r); err != nil {
						b.Fatal(err)
					}
				}
				batch.Reset()
			}
			run(bc.grown)
			run(bc.size) // size the slots the batch uses
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				run(bc.size)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/batch")
		})
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

// BenchmarkReplyBatch times the client's side of a pipeline: decoding its
// replies into a recycled ReplyBatch. timeline is one 50-element LRANGE
// reply; table2-pipeline is the reply to one 16-command pipeline of the
// table-2 mix (table2Replies). Both read an endless stream, so a batch
// mostly starts on bytes an earlier fill buffered; drained is the table-2
// pipeline from a reader that returns one pipeline's bytes per Read, so
// every batch starts on an empty buffer, as a client's does once it has
// read the replies to its last flush. list-5k is one list of 200 20-byte
// entries read the same way: 5400 B of frames, above RetainBuf, which the
// batch keeps from one Read to the next as it would keep their elements.
func BenchmarkReplyBatch(b *testing.B) {
	timeline, _ := timelineReply()
	entries := make([]Reply, 200)
	for i := range entries {
		entries[i] = BulkString(fmt.Sprintf("%020d", i))
	}
	for _, bc := range []struct {
		name    string
		replies []Reply
		drained bool
	}{
		{"timeline", []Reply{timeline}, false},
		{"table2-pipeline", table2Replies(), false},
		{"drained", table2Replies(), true},
		{"list-5k", []Reply{Array(entries...)}, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var frame bytes.Buffer
			w := NewWriter(&frame)
			for _, rep := range bc.replies {
				w.WriteReply(rep)
			}
			w.Flush()
			var src io.Reader = &loopReader{data: frame.Bytes()}
			if bc.drained {
				src = pipeReader{data: frame.Bytes()}
			}
			r := NewReader(src)
			var batch ReplyBatch
			n := len(bc.replies)
			for range 2 { // the first sizes the arena, the second its payload buffers
				if _, err := batch.Read(r, n); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if _, err := batch.Read(r, n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// pipeReader answers every Read with one copy of data, as a server answers
// a pipeline with one write.
type pipeReader struct {
	data []byte
}

func (p pipeReader) Read(b []byte) (int, error) { return copy(b, p.data), nil }

// table2Replies answers one 16-command pipeline of the Retwis table-2 mix,
// in the shape of a net_table2_p16 flush: a follow's SADD, SADD, SREM, SREM;
// a post's INCR, ZADD and two LPUSH, LTRIM pairs; a timeline read's GET and
// LRANGE, beside a GET of a key never set; a profile SET and a group join
// and leave.
func table2Replies() []Reply {
	timeline, _ := timelineReply()
	return []Reply{
		Int64(1), Int64(1), Int64(1), Int64(1),
		Int64(4711), Int64(1), Int64(12), OK(), Int64(31), OK(),
		BulkString("4711"), timeline, Null(),
		OK(), Int64(1), Int64(1),
	}
}

package wire

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// The fuzz targets hold the package's central promise: malformed bytes never
// panic the codec and never allocate attacker-sized buffers — every outcome
// is a decoded frame, an io error, or a typed *ProtocolError whose message
// is non-empty. CI runs the seed corpus on every `go test`, and ten seconds
// of each target in `make fuzz-smoke`.

func checkDecodeErr(t *testing.T, err error) {
	t.Helper()
	if err == nil || err == io.EOF || err == io.ErrUnexpectedEOF {
		return
	}
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *ProtocolError or io error", err, err)
	}
	if pe.Detail == "" {
		t.Fatal("protocol error with empty detail")
	}
}

func FuzzReadCommand(f *testing.F) {
	f.Add([]byte("*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$5\r\nhello\r\n"))
	f.Add([]byte("PING\r\n"))
	f.Add([]byte("GET k\nGET j\n"))
	f.Add([]byte("*0\r\n*1\r\n$4\r\nPING\r\n"))
	f.Add([]byte("*-1\r\n"))
	f.Add([]byte("*1\r\n$99999999999999999999\r\n"))
	f.Add([]byte("*2\r\n$3\r\nDEL\r\n$0\r\n\r\n"))
	f.Add([]byte("$5\r\nhello\r\n"))
	f.Add([]byte(strings.Repeat("a", 4096)))
	// Truncation mutations: valid frames cut mid-header, mid-payload, and
	// mid-terminator, plus a declared-huge bulk whose payload never comes —
	// the abrupt-EOF cases the truncation suite pins down exactly.
	full := "*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$5\r\nhello\r\n"
	for _, cut := range []int{2, 6, 13, 20, 27, len(full) - 1} {
		f.Add([]byte(full[:cut]))
	}
	f.Add([]byte("*1\r\n$8388608\r\nshort"))
	f.Add([]byte("*2\r\n$3\r\nGET\r\n$5\r\nab"))
	// Shapes that change from one command to the next, so a recycled
	// destination is shrunk, regrown and switched to the inline path.
	f.Add([]byte("*4\r\n$4\r\nZADD\r\n$1\r\nz\r\n$1\r\n1\r\n$20\r\na-twenty-byte-member\r\n*1\r\n$4\r\nPING\r\nGET k\r\n*2\r\n$3\r\nGET\r\n$0\r\n\r\n"))
	// The reader's buffer ending inside a payload, before its '\r' and
	// before its '\n'; integer spellings strconv treats apart.
	for _, at := range []int{strings.Index(full, "hello") + 2, len(full) - 2, len(full) - 1} {
		f.Add(edgeStream(full, at, true))
	}
	f.Add([]byte("*+1\r\n$003\r\nGET\r\n*1\r\n$-0\r\n\r\n"))
	f.Add([]byte("*1\r\n$1234567890123456789\r\n"))
	f.Add([]byte("*1\r\n$9223372036854775808\r\n"))
	// Bulk shapes at the one-step scan's borders: 18 and 19 digits, and a
	// bare LF after a payload with more to follow.
	f.Add([]byte("*2\r\n$000000000000000003\r\nGET\r\n$0000000000000000001\r\nk\r\n*2\r\n$3\r\nGET\r\n$1\r\nk\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// The same bytes through ReadCommand, through readCommandInto with
		// a recycled, dirty destination, through a CommandBatch over dirty
		// storage, and a byte at a time, which never gives the one-step
		// bulk scan a whole frame: one parse, so identical commands or
		// identical errors.
		r, into := NewReader(bytes.NewReader(data)), NewReader(bytes.NewReader(data))
		via, batch := NewReader(bytes.NewReader(data)), dirtyCommandBatch(t)
		slow := NewReader(iotest.OneByteReader(bytes.NewReader(data)))
		dst := dirtyCommand()
		for i := 0; i < 64; i++ {
			args, err := r.ReadCommand()
			got, ierr := into.readCommandInto(dst)
			if !sameErr(err, ierr) {
				t.Fatalf("ReadCommand err = %v, readCommandInto err = %v", err, ierr)
			}
			if sargs, serr := slow.ReadCommand(); !sameErr(err, serr) || !sameCommand(args, sargs) {
				t.Fatalf("ReadCommand = %q, %v; byte at a time = %q, %v", args, err, sargs, serr)
			}
			read := len(batch.Commands())
			if berr := batch.Read(via); !sameErr(err, berr) {
				t.Fatalf("ReadCommand err = %v, CommandBatch.Read err = %v", err, berr)
			}
			if err != nil {
				checkDecodeErr(t, err)
				if got != nil {
					t.Fatalf("readCommandInto returned %q with error %v", got, ierr)
				}
				if n := len(batch.Commands()); n != read {
					t.Fatalf("a failed CommandBatch.Read took the batch from %d to %d commands", read, n)
				}
				return
			}
			if !sameCommand(args, got) {
				t.Fatalf("ReadCommand = %q, readCommandInto = %q", args, got)
			}
			if cmds := batch.Commands(); len(cmds) != read+1 || !sameCommand(args, cmds[read]) {
				t.Fatalf("ReadCommand = %q, CommandBatch.Read appended to %d commands: %q", args, read, cmds)
			}
			if i%3 == 2 {
				batch.Reset()
			}
			dst = got
			if len(args) == 0 {
				t.Fatal("ReadCommand returned an empty command without error")
			}
			if len(args) > MaxArgs {
				t.Fatalf("ReadCommand returned %d args, limit %d", len(args), MaxArgs)
			}
			for _, a := range args {
				if len(a) > MaxBulk {
					t.Fatalf("argument of %d bytes exceeds MaxBulk", len(a))
				}
			}
		}
	})
}

func FuzzReadReply(f *testing.F) {
	f.Add([]byte("+OK\r\n"))
	f.Add([]byte("-ERR unknown command 'NOPE'\r\n"))
	f.Add([]byte(":1234\r\n"))
	f.Add([]byte("$5\r\nhello\r\n$-1\r\n"))
	f.Add([]byte("*2\r\n$1\r\na\r\n*1\r\n:7\r\n"))
	f.Add([]byte("*-1\r\n"))
	f.Add([]byte(strings.Repeat("*1\r\n", 64) + ":1\r\n"))
	f.Add([]byte("?garbage\r\n"))
	// Truncation mutations mirroring the command-side corpus.
	reply := "*2\r\n$1\r\na\r\n*1\r\n:7\r\n"
	for _, cut := range []int{2, 5, 9, 13, len(reply) - 1} {
		f.Add([]byte(reply[:cut]))
	}
	f.Add([]byte("$8388608\r\ntruncated"))
	f.Add([]byte("+OK\r"))
	// Kinds that change from one reply to the next over one destination.
	f.Add([]byte("*3\r\n$1\r\na\r\n$2\r\nbb\r\n*1\r\n:1\r\n:5\r\n$3\r\nxyz\r\n*0\r\n+OK\r\n*1\r\n$0\r\n\r\n$-1\r\n"))
	// The reader's buffer ending inside a payload, before its '\r' and
	// before its '\n'; integer spellings strconv treats apart.
	bulk := "$12\r\nhello\r\nworld\r\n"
	for _, at := range []int{strings.Index(bulk, "world"), len(bulk) - 2, len(bulk) - 1} {
		f.Add(edgeStream(bulk, at, false))
	}
	f.Add([]byte(":+5\r\n:-0\r\n:007\r\n:123456789012345678\r\n:1234567890123456789\r\n:-9223372036854775808\r\n"))
	for _, bad := range []string{":-\r\n", ":\r\n", ":9223372036854775808\r\n"} {
		f.Add([]byte(bad))
	}
	// The one-step scan's border shapes, as on the command side.
	f.Add([]byte("*3\r\n$000000000000000001\r\na\r\n$0000000000000000001\r\nb\r\n$1\r\nc\n:1\r\n"))
	// The frames scan's shapes: arrays of bulk strings, canonical and not,
	// beside arrays it must leave to the piecewise path.
	f.Add([]byte("*2\r\n$1\r\na\r\n$0\r\n\r\n*2\r\n$01\r\na\r\n$1\r\nb\r\n*2\r\n$1\r\na\r\n$-1\r\n*0\r\n*-1\r\n*1\r\n*1\r\n$1\r\na\r\n"))
	f.Add([]byte("*2\r\n$1\r\na\r\n$8388609\r\nx\r\n"))
	f.Add([]byte("*2\r\n$1\r\na\n$1\r\nb\r\n*3\r\n$1\r\na\r\n$1\r\nb\r\n"))
	f.Add([]byte("*1\r\n$1\r\na\r\n$1\r\nb\r\n*1\n$1\r\nc\r\n*1\rX$1\r\nd\r\n"))
	f.Add(edgeStream(timelineFrame(), 100, false))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, into := NewReader(bytes.NewReader(data)), NewReader(bytes.NewReader(data))
		// A byte at a time, the one-step bulk scan never sees a whole frame.
		slow := NewReader(iotest.OneByteReader(bytes.NewReader(data)))
		dst := dirtyReply()
		var plain []Reply
		var perr error
		for i := 0; i < 64; i++ {
			rep, err := r.ReadReply()
			ierr := into.readReplyInto(&dst)
			if !sameErr(err, ierr) {
				t.Fatalf("ReadReply err = %v, readReplyInto err = %v", err, ierr)
			}
			if srep, serr := slow.ReadReply(); !sameErr(err, serr) || !sameReply(rep, srep) {
				t.Fatalf("ReadReply = %v, %v; byte at a time = %v, %v", rep, err, srep, serr)
			}
			if err != nil {
				checkDecodeErr(t, err)
				if dst.Kind != 0 || dst.Int != 0 || dst.Bulk != nil || dst.Elems != nil {
					t.Fatalf("readReplyInto left %+v behind error %v, want the zero Reply", dst, ierr)
				}
				perr = err
				break
			}
			plain = append(plain, rep)
			if !sameReply(rep, dst.Expand()) {
				t.Fatalf("ReadReply = %v, readReplyInto = %v", rep, dst)
			}
			// A decoded reply must re-encode: the Reply tree is the shared
			// currency between server executors and client readers.
			var buf bytes.Buffer
			w := NewWriter(&buf)
			if err := w.WriteReply(rep); err != nil {
				t.Fatalf("re-encode of decoded reply failed: %v", err)
			}
			// An array of bulk strings, pre-encoded as a list stores it,
			// must encode to the same bytes.
			if frames, ok := bulkFrames(rep); ok {
				w.Flush()
				var pre bytes.Buffer
				pw := NewWriter(&pre)
				pw.WriteReply(Frames(len(rep.Elems), frames))
				pw.Flush()
				if !bytes.Equal(pre.Bytes(), buf.Bytes()) {
					t.Fatalf("Frames encodes as %q, the Array as %q", pre.Bytes(), buf.Bytes())
				}
			}
		}
		// The same bytes through two ReplyBatches over dirty storage, one
		// reading them wholly buffered and one a byte at a time, one to
		// three replies a Read: the replies ReadReply decoded, then its
		// error. An array of bulk strings may come back as its canonical
		// frames, which the byte-at-a-time reader never scans.
		via, batch := NewReader(bytes.NewReader(data)), dirtyReplyBatch(t)
		slowVia, slowBatch := NewReader(iotest.OneByteReader(bytes.NewReader(data))), dirtyReplyBatch(t)
		for at, n := 0, 1; ; at, n = at+n, n%3+1 {
			if perr == nil {
				if n = min(n, len(plain)-at); n == 0 {
					break
				}
			}
			got, err := batch.Read(via, n)
			slowGot, slowErr := slowBatch.Read(slowVia, n)
			if at+n > len(plain) {
				if !sameErr(err, perr) || got != nil || !sameErr(slowErr, perr) || slowGot != nil {
					t.Fatalf("ReplyBatch.Read of replies %d to %d = %v, %v; byte at a time %v, %v; ReadReply failed at %d with %v",
						at, at+n-1, got, err, slowGot, slowErr, len(plain), perr)
				}
				break
			}
			if err != nil || len(got) != n || slowErr != nil || len(slowGot) != n {
				t.Fatalf("ReplyBatch.Read of replies %d to %d = %v, %v; byte at a time %v, %v", at, at+n-1, got, err, slowGot, slowErr)
			}
			for i := range got {
				if !batchMatches(plain[at+i], got[i]) || !batchMatches(plain[at+i], slowGot[i]) {
					t.Fatalf("ReadReply = %v; ReplyBatch.Read = %+v, byte at a time %+v", plain[at+i], got[i], slowGot[i])
				}
			}
		}
	})
}

// dirtyCommandBatch is a CommandBatch whose storage an earlier batch left
// behind: slots of leftover arguments, one of them above RetainBuf.
func dirtyCommandBatch(t *testing.T) *CommandBatch {
	var frames bytes.Buffer
	w := NewWriter(&frames)
	w.WriteCommand([]byte("SET"), []byte("k"), bytes.Repeat([]byte("x"), RetainBuf+1))
	w.WriteCommand([]byte("ZADD"), []byte("z"), []byte("1"), []byte("a"), []byte("2"), []byte("b"))
	w.WriteCommandString("GET", "leftover")
	w.Flush()
	r := NewReader(&frames)
	var b CommandBatch
	for range 3 {
		if err := b.Read(r); err != nil {
			t.Fatal(err)
		}
	}
	b.Reset()
	return &b
}

// dirtyReplyBatch is a ReplyBatch straight after a Read: replies and an
// element arena holding leftovers, a Bulk above RetainBuf among them.
func dirtyReplyBatch(t *testing.T) *ReplyBatch {
	var frames bytes.Buffer
	w := NewWriter(&frames)
	w.WriteReply(Array(BulkString("old"), Array(Int64(7), BulkString("older")), Null()))
	w.WriteReply(Bulk(bytes.Repeat([]byte("x"), RetainBuf+1)))
	w.WriteReply(Array(BulkString("a"), BulkString("b")))
	w.Flush()
	var b ReplyBatch
	if _, err := b.Read(NewReader(&frames), 3); err != nil {
		t.Fatal(err)
	}
	return &b
}

// dirtyCommand is a recycled readCommandInto destination: three arguments
// of leftover bytes, two of them beyond the length.
func dirtyCommand() [][]byte {
	return [][]byte{[]byte("leftover"), []byte("junk junk junk"), {}}[:1]
}

// dirtyReply is a recycled readReplyInto destination with leftovers in every
// field and at two depths.
func dirtyReply() Reply {
	return Reply{Kind: KindArray, Int: 99, Bulk: []byte("stale"), Elems: []Reply{
		{Kind: KindBulk, Bulk: []byte("old element")},
		{Kind: KindArray, Int: 7, Elems: []Reply{{Kind: KindError, Bulk: []byte("ERR old")}}},
		{Kind: KindInt, Int: 3},
	}[:2]}
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

func sameCommand(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// sameReply compares what a reply says, not the spare capacity it carries.
func sameReply(a, b Reply) bool {
	if a.Kind != b.Kind || a.Int != b.Int || !bytes.Equal(a.Bulk, b.Bulk) || len(a.Elems) != len(b.Elems) {
		return false
	}
	for i := range a.Elems {
		if !sameReply(a.Elems[i], b.Elems[i]) {
			return false
		}
	}
	return true
}

// bulkFrames returns the frames of rep's elements back to back when rep is
// an array of bulk strings.
func bulkFrames(rep Reply) ([]byte, bool) {
	if rep.Kind != KindArray {
		return nil, false
	}
	var frames []byte
	for _, e := range rep.Elems {
		if e.Kind != KindBulk {
			return nil, false
		}
		frames = AppendBulk(frames, e.Bulk)
	}
	return frames, true
}

package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// The codec's fast paths — a frame assembled in the writer's free space, a
// length or payload parsed straight out of the reader's buffer — must not
// show: wherever a frame falls against the buffer's edge, it encodes and
// decodes exactly as through the piecewise path.

// edgeCommands and edgeReplies are the frames decoded at every offset
// against the buffer's edge: payloads holding CRLF, empty payloads, bare-LF
// and missing terminators, and the integer spellings strconv treats apart.
var edgeCommands = []string{
	"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$5\r\nhello\r\n",
	"*2\r\n$4\r\nECHO\r\n$12\r\nhello\r\nworld\r\n",
	"*2\r\n$3\r\nGET\r\n$0\r\n\r\n",
	"*2\r\n$3\r\nGET\r\n$5\r\nhello\n",
	"*2\r\n$3\r\nGET\r\n$5\r\nhelloXY",
	"*2\r\n$3\r\nGET\r\n$5\r\nhello\r",
	"*2\r\n$3\r\nGET\r\n$5\r\nhello\rX",
	"*+2\r\n$003\r\nGET\r\n$-0\r\n\r\n",
	"*1\r\n$1234567890123456789\r\n",
	"*1\r\n$9223372036854775808\r\n",
	"*1\r\n$3\r\r\nGET\r\n",
	"*1\r\n:3\r\nGET\r\n",
	"GET k v\r\n",
	// Shapes the one-step bulk scan accepts or hands to the piecewise path:
	// leading zeros, a null, 18 and 19 digits (the last overflowing), no
	// digits, MaxBulk+1, a bare LF after a payload with more to follow, and
	// a stray byte before the LF.
	"*2\r\n$3\r\nGET\r\n$007\r\nabcdefg\r\n",
	"*3\r\n$3\r\nGET\r\n$-1\r\n$1\r\nk\r\n",
	"*2\r\n$3\r\nGET\r\n$000000000000000005\r\nhello\r\n",
	"*2\r\n$3\r\nGET\r\n$0000000000000000005\r\nhello\r\n",
	"*2\r\n$3\r\nGET\r\n$9223372036854775808\r\nhello\r\n",
	"*2\r\n$3\r\nGET\r\n$\r\n\r\n",
	"*2\r\n$3\r\nGET\r\n$8388609\r\nx\r\n",
	"*3\r\n$3\r\nSET\r\n$1\r\nk\n$1\r\nv\r\n",
	"*2\r\n$3\r\nGET\r\n$1\r\nkX\n",
}

var edgeReplies = []string{
	"*4\r\n$5\r\nhello\r\n:-42\r\n+OK\r\n$-1\r\n",
	"$12\r\nhello\r\nworld\r\n",
	"$0\r\n\r\n",
	"$5\r\nhello\n",
	"$5\r\nhelloXY",
	"$5\r\nhello\r",
	"*2\r\n*1\r\n$1\r\nx\r\n-ERR no\r\n",
	":+5\r\n", ":-0\r\n", ":007\r\n", ":-\r\n", ":\r\n", ":5\r\r\n",
	":123456789012345678\r\n", ":1234567890123456789\r\n", ":9223372036854775808\r\n",
	":-9223372036854775808\r\n",
	timelineFrame(),
	// The bulk scan's shapes, as on the command side, and an array mixing
	// every element kind.
	"$007\r\nabcdefg\r\n",
	"*3\r\n$1\r\na\r\n$-1\r\n$1\r\nb\r\n",
	"$000000000000000005\r\nhello\r\n", "$0000000000000000005\r\nhello\r\n",
	"$9223372036854775808\r\nhello\r\n",
	"$\r\n\r\n",
	"$8388609\r\nx\r\n",
	"*2\r\n$1\r\nx\n$1\r\ny\r\n",
	"$5\r\nhelloX\n",
	"*6\r\n$3\r\nfoo\r\n$-1\r\n:7\r\n-ERR no\r\n*2\r\n$1\r\na\r\n*1\r\n$0\r\n\r\n+OK\r\n",
	// The one-step frames scan's shapes: an array of bulk strings; one with
	// a zero-padded length, which comes back in canonical frames; one with
	// a null, an integer and a nested array, which stays an array; the
	// empty and the null array; an element over MaxBulk; a header ending in
	// a bare LF, one whose CRLF is not one, and an element whose is not.
	"*3\r\n$1\r\na\r\n$0\r\n\r\n$5\r\nhello\r\n",
	"*1\n$1\r\na\r\n", "*1\rX$1\r\na\r\n", "*2\r\n$1\r\naX\n$1\r\nb\r\n",
	"*2\r\n$007\r\nabcdefg\r\n$1\r\nx\r\n",
	"*4\r\n$1\r\na\r\n$-1\r\n:1\r\n*1\r\n$1\r\nb\r\n",
	"*0\r\n", "*-1\r\n",
	"*2\r\n$1\r\na\r\n$8388609\r\nx\r\n",
}

// timelineFrame is a Timeline reply: 50 tweets of 20 bytes.
func timelineFrame() string {
	var b strings.Builder
	b.WriteString("*50\r\n")
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&b, "$20\r\n%020d\r\n", 1000+i)
	}
	return b.String()
}

// edgeStream returns a stream that starts with a bulk-string filler frame (a
// one-argument command when asCommand) of MaxInlineLine-at bytes and goes on
// with frame, so the reader's first fill of its MaxInlineLine buffer ends
// exactly at bytes into frame.
func edgeStream(frame string, at int, asCommand bool) []byte {
	prefix := ""
	if asCommand {
		prefix = "*1\r\n"
	}
	size := MaxInlineLine - at
	for l := size - len(prefix) - 5; ; l-- {
		if head := fmt.Sprintf("%s$%d\r\n", prefix, l); len(head)+l+2 == size {
			return []byte(head + strings.Repeat("f", l) + "\r\n" + frame)
		}
	}
}

// TestDecodeAtBufferEdge: a frame whose header, payload, '\r' or '\n'
// straddles the end of what the reader has buffered decodes — into a
// recycled destination — to what it decodes to wholly buffered and read one
// byte at a time: the same value or the same error. A ReplyBatch returns
// what ReadReply does, or an array of bulk strings as its canonical frames;
// it must do the latter for an array in that encoding that is wholly
// buffered, or that follows a drained buffer, which the reader refills.
func TestDecodeAtBufferEdge(t *testing.T) {
	for _, frame := range edgeCommands {
		want, wantErr := NewReader(strings.NewReader(frame)).ReadCommand()
		slow, slowErr := NewReader(iotest.OneByteReader(strings.NewReader(frame))).ReadCommand()
		if !sameErr(wantErr, slowErr) || !sameCommand(want, slow) {
			t.Fatalf("%q: buffered = %q, %v; byte at a time = %q, %v", frame, want, wantErr, slow, slowErr)
		}
		for at := 0; at <= len(frame); at++ {
			r := NewReader(bytes.NewReader(edgeStream(frame, at, true)))
			if _, err := r.ReadCommand(); err != nil {
				t.Fatalf("%q at %d: filler: %v", frame, at, err)
			}
			got, err := r.readCommandInto(dirtyCommand())
			if !sameErr(wantErr, err) || !sameCommand(want, got) {
				t.Fatalf("%q with the buffer's edge at %d = %q, %v; want %q, %v", frame, at, got, err, want, wantErr)
			}
		}
	}
	for _, frame := range edgeReplies {
		want, wantErr := NewReader(strings.NewReader(frame)).ReadReply()
		slow, slowErr := NewReader(iotest.OneByteReader(strings.NewReader(frame))).ReadReply()
		if !sameErr(wantErr, slowErr) || !sameReply(want, slow) {
			t.Fatalf("%q: buffered = %v, %v; byte at a time = %v, %v", frame, want, wantErr, slow, slowErr)
		}
		frames, ok := bulkFrames(want)
		canonical := ok && len(want.Elems) > 0 && frame == fmt.Sprintf("*%d\r\n%s", len(want.Elems), frames)
		for at := 0; at <= len(frame); at++ {
			r := NewReader(bytes.NewReader(edgeStream(frame, at, false)))
			if _, err := r.ReadReply(); err != nil {
				t.Fatalf("%q at %d: filler: %v", frame, at, err)
			}
			got := dirtyReply()
			err := r.readReplyInto(&got)
			if !sameErr(wantErr, err) || !sameReply(want, got.Expand()) {
				t.Fatalf("%q with the buffer's edge at %d = %v, %v; want %v, %v", frame, at, got, err, want, wantErr)
			}

			r = NewReader(bytes.NewReader(edgeStream(frame, at, false)))
			batch := dirtyReplyBatch(t)
			if _, err := batch.Read(r, 1); err != nil {
				t.Fatalf("%q at %d: filler: %v", frame, at, err)
			}
			reps, err := batch.Read(r, 1)
			if !sameErr(wantErr, err) || err == nil && !batchMatches(want, reps[0]) {
				t.Fatalf("%q with the buffer's edge at %d: ReplyBatch.Read = %+v, %v; want %v, %v", frame, at, reps, err, want, wantErr)
			}
			if canonical && (at == 0 || at == len(frame)) && reps[0].Kind != KindFrames {
				t.Fatalf("%q with the buffer's edge at %d: ReplyBatch.Read = %+v, want frames", frame, at, reps[0])
			}
		}
	}
}

// batchMatches reports whether got, a ReplyBatch result, is want, what
// ReadReply returned for the same bytes: the same reply, or, as KindFrames,
// want's one or more bulk strings in AppendBulk's encoding.
func batchMatches(want, got Reply) bool {
	if got.Kind != KindFrames {
		return sameReply(want, got)
	}
	frames, ok := bulkFrames(want)
	return ok && got.Int > 0 && got.Int == int64(len(want.Elems)) && bytes.Equal(got.Bulk, frames)
}

// TestScanKeepsTheLimits: a reader whose buffer holds a whole frame above a
// limit, so the one-step scans see all of it, refuses it with the piecewise
// path's error, and accepts a frame exactly at the limit.
func TestScanKeepsTheLimits(t *testing.T) {
	wholly := func(frame []byte) *Reader {
		return &Reader{br: bufio.NewReaderSize(bytes.NewReader(frame), len(frame)+16)}
	}
	atLimit := AppendBulk(nil, make([]byte, MaxBulk))
	overLimit := AppendBulk(nil, make([]byte, MaxBulk+1))
	wantErr := func(what string, err error, detail string) {
		t.Helper()
		var pe *ProtocolError
		if !errors.As(err, &pe) || pe.Detail != detail {
			t.Errorf("%s: err = %v, want protocol error %q", what, err, detail)
		}
	}

	if rep, err := wholly(atLimit).ReadReply(); err != nil || len(rep.Bulk) != MaxBulk {
		t.Errorf("reply of MaxBulk bytes = %d bytes, %v", len(rep.Bulk), err)
	}
	_, err := wholly(overLimit).ReadReply()
	wantErr("reply of MaxBulk+1 bytes", err, fmt.Sprintf("bulk string of %d bytes exceeds limit %d", MaxBulk+1, MaxBulk))
	_, err = wholly(append([]byte("*1\r\n"), overLimit...)).ReadCommand()
	wantErr("argument of MaxBulk+1 bytes", err, fmt.Sprintf("bulk string of %d bytes exceeds limit %d", MaxBulk+1, MaxBulk))

	// The frames scan: an element of MaxBulk bytes and an array of
	// maxReplyElems elements are frames, one more of either an error.
	var batch ReplyBatch
	frames := func(what string, reply []byte, n, frameBytes int) {
		t.Helper()
		reps, err := batch.Read(wholly(reply), 1)
		if err != nil || reps[0].Kind != KindFrames || reps[0].Int != int64(n) || len(reps[0].Bulk) != frameBytes {
			t.Errorf("%s: %v, want %d frames of %d bytes", what, err, n, frameBytes)
		}
	}
	frames("array of a MaxBulk element", append([]byte("*2\r\n$1\r\na\r\n"), atLimit...), 2, 7+len(atLimit))
	_, err = batch.Read(wholly(append([]byte("*2\r\n$1\r\na\r\n"), overLimit...)), 1)
	wantErr("array of a MaxBulk+1 element", err, fmt.Sprintf("bulk string of %d bytes exceeds limit %d", MaxBulk+1, MaxBulk))
	empties := func(n int) []byte {
		return append(fmt.Appendf(nil, "*%d\r\n", n), strings.Repeat("$0\r\n\r\n", n)...)
	}
	frames("array of maxReplyElems elements", empties(maxReplyElems), maxReplyElems, 6*maxReplyElems)
	_, err = batch.Read(wholly(empties(maxReplyElems+1)), 1)
	wantErr("array of maxReplyElems+1 elements", err, fmt.Sprintf("reply array of %d elements exceeds limit %d", maxReplyElems+1, maxReplyElems))

	// Arguments of MaxBulk bytes up to exactly MaxCommandBytes, then one more.
	const full = MaxCommandBytes / MaxBulk
	command := func(args int, tail string) []byte {
		cmd := fmt.Appendf(nil, "*%d\r\n", args)
		for range full {
			cmd = append(cmd, atLimit...)
		}
		return append(cmd, tail...)
	}
	if args, err := wholly(command(full, "")).ReadCommand(); err != nil || len(args) != full {
		t.Errorf("command of MaxCommandBytes = %d arguments, %v", len(args), err)
	}
	_, err = wholly(command(full+1, "$1\r\nx\r\n")).ReadCommand()
	wantErr("command past MaxCommandBytes", err, fmt.Sprintf("command payload exceeds %d bytes", MaxCommandBytes))
}

// TestIntegerLinesMatchParseInt: an integer line decodes to strconv's value,
// or fails with strconv's verdict in the codec's words.
func TestIntegerLinesMatchParseInt(t *testing.T) {
	for _, s := range []string{
		"0", "-0", "007", "+5", "-", "", " 5", "5 ", "1_0", "0x1",
		"123456789012345678", "-123456789012345678",
		"1234567890123456789", "-1234567890123456789",
		"9223372036854775807", "-9223372036854775808",
		"9223372036854775808", "-9223372036854775809",
	} {
		got, err := NewReader(strings.NewReader(":" + s + "\r\n")).ReadReply()
		want, perr := strconv.ParseInt(s, 10, 64)
		var pe *ProtocolError
		switch {
		case perr == nil && (err != nil || got.Kind != KindInt || got.Int != want):
			t.Errorf(":%s = %v, %v; want (integer) %d", s, got, err, want)
		case perr != nil && (!errors.As(err, &pe) || pe.Detail != fmt.Sprintf("invalid integer %q", s)):
			t.Errorf(":%s = %v, %v; want the invalid-integer protocol error", s, got, err)
		}
	}
}

// TestEncodeAtEveryFillLevel: random reply trees and commands written into
// a Writer already holding every possible number of bytes, so each frame is
// assembled in the free space at some levels and spills through bufio at
// others, come out byte for byte as a fmt-built encoding.
func TestEncodeAtEveryFillLevel(t *testing.T) {
	const size = 256
	rng := rand.New(rand.NewSource(1))
	filler := bytes.Repeat([]byte{'.'}, size)
	check := func(what string, want []byte, write func(*Writer) error) {
		t.Helper()
		for fill := 0; fill <= size; fill++ {
			var out bytes.Buffer
			w := NewWriterSize(&out, size)
			if _, err := w.bw.Write(filler[:fill]); err != nil {
				t.Fatal(err)
			}
			if err := write(w); err != nil {
				t.Fatalf("%s after %d bytes: %v", what, fill, err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if got := out.Bytes()[fill:]; !bytes.Equal(got, want) {
				t.Fatalf("%s after %d bytes encoded %q, want %q", what, fill, got, want)
			}
		}
	}
	// A line payload with several line breaks loses every one of them.
	forged := Err("ERR a\nb\r\n+OK\r\n")
	check(forged.String(), []byte("-ERR a b  +OK  \r\n"), func(w *Writer) error { return w.WriteReply(forged) })
	for i := 0; i < 150; i++ {
		rep := randReply(rng, 0, size)
		check(rep.String(), fmtReply(nil, rep), func(w *Writer) error { return w.WriteReply(rep) })

		args := make([][]byte, rng.Intn(6))
		strs := make([]string, len(args))
		for j := range args {
			args[j] = randBytes(rng, size)
			strs[j] = string(args[j])
		}
		want := fmtCommand(args)
		check(fmt.Sprintf("%q", args), want, func(w *Writer) error { return w.WriteCommand(args...) })
		check(fmt.Sprintf("%q as strings", args), want, func(w *Writer) error { return w.WriteCommandString(strs...) })
	}
}

// randBytes returns a payload that is usually short and sometimes longer
// than a size-byte buffer, drawn from an alphabet that includes CR and LF.
func randBytes(rng *rand.Rand, size int) []byte {
	n := rng.Intn(24)
	if rng.Intn(5) == 0 {
		n = rng.Intn(2 * size)
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = "ab\r\n:$*-+0"[rng.Intn(10)]
	}
	return b
}

func randReply(rng *rand.Rand, depth, size int) Reply {
	switch k := rng.Intn(6); {
	case k == 0:
		return Reply{Kind: KindSimple, Bulk: randBytes(rng, size)}
	case k == 1:
		return Reply{Kind: KindError, Bulk: randBytes(rng, size)}
	case k == 2:
		ints := []int64{0, -1, 7, math.MaxInt64, math.MinInt64, rng.Int63(), -rng.Int63n(1 << 20)}
		return Int64(ints[rng.Intn(len(ints))])
	case k == 3:
		return Bulk(randBytes(rng, size))
	case k == 4 || depth == 2:
		return Null()
	default:
		elems := make([]Reply, rng.Intn(8))
		for i := range elems {
			elems[i] = randReply(rng, depth+1, size)
		}
		return Array(elems...)
	}
}

// fmtReply is the reference encoding of r, appended to b.
func fmtReply(b []byte, r Reply) []byte {
	line := strings.NewReplacer("\r", " ", "\n", " ")
	switch r.Kind {
	case KindSimple:
		return fmt.Appendf(b, "+%s\r\n", line.Replace(string(r.Bulk)))
	case KindError:
		return fmt.Appendf(b, "-%s\r\n", line.Replace(string(r.Bulk)))
	case KindInt:
		return fmt.Appendf(b, ":%d\r\n", r.Int)
	case KindBulk:
		return fmt.Appendf(b, "$%d\r\n%s\r\n", len(r.Bulk), r.Bulk)
	case KindNull:
		return fmt.Append(b, "$-1\r\n")
	default:
		b = fmt.Appendf(b, "*%d\r\n", len(r.Elems))
		for _, e := range r.Elems {
			b = fmtReply(b, e)
		}
		return b
	}
}

// fmtCommand is the reference encoding of a command.
func fmtCommand(args [][]byte) []byte {
	b := fmt.Appendf(nil, "*%d\r\n", len(args))
	for _, a := range args {
		b = fmt.Appendf(b, "$%d\r\n%s\r\n", len(a), a)
	}
	return b
}

package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func cmdOf(args ...string) [][]byte {
	out := make([][]byte, len(args))
	for i, a := range args {
		out[i] = []byte(a)
	}
	return out
}

func TestReadCommandMultibulk(t *testing.T) {
	r := NewReader(strings.NewReader("*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$5\r\nhello\r\n"))
	got, err := r.ReadCommand()
	if err != nil {
		t.Fatal(err)
	}
	if want := cmdOf("SET", "k", "hello"); !reflect.DeepEqual(got, want) {
		t.Fatalf("ReadCommand = %q, want %q", got, want)
	}
	if _, err := r.ReadCommand(); err != io.EOF {
		t.Fatalf("tail read err = %v, want io.EOF", err)
	}
}

func TestReadCommandInline(t *testing.T) {
	r := NewReader(strings.NewReader("PING\r\n  GET   k  \nQUIT\r\n"))
	for _, want := range [][][]byte{cmdOf("PING"), cmdOf("GET", "k"), cmdOf("QUIT")} {
		got, err := r.ReadCommand()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ReadCommand = %q, want %q", got, want)
		}
	}
}

func TestReadCommandSkipsEmptyFrames(t *testing.T) {
	r := NewReader(strings.NewReader("\r\n\n*0\r\nPING\r\n"))
	got, err := r.ReadCommand()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cmdOf("PING")) {
		t.Fatalf("ReadCommand = %q, want PING", got)
	}
}

func TestReadCommandPipelineBuffered(t *testing.T) {
	r := NewReader(strings.NewReader("*1\r\n$4\r\nPING\r\n*2\r\n$3\r\nGET\r\n$1\r\nk\r\n"))
	if _, err := r.ReadCommand(); err != nil {
		t.Fatal(err)
	}
	if r.Buffered() == 0 {
		t.Fatal("Buffered = 0 after first command of a pipeline, want > 0")
	}
	got, err := r.ReadCommand()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cmdOf("GET", "k")) {
		t.Fatalf("second command = %q", got)
	}
	if r.Buffered() != 0 {
		t.Fatalf("Buffered = %d after draining, want 0", r.Buffered())
	}
}

func TestReadCommandProtocolErrors(t *testing.T) {
	cases := map[string]string{
		"negative multibulk": "*-3\r\n",
		"too many args":      "*2000\r\n",
		"not a bulk":         "*1\r\n:5\r\n",
		"negative bulk":      "*1\r\n$-1\r\n",
		"oversized bulk":     "*1\r\n$99999999\r\n",
		"bad integer":        "*x\r\n",
		"bad terminator":     "*1\r\n$2\r\nabXY",
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := NewReader(strings.NewReader(in)).ReadCommand()
			var pe *ProtocolError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want *ProtocolError", err)
			}
			if pe.Error() == "" || pe.Detail == "" {
				t.Fatal("empty protocol error text")
			}
		})
	}
}

func TestReadCommandTruncatedIsEOF(t *testing.T) {
	for _, in := range []string{"*2\r\n$3\r\nGET\r\n", "*1\r\n$5\r\nhel", "*1\r\n"} {
		_, err := NewReader(strings.NewReader(in)).ReadCommand()
		if err != io.ErrUnexpectedEOF && err != io.EOF {
			t.Fatalf("ReadCommand(%q) err = %v, want EOF-ish", in, err)
		}
	}
}

func TestReplyRoundTrip(t *testing.T) {
	replies := []Reply{
		OK(),
		Simple("PONG"),
		Err("ERR unknown command 'NOPE'"),
		Int64(-42),
		Bulk([]byte("hello\r\nworld")), // bulk payloads may contain CRLF
		BulkString(""),
		Null(),
		Array(),
		Array(BulkString("a"), Int64(7), Null(), Array(Simple("x"))),
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, rep := range replies {
		if err := w.WriteReply(rep); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	for i, want := range replies {
		got, err := r.ReadReply()
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if !replyEqual(got, want) {
			t.Fatalf("reply %d = %v, want %v", i, got, want)
		}
	}
	if _, err := r.ReadReply(); err != io.EOF {
		t.Fatalf("tail err = %v, want io.EOF", err)
	}
}

// replyEqual compares structurally, treating nil and empty Bulk/Elems alike.
func replyEqual(a, b Reply) bool {
	if a.Kind != b.Kind || a.Int != b.Int || !bytes.Equal(a.Bulk, b.Bulk) || len(a.Elems) != len(b.Elems) {
		return false
	}
	for i := range a.Elems {
		if !replyEqual(a.Elems[i], b.Elems[i]) {
			return false
		}
	}
	return true
}

func TestWriteCommandReadCommandRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteCommandString("ZADD", "posts:1", "7", "tweet payload"); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteCommand([]byte("GET"), []byte("k")); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	got, err := r.ReadCommand()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cmdOf("ZADD", "posts:1", "7", "tweet payload")) {
		t.Fatalf("first command = %q", got)
	}
	if got, err = r.ReadCommand(); err != nil || !reflect.DeepEqual(got, cmdOf("GET", "k")) {
		t.Fatalf("second command = %q, %v", got, err)
	}
}

func TestWriterSanitizesLinePayloads(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteReply(Err("ERR bad\r\n+SNEAKY")); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	got, err := r.ReadReply()
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsError() || strings.Contains(got.Text(), "\n") {
		t.Fatalf("sanitized reply = %v", got)
	}
	if _, err := r.ReadReply(); err != io.EOF {
		t.Fatalf("forged frame leaked: err = %v", err)
	}
}

func TestReadReplyProtocolErrors(t *testing.T) {
	deep := strings.Repeat("*1\r\n", 32) + ":1\r\n"
	for name, in := range map[string]string{
		"unknown type byte": "?what\r\n",
		"negative bulk":     "$-2\r\n",
		"oversized array":   "*99999999\r\n",
		"nesting too deep":  deep,
	} {
		t.Run(name, func(t *testing.T) {
			_, err := NewReader(strings.NewReader(in)).ReadReply()
			var pe *ProtocolError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want *ProtocolError", err)
			}
		})
	}
}

func TestReplyString(t *testing.T) {
	r := Array(Simple("OK"), Int64(3), Null(), BulkString("v"))
	if s := r.String(); !strings.Contains(s, "OK") || !strings.Contains(s, "(integer) 3") ||
		!strings.Contains(s, "(nil)") {
		t.Fatalf("String = %q", s)
	}
}

// TestFramesEncodeAsArray: a pre-encoded array must reach the wire as the
// same bytes as the Array of Bulk replies it stands for — over seeded random
// arrays, the empty one included, with payloads on either side of a header
// width change, binary bytes and CRLF inside, through writer buffers smaller
// and larger than the frames. It must render like that array too, and
// Expand must give it back.
func TestFramesEncodeAsArray(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 300; i++ {
		n := rng.Intn(60)
		if i == 0 {
			n = 0
		}
		elems := make([]Reply, n)
		var frames []byte
		for j := range elems {
			var v []byte
			switch rng.Intn(4) {
			case 0:
				v = bytes.Repeat([]byte{'x'}, []int{0, 9, 10, 99, 100, 999, 1000}[rng.Intn(7)])
			case 1:
				v = []byte("a\r\nb$2\r\n")
			default:
				v = make([]byte, rng.Intn(300))
				rng.Read(v)
			}
			elems[j] = Bulk(v)
			before := len(frames)
			if frames = AppendBulk(frames, v); len(frames)-before != BulkLen(len(v)) {
				t.Fatalf("BulkLen(%d) = %d, but the frame is %d bytes", len(v), BulkLen(len(v)), len(frames)-before)
			}
		}
		array, pre := Array(elems...), Frames(n, frames)
		size := []int{16, 100, 0}[i%3]
		encode := func(r Reply) []byte {
			var b bytes.Buffer
			w := NewWriterSize(&b, size)
			if err := w.WriteReply(r); err != nil {
				t.Fatal(err)
			}
			w.Flush()
			return b.Bytes()
		}
		if got, want := encode(pre), encode(array); !bytes.Equal(got, want) {
			t.Fatalf("array %d (%d elements, writer buffer %d): Frames encodes as %q, Array as %q", i, n, size, got, want)
		}
		if got, want := pre.String(), array.String(); got != want {
			t.Fatalf("array %d: Frames renders as %s, Array as %s", i, got, want)
		}
		if got := pre.Expand(); got.Kind != KindArray || len(got.Elems) != n {
			t.Fatalf("array %d: Expand = %v, want %d elements", i, got, n)
		} else {
			for j, e := range got.Elems {
				if e.Kind != KindBulk || !bytes.Equal(e.Bulk, elems[j].Bulk) {
					t.Fatalf("array %d: Expand element %d = %v, want %v", i, j, e, elems[j])
				}
			}
		}
		if pre.Text() != "" {
			t.Fatalf("array %d: Frames has text %q", i, pre.Text())
		}
	}
}

// timelineReply is a served LRANGE timeline 0 49: 50 retwis post ids.
func timelineReply() (array Reply, frames []byte) {
	elems := make([]Reply, 50)
	for i := range elems {
		elems[i] = BulkString(strconv.Itoa(1000+i) + ":" + strconv.Itoa(60+i))
		frames = AppendBulk(frames, elems[i].Bulk)
	}
	return Array(elems...), frames
}

// BenchmarkWriteReply times encoding one timeline reply: the Array of 50
// Bulk replies a store used to build, against the 50 frames a list keeps.
func BenchmarkWriteReply(b *testing.B) {
	array, frames := timelineReply()
	for _, bc := range []struct {
		name string
		rep  Reply
	}{
		{"array-50", array},
		{"frames-50", Frames(50, frames)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			w := NewWriter(io.Discard)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if err := w.WriteReply(bc.rep); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package wire

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
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
	f.Fuzz(func(t *testing.T, data []byte) {
		// The same bytes through ReadCommand and through ReadCommandInto
		// with a recycled, dirty destination: one parse, so identical
		// commands or identical errors.
		r, into := NewReader(bytes.NewReader(data)), NewReader(bytes.NewReader(data))
		dst := dirtyCommand()
		for i := 0; i < 64; i++ {
			args, err := r.ReadCommand()
			got, ierr := into.ReadCommandInto(dst)
			if !sameErr(err, ierr) {
				t.Fatalf("ReadCommand err = %v, ReadCommandInto err = %v", err, ierr)
			}
			if err != nil {
				checkDecodeErr(t, err)
				if got != nil {
					t.Fatalf("ReadCommandInto returned %q with error %v", got, ierr)
				}
				return
			}
			if !sameCommand(args, got) {
				t.Fatalf("ReadCommand = %q, ReadCommandInto = %q", args, got)
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
	f.Fuzz(func(t *testing.T, data []byte) {
		r, into := NewReader(bytes.NewReader(data)), NewReader(bytes.NewReader(data))
		dst := dirtyReply()
		for i := 0; i < 64; i++ {
			rep, err := r.ReadReply()
			ierr := into.ReadReplyInto(&dst)
			if !sameErr(err, ierr) {
				t.Fatalf("ReadReply err = %v, ReadReplyInto err = %v", err, ierr)
			}
			if err != nil {
				checkDecodeErr(t, err)
				if dst.Kind != 0 || dst.Int != 0 || dst.Bulk != nil || dst.Elems != nil {
					t.Fatalf("ReadReplyInto left %+v behind error %v, want the zero Reply", dst, ierr)
				}
				return
			}
			if !sameReply(rep, dst) {
				t.Fatalf("ReadReply = %v, ReadReplyInto = %v", rep, dst)
			}
			// A decoded reply must re-encode: the Reply tree is the shared
			// currency between server executors and client readers.
			var buf bytes.Buffer
			w := NewWriter(&buf)
			if err := w.WriteReply(rep); err != nil {
				t.Fatalf("re-encode of decoded reply failed: %v", err)
			}
		}
	})
}

// dirtyCommand is a recycled ReadCommandInto destination: three arguments
// of leftover bytes, two of them beyond the length.
func dirtyCommand() [][]byte {
	return [][]byte{[]byte("leftover"), []byte("junk junk junk"), {}}[:1]
}

// dirtyReply is a recycled ReadReplyInto destination with leftovers in every
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

package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"
	"time"
)

// The truncation suite holds the reader's liveness promise under abrupt
// stream ends: every prefix of a valid frame yields a typed error promptly
// (io.EOF / io.ErrUnexpectedEOF / *ProtocolError), never a hang, a panic,
// or an attacker-sized allocation.

// wantTruncErr asserts err is one of the three acceptable outcomes of a
// truncated stream.
func wantTruncErr(t *testing.T, err error, frame []byte, cut int) {
	t.Helper()
	if err == nil {
		t.Fatalf("cut at %d of %q: decoded successfully, want error", cut, frame)
	}
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return
	}
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("cut at %d of %q: err = %v (%T), want io error or *ProtocolError", cut, frame, err, err)
	}
	if pe.Detail == "" {
		t.Fatalf("cut at %d of %q: protocol error with empty detail", cut, frame)
	}
}

// TestReadCommandTruncatedEveryPrefix: a multibulk command cut at every
// possible byte boundary errors out typed — no prefix decodes as a
// complete command, none panics.
func TestReadCommandTruncatedEveryPrefix(t *testing.T) {
	frame := []byte("*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$5\r\nhello\r\n")
	for cut := 0; cut < len(frame); cut++ {
		r := NewReader(bytes.NewReader(frame[:cut]))
		args, err := r.ReadCommand()
		if err == nil && len(args) > 0 {
			t.Fatalf("cut at %d: decoded %q from a truncated frame", cut, args)
		}
		wantTruncErr(t, err, frame, cut)
	}
	// The full frame still decodes, so the cuts above tested real prefixes.
	r := NewReader(bytes.NewReader(frame))
	args, err := r.ReadCommand()
	if err != nil || len(args) != 3 {
		t.Fatalf("full frame = %q, %v", args, err)
	}
}

// TestReadReplyTruncatedEveryPrefix: same liveness promise on the reply
// decoder, covering every reply kind including nesting.
func TestReadReplyTruncatedEveryPrefix(t *testing.T) {
	for _, frame := range [][]byte{
		[]byte("+OK\r\n"),
		[]byte("-ERR nope\r\n"),
		[]byte(":12345\r\n"),
		[]byte("$5\r\nhello\r\n"),
		[]byte("$-1\r\n"),
		[]byte("*2\r\n$1\r\na\r\n*1\r\n:7\r\n"),
	} {
		for cut := 0; cut < len(frame); cut++ {
			r := NewReader(bytes.NewReader(frame[:cut]))
			if _, err := r.ReadReply(); err != nil {
				wantTruncErr(t, err, frame, cut)
			} else if cut != 0 {
				t.Fatalf("cut at %d of %q: decoded successfully", cut, frame)
			}
		}
		r := NewReader(bytes.NewReader(frame))
		if _, err := r.ReadReply(); err != nil {
			t.Fatalf("full frame %q: %v", frame, err)
		}
	}
}

// TestTruncatedBulkDoesNotTrustDeclaredLength: a frame declaring a MaxBulk
// payload that never arrives must not cost a MaxBulk allocation per
// attempt — the reader grows its buffer with the bytes that actually came.
func TestTruncatedBulkDoesNotTrustDeclaredLength(t *testing.T) {
	header := fmt.Sprintf("*1\r\n$%d\r\nonly-a-few-bytes", MaxBulk)
	const attempts = 16

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < attempts; i++ {
		r := NewReader(bytes.NewReader([]byte(header)))
		if _, err := r.ReadCommand(); err != io.ErrUnexpectedEOF {
			t.Fatalf("attempt %d: err = %v, want io.ErrUnexpectedEOF", i, err)
		}
	}
	runtime.ReadMemStats(&after)
	// Eager allocation would cost attempts*MaxBulk = 128 MiB; chunked
	// growth costs attempts*(reader buffer + one chunk) ≈ 2 MiB.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(attempts)*uint64(MaxBulk)/8 {
		t.Fatalf("%d truncated MaxBulk frames allocated %d MiB — declared length is being trusted", attempts, grew>>20)
	}
}

// TestTruncatedBulkReusedDestination: the same promise when the decode goes
// into a recycled destination. Reusing capacity must not turn into trusting
// the header: a small leftover buffer grows by the bytes that arrive, one
// bulkChunk at most, and the failed decode hands nothing half-filled back.
func TestTruncatedBulkReusedDestination(t *testing.T) {
	cmd := fmt.Sprintf("*1\r\n$%d\r\nonly-a-few-bytes", MaxBulk)
	rep := fmt.Sprintf("*2\r\n$1\r\na\r\n$%d\r\nonly-a-few-bytes", MaxBulk)
	const attempts = 16

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < attempts; i++ {
		r := NewReader(bytes.NewReader([]byte(cmd)))
		if got, err := r.readCommandInto(dirtyCommand()); err != io.ErrUnexpectedEOF || got != nil {
			t.Fatalf("attempt %d: readCommandInto = %q, %v, want nil, io.ErrUnexpectedEOF", i, got, err)
		}
		r = NewReader(bytes.NewReader([]byte(rep)))
		dst := dirtyReply()
		if err := r.readReplyInto(&dst); err != io.ErrUnexpectedEOF {
			t.Fatalf("attempt %d: readReplyInto err = %v, want io.ErrUnexpectedEOF", i, err)
		}
		if dst.Kind != 0 || dst.Int != 0 || dst.Bulk != nil || dst.Elems != nil {
			t.Fatalf("attempt %d: failed readReplyInto left %+v, want the zero Reply", i, dst)
		}
	}
	runtime.ReadMemStats(&after)
	// Per attempt: two 64 KiB reader buffers and at most one chunk each.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > attempts*2*(MaxInlineLine+2*bulkChunk) {
		t.Fatalf("%d truncated MaxBulk frames into reused destinations allocated %d KiB — declared length is being trusted",
			2*attempts, grew>>10)
	}
}

// TestOversizedFrameRejectedBeforePayload: a declared length over MaxBulk
// is refused from the header alone — typed error, no payload read.
func TestOversizedFrameRejectedBeforePayload(t *testing.T) {
	header := fmt.Sprintf("*1\r\n$%d\r\n", MaxBulk+1)
	r := NewReader(bytes.NewReader([]byte(header)))
	_, err := r.ReadCommand()
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *ProtocolError", err, err)
	}

	r = NewReader(bytes.NewReader([]byte(fmt.Sprintf("$%d\r\n", MaxBulk+1))))
	if _, err := r.ReadReply(); !errors.As(err, &pe) {
		t.Fatalf("reply err = %v (%T), want *ProtocolError", err, err)
	}
}

// TestTruncationOverRealConn: the torn-frame case as a live socket sees
// it — the peer writes half a frame and disconnects. The reader must
// return promptly with a typed error rather than hanging.
func TestTruncationOverRealConn(t *testing.T) {
	client, srv := net.Pipe()
	go func() {
		client.Write([]byte("*2\r\n$3\r\nGET\r\n$5\r\nab"))
		client.Close()
	}()
	done := make(chan error, 1)
	go func() {
		_, err := NewReader(srv).ReadCommand()
		done <- err
	}()
	select {
	case err := <-done:
		wantTruncErr(t, err, nil, -1)
	case <-time.After(5 * time.Second):
		t.Fatal("ReadCommand hung on a truncated frame from a closed peer")
	}
}

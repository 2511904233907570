package wire

import (
	"bufio"
	"io"
	"strconv"
)

// Writer encodes RESP frames onto a stream. Writes are buffered: nothing
// reaches the connection until Flush, which is how the server turns one
// pipeline batch into one outbound packet train. It is not safe for
// concurrent use; a connection has exactly one writer goroutine.
//
// A frame that fits the buffer's free space is assembled in place, in
// bufio's AvailableBuffer, and committed with one Write. A larger one goes
// through bufio piece by piece, which flushes when the buffer fills and
// writes a payload larger than the buffer straight to the stream.
type Writer struct {
	bw *bufio.Writer
	// scratch holds a header when the buffer's free space cannot.
	scratch [maxIntLine]byte
}

// maxIntLine is the longest <prefix><int64>\r\n line: a type byte, 20 digits
// with the sign, and CRLF.
const maxIntLine = 1 + 20 + 2

// NewWriter returns a Writer over w with the default 64 KiB buffer.
func NewWriter(w io.Writer) *Writer {
	return NewWriterSize(w, 0)
}

// NewWriterSize returns a Writer over w whose buffer holds size bytes
// before a write is forced onto the stream; size <= 0 means 64 KiB. The
// server keeps the default: that buffer, together with the write deadline,
// bounds the memory a slow reader can pin.
func NewWriterSize(w io.Writer, size int) *Writer {
	if size <= 0 {
		size = 64 << 10
	}
	return &Writer{bw: bufio.NewWriterSize(w, size)}
}

// Flush writes everything buffered to the underlying stream.
func (w *Writer) Flush() error { return w.bw.Flush() }

// Buffered returns the number of bytes waiting for Flush.
func (w *Writer) Buffered() int { return w.bw.Buffered() }

func (w *Writer) writeCRLF() error {
	_, err := w.bw.WriteString("\r\n")
	return err
}

// appendIntLine appends <prefix><n>\r\n.
func appendIntLine(b []byte, prefix byte, n int64) []byte {
	b = strconv.AppendInt(append(b, prefix), n, 10)
	return append(b, '\r', '\n')
}

// writeIntLine emits <prefix><n>\r\n with one Write.
func (w *Writer) writeIntLine(prefix byte, n int64) error {
	buf := w.bw.AvailableBuffer()
	if cap(buf) < maxIntLine {
		buf = w.scratch[:0]
	}
	_, err := w.bw.Write(appendIntLine(buf, prefix, n))
	return err
}

// AppendBulk appends the bulk-string frame of v, $<len>\r\n<v>\r\n, to b.
func AppendBulk(b, v []byte) []byte {
	return append(append(appendIntLine(b, '$', int64(len(v))), v...), '\r', '\n')
}

// BulkLen returns the length of the bulk-string frame of an n-byte payload.
func BulkLen(n int) int {
	digits := 1
	for m := n; m >= 10; m /= 10 {
		digits++
	}
	return 1 + digits + 2 + n + 2
}

// writeBulk emits $<len>\r\n<b>\r\n.
func (w *Writer) writeBulk(b []byte) error {
	if buf := w.bw.AvailableBuffer(); cap(buf) >= maxIntLine+len(b)+2 {
		_, err := w.bw.Write(AppendBulk(buf, b))
		return err
	}
	if err := w.writeIntLine('$', int64(len(b))); err != nil {
		return err
	}
	if _, err := w.bw.Write(b); err != nil {
		return err
	}
	return w.writeCRLF()
}

// writeLine emits <prefix><b>\r\n for a single-line payload (simple string,
// error message).
func (w *Writer) writeLine(prefix byte, b []byte) error {
	b = sanitizeLine(b)
	if buf := w.bw.AvailableBuffer(); cap(buf) >= len(b)+3 {
		_, err := w.bw.Write(append(append(append(buf, prefix), b...), '\r', '\n'))
		return err
	}
	if err := w.bw.WriteByte(prefix); err != nil {
		return err
	}
	if _, err := w.bw.Write(b); err != nil {
		return err
	}
	return w.writeCRLF()
}

// sanitizeLine replaces CR and LF in single-line payloads (simple strings,
// error messages) so a crafted message cannot forge extra frames. It copies
// b once, at the first CR or LF, and returns b itself when there is none.
func sanitizeLine(b []byte) []byte {
	var clean []byte
	for i, c := range b {
		if c == '\r' || c == '\n' {
			if clean == nil {
				clean = append([]byte(nil), b...)
			}
			clean[i] = ' '
		}
	}
	if clean == nil {
		return b
	}
	return clean
}

// WriteCommand encodes one client command as a multibulk frame.
func (w *Writer) WriteCommand(args ...[]byte) error {
	if err := w.writeIntLine('*', int64(len(args))); err != nil {
		return err
	}
	for _, a := range args {
		if err := w.writeBulk(a); err != nil {
			return err
		}
	}
	return nil
}

// WriteCommandString encodes one client command given as strings.
func (w *Writer) WriteCommandString(args ...string) error {
	if err := w.writeIntLine('*', int64(len(args))); err != nil {
		return err
	}
	for _, a := range args {
		if err := w.writeBulk([]byte(a)); err != nil {
			return err
		}
	}
	return nil
}

// WriteReply serializes one Reply tree.
func (w *Writer) WriteReply(r Reply) error {
	switch r.Kind {
	case KindSimple:
		return w.writeLine('+', r.Bulk)
	case KindError:
		return w.writeLine('-', r.Bulk)
	case KindInt:
		return w.writeIntLine(':', r.Int)
	case KindBulk:
		return w.writeBulk(r.Bulk)
	case KindNull:
		_, err := w.bw.WriteString("$-1\r\n")
		return err
	case KindArray:
		if err := w.writeIntLine('*', int64(len(r.Elems))); err != nil {
			return err
		}
		for _, e := range r.Elems {
			if err := w.WriteReply(e); err != nil {
				return err
			}
		}
		return nil
	case KindFrames:
		if err := w.writeIntLine('*', r.Int); err != nil {
			return err
		}
		_, err := w.bw.Write(r.Bulk)
		return err
	default:
		return protoErrf("cannot encode reply kind %d", r.Kind)
	}
}

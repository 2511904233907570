package wire

import (
	"bufio"
	"bytes"
	"io"
	"strconv"
)

// Reader decodes RESP frames from a stream. One Reader serves both roles:
// servers call ReadCommand, clients call ReadReply. It is not safe for
// concurrent use; a connection has exactly one reader goroutine.
type Reader struct {
	br *bufio.Reader
}

// NewReader returns a Reader over r. The internal buffer is MaxInlineLine
// bytes, which doubles as the inline-command length limit.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, MaxInlineLine)}
}

// Buffered returns the number of decoded-but-unconsumed bytes already in
// the reader. A server uses it after one ReadCommand to keep draining a
// pipeline before flushing replies: Buffered() > 0 means the client has
// already sent more.
func (r *Reader) Buffered() int { return r.br.Buffered() }

// readLine reads up to LF and strips the terminator (CRLF or bare LF). A
// line longer than the buffer or an EOF mid-line is an error.
func (r *Reader) readLine() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if err != nil {
		if err == bufio.ErrBufferFull {
			return nil, protoErrf("line exceeds %d bytes", MaxInlineLine)
		}
		if err == io.EOF && len(line) > 0 {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// readInt parses the decimal integer of a length or :integer line: in
// place when it is short enough not to overflow, otherwise through
// strconv.ParseInt.
func (r *Reader) readInt() (int64, error) {
	line, err := r.readLine()
	if err != nil {
		return 0, err
	}
	if n, ok := parseShortInt(line); ok {
		return n, nil
	}
	n, err := strconv.ParseInt(string(line), 10, 64)
	if err != nil {
		return 0, protoErrf("invalid integer %q", line)
	}
	return n, nil
}

// parseShortInt parses an optional '-' and 1 to 18 decimal digits, too few
// to overflow an int64. Anything else — a '+', 19 digits, garbage — reports
// false and is left to strconv.ParseInt, so the accepted set and the error
// text are strconv's.
func parseShortInt(b []byte) (int64, bool) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	var n int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}

// bulkChunk is how much readBulkPayload grows its buffer per read: the
// allocation tracks the bytes that actually arrive, not the declared
// length, so a truncated frame claiming MaxBulk costs one chunk, not 8 MiB.
const bulkChunk = 64 << 10

// readBulkPayload reads n payload bytes plus the line terminator into
// buf's capacity, growing it when it is too small. The result is never nil,
// so an empty bulk stays distinguishable from null.
//
// A payload whose CRLF is already buffered is copied straight out of the
// buffer. Any other — one that straddles the buffer's end, or ends in a bare
// LF — is read a chunk at a time, growing buf by the bytes that arrive.
func (r *Reader) readBulkPayload(buf []byte, n int64) ([]byte, error) {
	if buf = buf[:0]; buf == nil {
		buf = make([]byte, 0, min(n, bulkChunk))
	}
	if int64(r.br.Buffered()) >= n+2 {
		// Neither Peek nor Discard can fail on bytes already buffered.
		frame, _ := r.br.Peek(int(n) + 2)
		if frame[n] == '\r' && frame[n+1] == '\n' {
			buf = append(buf, frame[:n]...)
			r.br.Discard(int(n) + 2)
			return buf, nil
		}
	}
	for int64(len(buf)) < n {
		step := int(min(n-int64(len(buf)), bulkChunk))
		if cap(buf)-len(buf) < step {
			buf = append(buf, make([]byte, step)...)[:len(buf)]
		}
		m, err := io.ReadFull(r.br, buf[len(buf):len(buf)+step])
		buf = buf[:len(buf)+m]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	b, err := r.br.ReadByte()
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if b == '\r' {
		if b, err = r.br.ReadByte(); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	if b != '\n' {
		return nil, protoErrf("bulk string not terminated by CRLF")
	}
	return buf, nil
}

// scanBulk decodes a bulk frame in one step when the whole frame is already
// buffered and has the common shape: '$', 1 to 18 digits, CRLF, a payload of
// at most limit bytes, CRLF. It copies the payload into buf's storage (never
// nil, as readBulkPayload's) and consumes the frame. Any other frame — one
// that straddles the buffer's edge, a null, a sign, a 19th digit, a bare LF,
// a length above limit, another type byte — it leaves unread and reports
// false, so the piecewise path decides it with its own limits and errors.
func (r *Reader) scanBulk(buf []byte, limit int64) ([]byte, bool) {
	// Peek of what is already buffered never reads, so it cannot fail.
	b, _ := r.br.Peek(r.br.Buffered())
	if len(b) == 0 || b[0] != '$' {
		return nil, false
	}
	n, start, ok := lengthLine(b)
	if !ok || n > limit {
		return nil, false
	}
	end := start + int(n)
	if end+2 > len(b) || b[end] != '\r' || b[end+1] != '\n' {
		return nil, false
	}
	if buf == nil {
		buf = make([]byte, 0, n)
	}
	buf = append(buf[:0], b[start:end]...)
	r.br.Discard(end + 2)
	return buf, true
}

// scanFrames decodes an array of bulk strings in one step when the whole
// array is already buffered and has the common shape: '*', 1 to 18 digits
// counting 1 to maxReplyElems elements, CRLF, then that many elements of
// scanBulk's shape with a payload of at most MaxBulk bytes, whose lengths
// have no leading zero, so that they are in AppendBulk's encoding. It copies
// the element frames, back to back, into buf's storage, consumes the array
// and returns the frames and their count. Any other frame it leaves unread
// and reports false, so the piecewise path decides it.
func (r *Reader) scanFrames(buf []byte) ([]byte, int64, bool) {
	// Peek of what is already buffered never reads, so it cannot fail.
	b, _ := r.br.Peek(r.br.Buffered())
	if len(b) == 0 || b[0] != '*' {
		return nil, 0, false
	}
	n, start, ok := lengthLine(b)
	if !ok || n == 0 || n > maxReplyElems {
		return nil, 0, false
	}
	rest := b[start:]
	for range n {
		if len(rest) == 0 || rest[0] != '$' {
			return nil, 0, false
		}
		l, k, ok := lengthLine(rest)
		if !ok || l > MaxBulk || rest[1] == '0' && k > 4 {
			return nil, 0, false
		}
		end := k + int(l)
		if end+2 > len(rest) || rest[end] != '\r' || rest[end+1] != '\n' {
			return nil, 0, false
		}
		rest = rest[end+2:]
	}
	i := len(b) - len(rest)
	buf = append(buf[:0], b[start:i]...)
	r.br.Discard(i)
	return buf, n, true
}

// lengthLine parses the length line that opens b for the one-step scans: a
// type byte, 1 to 18 digits, CRLF. It returns the length and the line's
// size; any other line reports false. It is small enough for the compiler
// to inline, which scanFrames' per-element loop depends on.
func lengthLine(b []byte) (n int64, size int, ok bool) {
	i := 1
	for ; i < len(b) && i <= 18 && b[i]-'0' <= 9; i++ {
		n = n*10 + int64(b[i]-'0')
	}
	if i == 1 || len(b) < i+2 || b[i] != '\r' || b[i+1] != '\n' {
		return 0, 0, false
	}
	return n, i + 2, true
}

// fill refills a drained buffer, so that a one-step scan sees the frame that
// comes next rather than nothing. It fails as ReadByte fails on a drained
// buffer, with the read's error as it is.
func (r *Reader) fill() error {
	if r.br.Buffered() > 0 {
		return nil
	}
	_, err := r.br.Peek(1)
	return err
}

// ReadCommand decodes one client command: a multibulk frame (*N array of
// bulk strings) or an inline command (a space-separated line). Empty frames
// (*0, blank lines) are skipped. The returned argument slices are freshly
// allocated and owned by the caller. Framing violations return a
// *ProtocolError; a clean end of stream returns io.EOF.
func (r *Reader) ReadCommand() ([][]byte, error) {
	return r.readCommandInto(nil)
}

// readCommandInto is ReadCommand decoding into dst's storage: the header
// slice and every argument buffer within dst[:cap(dst)] are reused where
// they are large enough and grown where they are not, so a caller that
// feeds each result back in decodes a steady stream without allocating.
// The result aliases dst and is valid until dst is decoded into again; dst
// must be nil or an earlier result the caller no longer reads. On error the
// result is nil and dst's contents are unspecified.
func (r *Reader) readCommandInto(dst [][]byte) ([][]byte, error) {
	for {
		b, err := r.br.ReadByte()
		if err != nil {
			return nil, err
		}
		switch b {
		case '*':
			n, err := r.readInt()
			if err != nil {
				return nil, err
			}
			switch {
			case n < 0:
				return nil, protoErrf("negative multibulk length %d", n)
			case n == 0:
				continue // empty command, as redis: ignore
			case n > MaxArgs:
				return nil, protoErrf("command has %d arguments, limit %d", n, MaxArgs)
			}
			args := slot(dst, int(n))
			total := int64(0)
			for i := range args {
				if a, ok := r.scanBulk(args[i], min(MaxBulk, MaxCommandBytes-total)); ok {
					args[i], total = a, total+int64(len(a))
					continue
				}
				pb, err := r.br.ReadByte()
				if err != nil {
					if err == io.EOF {
						err = io.ErrUnexpectedEOF
					}
					return nil, err
				}
				if pb != '$' {
					return nil, protoErrf("expected '$' for command argument, got %q", pb)
				}
				l, err := r.readInt()
				if err != nil {
					return nil, err
				}
				if l < 0 {
					return nil, protoErrf("negative bulk length %d in command", l)
				}
				if l > MaxBulk {
					return nil, protoErrf("bulk string of %d bytes exceeds limit %d", l, MaxBulk)
				}
				if total += l; total > MaxCommandBytes {
					return nil, protoErrf("command payload exceeds %d bytes", MaxCommandBytes)
				}
				if args[i], err = r.readBulkPayload(args[i], l); err != nil {
					return nil, err
				}
			}
			return args, nil
		case '\r', '\n', ' ':
			continue // stray whitespace between frames
		default:
			// Inline command: the rest of the line, split on whitespace.
			// bytes.Fields returns views into the reader's buffer, so each
			// field is copied out.
			if err := r.br.UnreadByte(); err != nil {
				return nil, err
			}
			line, err := r.readLine()
			if err != nil {
				return nil, err
			}
			fields := bytes.Fields(line)
			if len(fields) == 0 {
				continue
			}
			if len(fields) > MaxArgs {
				return nil, protoErrf("inline command has %d arguments, limit %d", len(fields), MaxArgs)
			}
			args := slot(dst, len(fields))
			for i, f := range fields {
				args[i] = append(args[i][:0], f...)
			}
			return args, nil
		}
	}
}

// slot returns an n-argument header over dst's storage: dst's own array
// (and the argument buffers earlier decodes left in it) when it holds n
// entries, otherwise a fresh one that takes over dst's buffers. n is at
// most MaxArgs, so the header never costs more than 24 KiB.
func slot(dst [][]byte, n int) [][]byte {
	if n <= cap(dst) {
		return dst[:n]
	}
	args := make([][]byte, n)
	copy(args, dst[:cap(dst)])
	return args
}

// ReadReply decodes one server reply into a Reply tree the caller owns. An
// array comes back as KindArray, whichever way it was decoded. Framing
// violations return a *ProtocolError; a clean end of stream returns io.EOF.
func (r *Reader) ReadReply() (Reply, error) {
	var rep Reply
	err := r.readReplyInto(&rep)
	return rep.Expand(), err
}

// readReplyInto is ReadReply decoding into *dst's storage: Bulk, Elems and,
// recursively, every element within Elems[:cap(Elems)] are reused where they
// are large enough and grown where they are not. An array of bulk strings
// that scanFrames takes in one step comes back as KindFrames, with its
// frames in Bulk; any other reply, or that array decoded piecewise, comes
// back as it is encoded. The reply aliases that storage and is valid until
// dst is decoded into again. *dst must be the zero Reply or an earlier
// result the caller no longer reads — never a value built by OK, Bulk and
// friends, whose bytes belong to someone else. On error *dst is the zero
// Reply.
func (r *Reader) readReplyInto(dst *Reply) error {
	err := r.fill()
	if err == nil {
		if frames, n, ok := r.scanFrames(dst.Bulk); ok {
			dst.Kind, dst.Int, dst.Bulk, dst.Elems = KindFrames, n, frames, dst.Elems[:0]
			return nil
		}
		err = r.decodeReply(dst, 0)
	}
	if err != nil {
		*dst = Reply{}
	}
	return err
}

func (r *Reader) decodeReply(dst *Reply, depth int) error {
	if depth > maxReplyDepth {
		return protoErrf("reply nesting exceeds depth %d", maxReplyDepth)
	}
	if err := r.fill(); err != nil {
		return err
	}
	if bulk, ok := r.scanBulk(dst.Bulk, MaxBulk); ok {
		dst.Kind, dst.Int, dst.Bulk, dst.Elems = KindBulk, 0, bulk, dst.Elems[:0]
		return nil
	}
	b, err := r.br.ReadByte()
	if err != nil {
		return err
	}
	// Every kind keeps the storage the others would use, so a pipeline slot
	// that answers an integer now and an array next time allocates neither.
	dst.Int, dst.Bulk, dst.Elems = 0, dst.Bulk[:0], dst.Elems[:0]
	switch b {
	case '+', '-':
		line, err := r.readLine()
		if err != nil {
			return err
		}
		dst.Kind = KindSimple
		if b == '-' {
			dst.Kind = KindError
		}
		dst.Bulk = append(dst.Bulk, line...)
	case ':':
		n, err := r.readInt()
		if err != nil {
			return err
		}
		dst.Kind, dst.Int = KindInt, n
	case '$':
		n, err := r.readInt()
		if err != nil {
			return err
		}
		if n == -1 {
			dst.Kind = KindNull
			return nil
		}
		if n < 0 {
			return protoErrf("negative bulk length %d", n)
		}
		if n > MaxBulk {
			return protoErrf("bulk string of %d bytes exceeds limit %d", n, MaxBulk)
		}
		if dst.Bulk, err = r.readBulkPayload(dst.Bulk, n); err != nil {
			return err
		}
		dst.Kind = KindBulk
	case '*':
		n, err := r.readInt()
		if err != nil {
			return err
		}
		if n == -1 {
			dst.Kind = KindNull
			return nil
		}
		if n < 0 {
			return protoErrf("negative array length %d", n)
		}
		if n > maxReplyElems {
			return protoErrf("reply array of %d elements exceeds limit %d", n, maxReplyElems)
		}
		// Grown by append, not sized by n: a header claiming a million
		// elements costs what actually arrives.
		if dst.Elems == nil {
			dst.Elems = make([]Reply, 0, min(n, 64))
		}
		for i := 0; i < int(n); i++ {
			if i < cap(dst.Elems) {
				dst.Elems = dst.Elems[:i+1]
			} else {
				dst.Elems = append(dst.Elems, Reply{})
			}
			if err := r.decodeReply(&dst.Elems[i], depth+1); err != nil {
				return err
			}
		}
		dst.Kind = KindArray
	default:
		return protoErrf("unexpected reply type byte %q", b)
	}
	return nil
}

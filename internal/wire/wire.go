// Package wire implements the RESP-compatible subset dego-server speaks on
// the network: the framing layer between stock redis clients (redis-cli,
// redis-benchmark) and the sharded store in internal/server. The exact verb
// set, type mappings and pipelining semantics are documented in
// docs/PROTOCOL.md; this package is only the codec.
//
// Two directions share one wire format:
//
//   - A server parses client→server frames with Reader.ReadCommand: an array
//     of bulk strings (what every redis client sends), or an inline command
//     (a space-separated text line, the telnet convenience). Reader.Buffered
//     reports whether more pipelined bytes are already queued, which is what
//     internal/server uses to batch a pipeline flush into one store
//     dispatch.
//   - A client parses server→client frames with Reader.ReadReply into the
//     Reply tree: simple strings, errors, integers, bulk strings, nulls and
//     arrays. The server builds the same Reply values and serializes them
//     with Writer.WriteReply, so both ends of the in-repo stack agree on one
//     representation. One more kind, Frames, is an array of bulk strings
//     that are already encoded: a served list keeps its entries that way,
//     and a client's ReplyBatch keeps such an array as the frames it
//     arrived in. WriteReply sends it as the same bytes as the Array it
//     stands for, and Expand turns it into that Array.
//
// Each direction decodes two ways. ReadCommand and ReadReply return memory
// the caller owns for good. A CommandBatch (a server connection's commands)
// and a ReplyBatch (a client's replies to one pipeline) run the same parse
// into storage they own and recycle from batch to batch — header slices,
// argument buffers, Bulk and Elems are reused at whatever capacity they have
// — so a connection decodes a steady stream without allocating; what they
// return is valid only until the batch ends. The plain methods are the same
// parse into a fresh destination, so there is one parse per direction:
// ReadReply expands the Frames a ReplyBatch would return into an Array.
// Between batches each type trims what it keeps to RetainTotal bytes, with
// no buffer above RetainBuf but a list's frames, walking only the slots the
// batch decoded into.
//
// Both directions work a frame at a time against bufio's buffer. The Writer
// assembles a frame that fits the buffer's free space in place and commits
// it with one write. The Reader refills a drained buffer before it decodes
// a reply, and decodes a bulk string that is wholly buffered in one scan —
// '$', 1 to 18 digits, CRLF, the payload, CRLF, within the limits — which
// parses the length in place, copies the payload out and consumes the frame
// at once; nearly every argument and reply element is one. A reply that is
// a wholly buffered array of such bulk strings, in AppendBulk's encoding, is
// one scan too: the frames are checked, copied out with one copy and
// consumed at once. Everything else goes piecewise: a frame that straddles
// the buffer's edge, every other frame type, and an unusual bulk string (a
// null, a '+' or 19-digit length, a bare-LF terminator, an oversized
// length). The piecewise path accepts and rejects exactly the same bytes,
// so the limits and error texts are the same on both paths. An array of
// bulk strings it decodes stays an Array, its elements in the batch's
// arena; Expand makes either kind the same Array.
//
// Malformed input never panics: every framing violation surfaces as a
// *ProtocolError (the fuzz tests in this package hold that line), and the
// hard limits below bound what a hostile peer can make the codec allocate.
package wire

import "fmt"

// Codec limits. A frame that exceeds them yields a *ProtocolError rather
// than an allocation sized by the attacker.
const (
	// MaxArgs caps the argument count of one command (redis' own default
	// proto-max-multibulk is far larger; no verb in the subset needs more).
	MaxArgs = 1024
	// MaxBulk caps one bulk-string payload.
	MaxBulk = 8 << 20
	// MaxCommandBytes caps the cumulative payload of one command.
	MaxCommandBytes = 32 << 20
	// MaxInlineLine caps an inline command line (also the reader's buffer
	// size, so an unterminated line cannot grow without bound).
	MaxInlineLine = 64 << 10
	// maxReplyDepth caps reply-array nesting on the client side.
	maxReplyDepth = 8
	// maxReplyElems caps one reply array's element count.
	maxReplyElems = 1 << 20
)

// ProtocolError reports a framing violation: bytes that are not valid RESP,
// or a frame that exceeds the codec limits. A server replies with the error
// and closes the connection (the stream position is no longer trustworthy);
// I/O errors such as io.EOF are returned as-is, not wrapped.
type ProtocolError struct {
	Detail string
}

func (e *ProtocolError) Error() string { return "wire: protocol error: " + e.Detail }

func protoErrf(format string, args ...any) error {
	return &ProtocolError{Detail: fmt.Sprintf(format, args...)}
}

package wire

import (
	"fmt"
	"strings"
)

// Kind discriminates the RESP reply types of the subset.
type Kind uint8

// Reply kinds, one per RESP2 type byte (KindNull covers both the null bulk
// string $-1 and the null array *-1).
const (
	KindSimple Kind = iota + 1 // +OK
	KindError                  // -ERR ...
	KindInt                    // :42
	KindBulk                   // $3\r\nfoo
	KindNull                   // $-1 / *-1
	KindArray                  // *2 ...
	KindFrames                 // *2 ..., its elements already encoded (Frames)
)

// Reply is one decoded server→client frame. The server's shard executors
// build Reply values and Writer.WriteReply serializes them; a client gets
// the same shape back from Reader.ReadReply, so tests can compare the two
// ends structurally. A ReplyBatch returns an array of bulk strings as
// KindFrames instead, which Expand turns into the array ReadReply returns.
type Reply struct {
	Kind  Kind
	Int   int64   // KindInt; KindFrames (element count)
	Bulk  []byte  // KindSimple (text), KindError (message), KindBulk (payload), KindFrames (the frames)
	Elems []Reply // KindArray
}

// Simple returns a simple-string reply (+s).
func Simple(s string) Reply { return Reply{Kind: KindSimple, Bulk: []byte(s)} }

// okText is shared by every OK reply and never written: the Writer only
// reads a reply's bytes, and a decode destination is never a built reply.
var okText = []byte("OK")

// OK is the canonical +OK reply. It does not allocate.
func OK() Reply { return Reply{Kind: KindSimple, Bulk: okText} }

// Err returns an error reply (-msg).
func Err(msg string) Reply { return Reply{Kind: KindError, Bulk: []byte(msg)} }

// Errf returns a formatted error reply.
func Errf(format string, args ...any) Reply { return Err(fmt.Sprintf(format, args...)) }

// Int64 returns an integer reply (:n).
func Int64(n int64) Reply { return Reply{Kind: KindInt, Int: n} }

// Bulk returns a bulk-string reply owning b.
func Bulk(b []byte) Reply { return Reply{Kind: KindBulk, Bulk: b} }

// BulkString returns a bulk-string reply of s.
func BulkString(s string) Reply { return Reply{Kind: KindBulk, Bulk: []byte(s)} }

// Null returns the null reply ($-1).
func Null() Reply { return Reply{Kind: KindNull} }

// Array returns an array reply of elems.
func Array(elems ...Reply) Reply { return Reply{Kind: KindArray, Elems: elems} }

// Frames returns an array reply of n bulk strings that are already encoded:
// b is their n frames ($<len>\r\n<payload>\r\n, as AppendBulk writes them)
// back to back. The Writer sends it as the array header and one copy of b,
// the same bytes as the equivalent Array of Bulk replies. A served list
// keeps its entries this way, and a ReplyBatch decodes an array of bulk
// strings into it, as one copy of the frames that arrived. b is retained and
// must not change while the reply is in use.
func Frames(n int, b []byte) Reply { return Reply{Kind: KindFrames, Int: int64(n), Bulk: b} }

// Expand returns a KindFrames reply as the KindArray it encodes, whose
// Elems are fresh but whose payloads alias the frames. Any other reply is
// returned as it is.
func (r Reply) Expand() Reply {
	if r.Kind != KindFrames {
		return r
	}
	elems := make([]Reply, 0, r.Int)
	for b := r.Bulk; len(b) > 0; {
		// b starts with $<len>\r\n: the digits run up to the CR.
		n, i := 0, 1
		for ; b[i] != '\r'; i++ {
			n = 10*n + int(b[i]-'0')
		}
		i += 2
		elems = append(elems, Bulk(b[i:i+n:i+n]))
		b = b[i+n+2:]
	}
	return Array(elems...)
}

// IsError reports whether the reply is an error reply.
func (r Reply) IsError() bool { return r.Kind == KindError }

// Text returns the reply's textual payload: the simple string, error
// message or bulk payload. Other kinds return "".
func (r Reply) Text() string {
	if r.Kind == KindFrames {
		return ""
	}
	return string(r.Bulk)
}

// String renders the reply in redis-cli style, for logs and examples.
func (r Reply) String() string {
	switch r.Kind {
	case KindSimple:
		return string(r.Bulk)
	case KindError:
		return "(error) " + string(r.Bulk)
	case KindInt:
		return fmt.Sprintf("(integer) %d", r.Int)
	case KindBulk:
		return fmt.Sprintf("%q", r.Bulk)
	case KindNull:
		return "(nil)"
	case KindArray:
		parts := make([]string, len(r.Elems))
		for i, e := range r.Elems {
			parts[i] = e.String()
		}
		return "[" + strings.Join(parts, " ") + "]"
	case KindFrames:
		return r.Expand().String()
	default:
		return fmt.Sprintf("(invalid reply kind %d)", r.Kind)
	}
}
